package objectbase_test

// The observability surface at the façade: metrics/stats parity (the
// registry may never silently lag the Stats struct), the flight
// recorder's phase-partition reconciliation invariant, and the live
// debug server end to end — /metrics, /waitsfor under an induced lock
// wait, /trace, pprof, and Close.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"objectbase"
	"objectbase/internal/load"
)

// statsMetricName maps every objectbase.Stats field to its registry
// counter. TestMetricsStatsParity fails when a Stats field is missing
// here or when a mapped counter is missing from DB.Metrics(): adding a
// Stats field without wiring it into buildRegistry (or this map) is the
// regression the test exists to catch.
var statsMetricName = map[string]string{
	"Commits":        "commits",
	"Aborts":         "aborts",
	"Retries":        "retries",
	"LockWaits":      "lock_waits",
	"Deadlocks":      "deadlocks",
	"CertValidated":  "cert_validated",
	"CertRejected":   "cert_rejected",
	"ViewCommits":    "view_commits",
	"ViewFallbacks":  "view_fallbacks",
	"SerialRestarts": "serial_restarts",
	"TwoPCRestarts":  "twopc_restarts",
}

// TestMetricsStatsParity hammers a sharded, tracing DB with declared,
// under-declared, and read-only traffic, then requires DB.Metrics() to
// agree with DB.Stats() on every counter.
func TestMetricsStatsParity(t *testing.T) {
	db, err := objectbase.Open(
		objectbase.WithShards(4),
		objectbase.WithReadOnly(),
		objectbase.WithTracing(),
	)
	if err != nil {
		t.Fatal(err)
	}
	const nObjs = 16
	names := make([]string, nObjs)
	for i := range names {
		names[i] = fmt.Sprintf("c%d", i)
		if err := db.RegisterObject(names[i], objectbase.Counter(), nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a, b := names[(c+i)%nObjs], names[(c+3*i+1)%nObjs]
				bump := func(x *objectbase.Ctx) (objectbase.Value, error) {
					if _, err := x.Do(a, "Add", int64(1)); err != nil {
						return nil, err
					}
					return x.Do(b, "Add", int64(1))
				}
				var err error
				switch i % 3 {
				case 0:
					// Fully declared: the serial fast path.
					_, err = db.ExecTouching(ctx, "pair", []string{a, b}, bump)
				case 1:
					// Under-declared: touching b forces the restart that
					// grows the declared set (Stats.SerialRestarts).
					_, err = db.ExecTouching(ctx, "pair-short", []string{a}, bump)
				default:
					// Undeclared: discovery on the two-phase-commit path.
					_, err = db.Exec(ctx, "pair-lazy", bump)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := db.View(ctx, "peek", func(x *objectbase.Ctx) (objectbase.Value, error) {
					return x.Do(a, "Get")
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	st := db.Stats()
	m := db.Metrics()
	sv := reflect.ValueOf(st)
	for i := 0; i < sv.NumField(); i++ {
		field := sv.Type().Field(i).Name
		metric, ok := statsMetricName[field]
		if !ok {
			t.Errorf("Stats field %s has no registry counter mapping — extend buildRegistry and statsMetricName", field)
			continue
		}
		got, ok := m.Counters[metric]
		if !ok {
			t.Errorf("registry has no counter %q for Stats.%s", metric, field)
			continue
		}
		if want := sv.Field(i).Int(); got != want {
			t.Errorf("counter %q = %d, Stats.%s = %d", metric, got, field, want)
		}
	}
	if st.Commits == 0 {
		t.Error("hammer committed nothing")
	}
	if st.SerialRestarts == 0 {
		t.Error("under-declared serial transactions should have restarted at least once")
	}
	if m.Gauges["shards"] != 4 {
		t.Errorf("shards gauge = %d, want 4", m.Gauges["shards"])
	}
	if len(m.Phases) == 0 {
		t.Error("tracing DB reported no phase histograms")
	}
}

// TestStatsSubCoversEveryField: Stats.Sub lists its fields by hand, so a
// field added to Stats but not to Sub would silently read zero in every
// measurement window. Give every field a distinct value on both sides and
// require each difference back.
func TestStatsSubCoversEveryField(t *testing.T) {
	var cur, prev objectbase.Stats
	cv, pv := reflect.ValueOf(&cur).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < cv.NumField(); i++ {
		if k := cv.Field(i).Kind(); k != reflect.Int64 {
			t.Fatalf("Stats.%s is %s, not int64: extend Sub and this test", cv.Type().Field(i).Name, k)
		}
		cv.Field(i).SetInt(int64(1000 * (i + 1)))
		pv.Field(i).SetInt(int64(i + 1))
	}
	dv := reflect.ValueOf(cur.Sub(prev))
	for i := 0; i < dv.NumField(); i++ {
		if got, want := dv.Field(i).Int(), int64(999*(i+1)); got != want {
			t.Errorf("Sub: %s = %d, want %d", dv.Type().Field(i).Name, got, want)
		}
	}
}

// TestCertifierGauges: under the modular scheduler the registry carries
// the certifier's and the dependency tracker's bookkeeping gauges — live
// values while a transaction is open, zero once the DB is quiescent, and
// a high-water mark of conflict tests per step — and under a lock-based
// scheduler it carries none of them.
func TestCertifierGauges(t *testing.T) {
	gauges := []string{"cert_tracked_accesses", "cert_tracked_txns", "cert_max_step_tests", "dep_tracked_touches", "dep_tracked_txns"}
	plain, err := objectbase.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gauges {
		if _, ok := plain.Metrics().Gauges[g]; ok {
			t.Errorf("lock-based DB exports certifier gauge %q", g)
		}
	}
	db, err := objectbase.Open(objectbase.WithScheduler("modular"), objectbase.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterObject("d", objectbase.Dictionary(), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var inside map[string]int64
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(ctx, "w", func(x *objectbase.Ctx) (objectbase.Value, error) {
			if _, err := x.Do("d", "Insert", int64(i), int64(i)); err != nil {
				return nil, err
			}
			if _, err := x.Do("d", "Len"); err != nil {
				return nil, err
			}
			inside = db.Metrics().Gauges
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	want := map[string]int64{"cert_tracked_accesses": 2, "cert_tracked_txns": 1, "dep_tracked_touches": 1, "dep_tracked_txns": 1}
	for g, v := range want {
		if inside[g] != v {
			t.Errorf("inside a transaction %s = %d, want %d", g, inside[g], v)
		}
	}
	after := db.Metrics().Gauges
	for _, g := range gauges {
		v, ok := after[g]
		if !ok {
			t.Errorf("modular DB does not export %q", g)
		} else if g != "cert_max_step_tests" && v != 0 {
			t.Errorf("quiescent %s = %d, want 0", g, v)
		}
	}
	if st := db.Stats(); st.CertValidated != 3 || st.CertRejected != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestTraceReconciliation drives traced hotspot-counter × n2pl-op cells
// and checks the flight recorder's core invariant: the exclusive phases
// partition each attempt's wall time, so their summed totals must
// reconcile with the driver's latency histogram within 5%. The unsharded
// cell runs the scheduled path; the 8-shard cell runs the scenario's
// declared op stream down the serial fast path.
//
// The measurement is retried up to three times: on a loaded (or
// single-core) machine one scheduler preemption landing in the few
// unmeasured nanoseconds around a transaction can add tens of
// milliseconds to the latency sum but not to the phases. A systematic
// accounting gap is stable across runs and fails all three attempts; a
// one-off preemption outlier does not.
func TestTraceReconciliation(t *testing.T) {
	sc, ok := load.Get("hotspot-counter")
	if !ok {
		t.Fatal("hotspot-counter scenario not registered")
	}
	for _, tc := range []struct {
		name   string
		shards int
		seed   int64
	}{
		{"unsharded", 1, 11},
		{"shards-8", 8, 23},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var fracs []float64
			for attempt := 0; attempt < 3; attempt++ {
				res, err := load.Run(context.Background(), load.Options{
					Scenario:  sc,
					Scheduler: "n2pl-op",
					Trace:     true,
					Knobs:     load.Knobs{Clients: 16, Txns: 300, Shards: tc.shards, Seed: tc.seed + int64(attempt)},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Errors != 0 {
					// Failed transactions appear in the phase totals but not
					// in the latency histogram, which would skew the
					// reconciliation.
					t.Fatalf("expected a clean commuting run, got %d errors", res.Errors)
				}
				if !res.Trace || len(res.Phases) == 0 {
					t.Fatalf("traced run carried no phases block: %+v", res.Phases)
				}
				if len(res.Spans) == 0 {
					t.Fatal("traced run drained no spans")
				}
				if res.Phases["admit"].Count != res.Ops {
					t.Fatalf("admit count %d, want one per transaction (%d)", res.Phases["admit"].Count, res.Ops)
				}

				var phaseSum int64
				for _, name := range []string{"admit", "schedule-wait", "execute", "commit-barrier", "publish", "retry-backoff"} {
					phaseSum += res.Phases[name].TotalNS
				}
				latSum := res.Latency.Mean * (res.Ops - res.Errors)
				if latSum <= 0 {
					t.Fatalf("degenerate latency sum %d", latSum)
				}
				diff := phaseSum - latSum
				if diff < 0 {
					diff = -diff
				}
				frac := float64(diff) / float64(latSum)
				if frac <= 0.05 {
					return
				}
				fracs = append(fracs, frac)
			}
			t.Errorf("exclusive phase sums never reconciled with the latency sum within 5%%: off by %.1f%%, %.1f%%, %.1f%% across three runs",
				fracs[0]*100, fracs[1]*100, fracs[2]*100)
		})
	}
}

// TestDebugServerEndToEnd opens a DB with the live introspection server
// and exercises every endpoint, including /waitsfor under an induced
// lock wait.
func TestDebugServerEndToEnd(t *testing.T) {
	db, err := objectbase.Open(objectbase.WithDebugServer("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.Tracing() {
		t.Fatal("WithDebugServer must imply tracing")
	}
	addr := db.DebugAddr()
	if addr == "" {
		t.Fatal("debug server reported no address")
	}
	base := "http://" + addr
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	if err := db.RegisterObject("c", objectbase.Counter(), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Writer holds the counter's Add lock until released; the reader's
	// conflicting Get then blocks inside the lock manager, which is the
	// window where /waitsfor must show the edge.
	held := make(chan struct{})
	gate := make(chan struct{})
	writerDone := make(chan error, 1)
	readerDone := make(chan error, 1)
	go func() {
		_, err := db.Exec(ctx, "hold", func(x *objectbase.Ctx) (objectbase.Value, error) {
			if _, err := x.Do("c", "Add", int64(1)); err != nil {
				return nil, err
			}
			close(held)
			<-gate
			return nil, nil
		})
		writerDone <- err
	}()
	<-held
	go func() {
		_, err := db.Exec(ctx, "peek", func(x *objectbase.Ctx) (objectbase.Value, error) {
			return x.Do("c", "Get")
		})
		readerDone <- err
	}()

	sawEdge := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, body := get("/waitsfor"); strings.Contains(body, "->") {
			sawEdge = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	close(gate)
	if err := <-writerDone; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if err := <-readerDone; err != nil {
		t.Fatalf("reader: %v", err)
	}
	if !sawEdge {
		t.Error("/waitsfor never showed the blocked reader's edge")
	}

	if code, body := get("/metrics"); code != http.StatusOK ||
		!strings.Contains(body, "objectbase_commits_total") ||
		!strings.Contains(body, "objectbase_lock_waits_total") {
		t.Errorf("/metrics (%d) missing expected counters:\n%s", code, body)
	}
	if code, body := get("/trace"); code != http.StatusOK {
		t.Errorf("/trace status %d", code)
	} else {
		var tf struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal([]byte(body), &tf); err != nil {
			t.Errorf("/trace is not trace-event JSON: %v", err)
		} else if len(tf.TraceEvents) == 0 {
			t.Error("/trace drained no events after committed transactions")
		}
	}
	if code, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("debug server still serving after Close")
	}
}

// TestTracingSurfaceDisabled pins the zero-cost default: no tracer, no
// spans, but the metrics registry still serves the Stats counters. The
// env opt-in is cleared so the test still pins the default when the
// whole suite runs under OBJECTBASE_TRACE=1 (one CI cell does).
func TestTracingSurfaceDisabled(t *testing.T) {
	t.Setenv("OBJECTBASE_TRACE", "")
	db, err := objectbase.Open()
	if err != nil {
		t.Fatal(err)
	}
	if db.Tracing() {
		t.Fatal("tracing should be off by default")
	}
	if spans, _ := db.TraceSnapshot(); spans != nil {
		t.Errorf("TraceSnapshot on an untraced DB returned %d spans", len(spans))
	}
	if err := db.RegisterObject("c", objectbase.Counter(), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(context.Background(), "bump", func(x *objectbase.Ctx) (objectbase.Value, error) {
		return x.Do("c", "Add", int64(1))
	}); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Counters["commits"] != 1 {
		t.Errorf("commits counter = %d, want 1", m.Counters["commits"])
	}
	if len(m.Phases) != 0 {
		t.Errorf("untraced DB reported phase histograms: %v", m.Phases)
	}
	if db.DebugAddr() != "" {
		t.Errorf("DebugAddr = %q without WithDebugServer", db.DebugAddr())
	}
	if err := db.Close(); err != nil {
		t.Errorf("Close without debug server: %v", err)
	}
}

// TestTracingEnvOptIn pins the process-wide CI switch.
func TestTracingEnvOptIn(t *testing.T) {
	t.Setenv("OBJECTBASE_TRACE", "1")
	db, err := objectbase.Open()
	if err != nil {
		t.Fatal(err)
	}
	if !db.Tracing() {
		t.Fatal("OBJECTBASE_TRACE=1 should enable the flight recorder")
	}
}

// TestVersionRingCounters: a WithReadOnly DB reports its version rings'
// health in the registry — versions captured, publications that left a
// gap because another writer's uncommitted effects were in the state, and
// gaps repaired once that writer undid — and a DB without versions
// exports none of the three.
func TestVersionRingCounters(t *testing.T) {
	names := []string{"versions_published", "version_gaps", "version_repairs"}
	plain, err := objectbase.Open()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if _, ok := plain.Metrics().Counters[n]; ok {
			t.Errorf("DB without WithReadOnly exports %q", n)
		}
	}
	db, err := objectbase.Open(objectbase.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterObject("c", objectbase.Counter(), nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	add := func(x *objectbase.Ctx) (objectbase.Value, error) { return x.Do("c", "Add", int64(1)) }
	check := func(when string, published, gaps, repairs int64) {
		t.Helper()
		got := db.Metrics().Counters
		for i, want := range []int64{published, gaps, repairs} {
			if got[names[i]] != want {
				t.Errorf("%s: %s = %d, want %d", when, names[i], got[names[i]], want)
			}
		}
	}
	if _, err := db.Exec(ctx, "solo", add); err != nil {
		t.Fatal(err)
	}
	check("one clean commit", 1, 0, 0)

	// Adds commute, so a second writer commits while the first still holds
	// an uncommitted Add in the state: its publication must be a gap. The
	// first then aborts, and its undo repairs the gap.
	inside, release := make(chan struct{}), make(chan struct{})
	errAbort := errors.New("deliberate abort")
	done := make(chan error, 1)
	go func() {
		_, err := db.Exec(ctx, "slow", func(x *objectbase.Ctx) (objectbase.Value, error) {
			if _, err := add(x); err != nil {
				return nil, err
			}
			close(inside)
			<-release
			return nil, errAbort
		})
		done <- err
	}()
	<-inside
	if _, err := db.Exec(ctx, "overlapping", add); err != nil {
		t.Fatal(err)
	}
	check("commit over an uncommitted writer", 1, 1, 0)
	close(release)
	if err := <-done; !errors.Is(err, errAbort) {
		t.Fatalf("slow writer: %v", err)
	}
	check("after the writer undid", 1, 1, 1)
}
