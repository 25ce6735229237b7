package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"objectbase"
)

// The fixed load shape: a closed loop (the system is an embedded library
// whose callers each wait for their reply) of exactly two client
// goroutines on two Ps — the box has two CPUs, and more clients would
// measure the Go scheduler.
const (
	numClients = 2
	// sampleCap is the latency samples one client can record in a window
	// (4 bytes each; both buffers together add 16 MiB to the live heap,
	// the same in every round of every workload). A client that fills
	// its buffer ends the window early, which shortens the measurement
	// but biases nothing.
	sampleCap = 1 << 21
	// traceCap is the spans one client can record in the traced round.
	traceCap = 1 << 19
	// windowStart is the op index every client's measured window begins
	// at, beyond anything a warm-up can reach: an op is a pure function of
	// its index, so every window of every run replays the same stream
	// from the same place, however fast the warm-up went.
	windowStart = 1 << 20
	// writeBit marks a latency sample of a mutating transaction; the low
	// 31 bits are nanoseconds (clamped at 2.1 s).
	writeBit = 1 << 31
)

// client is one closed-loop caller. Everything it touches while a window
// is open is allocated before the window.
type client struct {
	id        int
	next      int      // index of its next op
	samples   []uint32 // raw latencies, nanoseconds | writeBit
	attempted int
	failed    int
	firstErr  error
	tc        *clientTrace // nil in untraced rounds
}

// run drives the client's op stream against db until d has elapsed since
// start. Only a recording phase counts transactions and keeps samples.
// A failed transaction gets no latency sample.
func (c *client) run(w *workload, db *objectbase.DB, seed int64, start time.Time, d time.Duration, record bool) {
	now := time.Since(start)
	for now < d && len(c.samples) < cap(c.samples) {
		o := w.gen(seed, c.id, c.next, nil)
		c.next++
		t0 := time.Since(start)
		_, err := w.submit(db, &o)
		now = time.Since(start)
		if !record {
			continue
		}
		c.attempted++
		if err != nil {
			c.fail(err)
			continue
		}
		c.samples = append(c.samples, packSample(now-t0, !o.readOnly()))
	}
}

// runTraced is run with spans: op generation and the façade call are the
// two root spans of a transaction, and each starts at the timestamp the
// previous one ended on, so a client's root spans tile its wall clock.
func (c *client) runTraced(w *workload, db *objectbase.DB, seed int64, d time.Duration) {
	tc := c.tc
	now := tc.now()
	limit := now + int64(d)
	for now < limit && tc.room() {
		tc.txn = int32(c.next)
		s := tc.beginAt(spanOpgen, now)
		o := w.gen(seed, c.id, c.next, tc)
		c.next++
		now = tc.now()
		tc.endAt(s, now)
		s = tc.beginAt(w.route(&o), now)
		_, err := w.submit(db, &o)
		now = tc.now()
		tc.endAt(s, now)
		c.attempted++
		if err != nil {
			c.fail(err)
		}
	}
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func packSample(d time.Duration, write bool) uint32 {
	ns := uint32(min(int64(d), writeBit-1))
	if write {
		ns |= writeBit
	}
	return ns
}

// phase runs fn on every client concurrently and returns the wall time
// until the last one finished.
func phase(clients []*client, fn func(*client)) time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(c)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// latency is a round's percentiles with their support stated beside them.
type latency struct {
	P50Us      float64 `json:"p50_us"`
	P99Us      float64 `json:"p99_us"`
	P999Us     float64 `json:"p999_us"`
	Samples    int     `json:"samples"`
	BeyondP99  int     `json:"samples_beyond_p99"`
	BeyondP999 int     `json:"samples_beyond_p999"`
}

func latencyOf(ns []uint32) latency {
	slices.Sort(ns)
	return latency{
		P50Us:      float64(percentile(ns, 50)) / 1e3,
		P99Us:      float64(percentile(ns, 99)) / 1e3,
		P999Us:     float64(percentile(ns, 99.9)) / 1e3,
		Samples:    len(ns),
		BeyondP99:  samplesBeyond(len(ns), 99),
		BeyondP999: samplesBeyond(len(ns), 99.9),
	}
}

// roundResult is one round's measurements: a fresh DB, a warm-up, one
// measured window.
type roundResult struct {
	WindowS         float64          `json:"window_s"`
	Attempted       int              `json:"attempted"`
	Failed          int              `json:"failed"`
	CommitTPS       float64          `json:"commit_tps"`
	Txn             latency          `json:"txn"`
	Read            latency          `json:"read"`
	Write           latency          `json:"write"`
	AllocsPerTxn    float64          `json:"allocs_per_txn"`
	BytesPerTxn     float64          `json:"bytes_per_txn"`
	RetainedBPerTxn float64          `json:"retained_b_per_txn"`
	Stats           objectbase.Stats `json:"stats"`
	FirstError      string           `json:"first_error,omitempty"`
	Trace           *traceSummary    `json:"trace,omitempty"`
}

func (r *roundResult) commits() int { return r.Attempted - r.Failed }

// runRound opens a fresh DB, forces a GC, warms up and measures one
// window. Between the phases the clients are joined, so the
// Stats and MemStats snapshots bracket exactly the window's transactions.
// With traced set the window records spans and the returned buffers hold
// them; a traced round's timings are not end-to-end results.
func runRound(w *workload, seed int64, warm, window time.Duration, clients []*client, traced bool) (roundResult, []*clientTrace, error) {
	var res roundResult
	base := time.Now()
	db, err := w.open(objectbase.HistoryOff)
	if err != nil {
		return res, nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	defer db.Close()

	var traces []*clientTrace
	for _, c := range clients {
		*c = client{id: c.id, samples: c.samples[:0]}
		if traced {
			c.tc = newClientTrace(base, c.id, traceCap)
			traces = append(traces, c.tc)
		}
	}
	runtime.GC()
	start := time.Now()
	phase(clients, func(c *client) { c.run(w, db, seed, start, warm, false) })

	// The forced GC leaves HeapAlloc at the live heap, the base retention
	// is measured from.
	runtime.GC()
	for _, c := range clients {
		c.next = windowStart
	}
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	s0 := db.Stats()
	var elapsed time.Duration
	if traced {
		elapsed = phase(clients, func(c *client) { c.runTraced(w, db, seed, window) })
	} else {
		start = time.Now()
		elapsed = phase(clients, func(c *client) { c.run(w, db, seed, start, window, true) })
	}
	runtime.ReadMemStats(&m1)
	res.Stats = db.Stats().Sub(s0)
	runtime.GC()
	runtime.ReadMemStats(&m2)

	total := 0
	for _, c := range clients {
		total += len(c.samples)
	}
	all := make([]uint32, 0, total)
	var reads, writes []uint32
	for _, c := range clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.firstErr != nil && res.FirstError == "" {
			res.FirstError = c.firstErr.Error()
		}
		for _, s := range c.samples {
			all = append(all, s&^writeBit)
			if s&writeBit != 0 {
				writes = append(writes, s&^writeBit)
			} else {
				reads = append(reads, s)
			}
		}
	}
	commits := float64(res.commits())
	if commits == 0 {
		return res, traces, fmt.Errorf("%s: no transaction committed in the window (first error: %s)", w.name, res.FirstError)
	}
	res.WindowS = elapsed.Seconds()
	res.CommitTPS = commits / res.WindowS
	res.Txn, res.Read, res.Write = latencyOf(all), latencyOf(reads), latencyOf(writes)
	res.AllocsPerTxn = float64(m1.Mallocs-m0.Mallocs) / commits
	res.BytesPerTxn = float64(m1.TotalAlloc-m0.TotalAlloc) / commits
	res.RetainedBPerTxn = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / commits
	if traced {
		sum := summarise(traces)
		res.Trace = &sum
	}
	return res, traces, nil
}

// timeSetup opens and populates a throwaway DB and returns how long that
// took: one setup_s observation.
func timeSetup(w *workload) (float64, error) {
	t := time.Now()
	db, err := w.open(objectbase.HistoryOff)
	d := time.Since(t).Seconds()
	if err != nil {
		return d, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return d, db.Close()
}
