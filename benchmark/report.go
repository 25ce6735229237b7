package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// maxFailedFrac is failed_frac's bound, +0.001 absolute: the workloads
// are chosen so that no transaction fails, and a run in which more than
// one in a thousand does (retries exhausted, or a hard error such as an
// unknown method failing every call) is not a measurement.
const maxFailedFrac = 0.001

// traceFileSpans caps the spans per client written to the trace file.
const traceFileSpans = 20000

type runConfig struct {
	seed    int64
	seconds float64
	traced  bool
	probes  *probeResult // nil unless traced
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the object the driver reads from the last line of
// standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// series is one end-to-end metric over a run's rounds. Unresolved marks
// a metric whose own round-to-round spread exceeds its bound: a
// comparison on it can show neither a regression nor its absence.
type series struct {
	Median     float64   `json:"median"`
	Q1         float64   `json:"q1"`
	Q3         float64   `json:"q3"`
	SpreadFrac float64   `json:"spread_frac"`
	Unresolved bool      `json:"unresolved"`
	Values     []float64 `json:"values"`
}

func newSeries(values []float64, bound float64) *series {
	q1, med, q3 := quartiles(values)
	s := &series{Median: med, Q1: q1, Q3: q3, SpreadFrac: spreadFrac(values), Values: values}
	s.Unresolved = s.SpreadFrac > bound
	return s
}

// report is everything one workload's run produced.
type report struct {
	Workload  string             `json:"workload"`
	Env       envStamp           `json:"env"`
	Correct   bool               `json:"correct"`
	Why       string             `json:"why_incorrect,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]*series `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Absent    []string           `json:"per_layer_absent,omitempty"`
	Warnings  []string           `json:"warnings,omitempty"`
	Rounds    []roundResult      `json:"rounds"`
	Traced    *roundResult       `json:"traced_round,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
	Verify    verifyResult       `json:"verified_pass"`
}

func (rep *report) incorrect(format string, args ...any) {
	if rep.Why == "" {
		rep.Why = fmt.Sprintf(format, args...)
	}
}

// runWorkload makes one run: the untraced rounds the end-to-end metrics
// come from, the extra set-ups, the verified pass, and — traced — one
// more round with spans plus the per-layer ledger.
func runWorkload(w *workload, cfg runConfig) *report {
	rep := &report{Workload: w.name, Env: stamp(cfg.seed), EndToEnd: map[string]*series{}}
	per := time.Duration(cfg.seconds / rounds * float64(time.Second))
	warm, window := per/4, per-per/4

	// Set-up is timed first, on a small clean heap: after the rounds the
	// collector is busy with their garbage and the timings scatter.
	cols := map[string][]float64{}
	runtime.GC()
	for i := 0; i < setupReps; i++ {
		s, err := timeSetup(w)
		if err != nil {
			rep.incorrect("%v", err)
			return rep
		}
		cols["setup_s"] = append(cols["setup_s"], s)
	}

	clients := make([]*client, numClients)
	for i := range clients {
		clients[i] = &client{id: i, samples: make([]uint32, 0, sampleCap)}
	}
	for r := 0; r < rounds; r++ {
		res, _, err := runRound(w, cfg.seed, warm, window, clients, false)
		if err != nil {
			rep.incorrect("%v", err)
			return rep
		}
		rep.Rounds = append(rep.Rounds, res)
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		cols["commit_tps"] = append(cols["commit_tps"], res.CommitTPS)
		cols["txn_p50_us"] = append(cols["txn_p50_us"], res.Txn.P50Us)
		cols["txn_p999_us"] = append(cols["txn_p999_us"], res.Txn.P999Us)
		cols["allocs_per_txn"] = append(cols["allocs_per_txn"], res.AllocsPerTxn)
	}
	for _, m := range endToEnd {
		rep.EndToEnd[m.Name] = newSeries(cols[m.Name], *m.Bound)
	}

	rep.Verify = verifiedPass(w, cfg.seed)
	if !rep.Verify.ok() {
		rep.incorrect("verified pass: serialisable=%v invariant_ok=%v (%s) failed=%d %s",
			rep.Verify.Serialisable, rep.Verify.InvariantOK, rep.Verify.Invariant, rep.Verify.Failed, rep.Verify.Error)
	}
	if frac := float64(rep.Failed) / float64(rep.Attempted); frac > maxFailedFrac {
		rep.incorrect("failed_frac %.4f over %.3f in the measured rounds; first error: %s", frac, maxFailedFrac, firstError(rep.Rounds))
	}

	if cfg.traced {
		res, traces, err := runRound(w, cfg.seed, warm, window, clients, true)
		if err != nil {
			rep.incorrect("traced round: %v", err)
			return rep
		}
		rep.Traced = &res
		rep.TraceFile = filepath.Join(outDir, "trace-"+w.name+".json")
		if err := writeTrace(rep.TraceFile, traces, traceFileSpans); err != nil {
			rep.incorrect("writing trace: %v", err)
		}
		if res.Trace.ReconcileFrac > 0.02 {
			rep.incorrect("traced self times miss the traced mean transaction time by %.1f%% (%d spans dropped)",
				100*res.Trace.ReconcileFrac, res.Trace.Dropped)
		}
		rep.ledger(w, cfg)
	}
	rep.Correct = rep.Why == ""
	return rep
}

func firstError(rs []roundResult) string {
	for _, r := range rs {
		if r.FirstError != "" {
			return r.FirstError
		}
	}
	return ""
}

// ledger fills the per-layer metrics: medians over the untraced rounds
// for the Stats- and MemStats-derived lines, the traced round's self
// times and counts, the verified pass's oracle cost, the probes' numbers,
// and the instrument's own cost and noise.
func (rep *report) ledger(w *workload, cfg runConfig) {
	pl := map[string]float64{}
	rep.PerLayer = pl
	med := func(f func(*roundResult) float64) float64 {
		vs := make([]float64, len(rep.Rounds))
		for i := range rep.Rounds {
			vs[i] = f(&rep.Rounds[i])
		}
		return median(vs)
	}
	perCommit := func(n func(*roundResult) int64) float64 {
		return med(func(r *roundResult) float64 { return float64(n(r)) / float64(r.commits()) })
	}
	pl["facade.txn_p99_us"] = med(func(r *roundResult) float64 { return r.Txn.P99Us })
	pl["facade.read_p50_us"] = med(func(r *roundResult) float64 { return r.Read.P50Us })
	pl["facade.read_p99_us"] = med(func(r *roundResult) float64 { return r.Read.P99Us })
	pl["facade.write_p50_us"] = med(func(r *roundResult) float64 { return r.Write.P50Us })
	pl["facade.write_p99_us"] = med(func(r *roundResult) float64 { return r.Write.P99Us })
	pl["facade.retained_b_per_txn"] = med(func(r *roundResult) float64 { return r.RetainedBPerTxn })
	pl["facade.bytes_per_txn"] = med(func(r *roundResult) float64 { return r.BytesPerTxn })
	pl["facade.retries_per_commit"] = perCommit(func(r *roundResult) int64 { return r.Stats.Retries })
	pl["facade.aborts_per_commit"] = perCommit(func(r *roundResult) int64 { return r.Stats.Aborts })
	pl["facade.failed_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	pl["engine.serial_restarts_per_commit"] = perCommit(func(r *roundResult) int64 { return r.Stats.SerialRestarts })
	pl["engine.twopc_restarts_per_commit"] = perCommit(func(r *roundResult) int64 { return r.Stats.TwoPCRestarts })
	pl["engine.view_fallback_frac"] = med(func(r *roundResult) float64 {
		if r.Stats.ViewCommits == 0 {
			return 0
		}
		return float64(r.Stats.ViewFallbacks) / float64(r.Stats.ViewCommits)
	})
	pl["cc.cert_reject_frac"] = med(func(r *roundResult) float64 {
		if n := r.Stats.CertValidated + r.Stats.CertRejected; n > 0 {
			return float64(r.Stats.CertRejected) / float64(n)
		}
		return 0
	})
	pl["lock.waits_per_commit"] = perCommit(func(r *roundResult) int64 { return r.Stats.LockWaits })
	pl["lock.deadlocks_per_commit"] = perCommit(func(r *roundResult) int64 { return r.Stats.Deadlocks })

	tr := rep.Traced.Trace
	pl["facade.envelope_us_per_txn"] = tr.EnvelopeUs
	pl["engine.body_self_us_per_txn"] = tr.BodySelfUs
	pl["engine.call_self_us_per_txn"] = tr.CallSelfUs
	pl["engine.step_us_per_txn"] = tr.StepUs
	pl["engine.step_p50_us"] = tr.StepP50Us
	pl["engine.step_p99_us"] = tr.StepP99Us
	pl["engine.steps_per_txn"] = tr.StepsPerTxn
	pl["engine.calls_per_txn"] = tr.CallsPerTxn
	pl["engine.attempts_per_txn"] = tr.AttemptsPer
	pl["bench.opgen_us_per_txn"] = tr.OpgenUs
	pl["bench.trace_overhead_frac"] = 1 - rep.Traced.CommitTPS/rep.EndToEnd["commit_tps"].Median
	pl["bench.round_spread_frac"] = rep.EndToEnd["commit_tps"].SpreadFrac
	pl["bench.timer_ns"] = timerNs()
	pl["graph.verify_us_per_txn"] = rep.Verify.VerifyS * 1e6 / float64(rep.Verify.Txns)

	if cfg.probes != nil {
		rep.Warnings = append(rep.Warnings, cfg.probes.Warnings...)
		for k, v := range cfg.probes.Metrics {
			pl[k] = v
		}
		if cfg.probes.Placement != nil {
			pl["shard.xshard_frac"] = xshardFrac(w, cfg.seed, cfg.probes.Placement)
		}
	}
	for _, m := range perLayer {
		if _, ok := pl[m.Name]; !ok {
			rep.Absent = append(rep.Absent, m.Name)
		}
	}
	if len(rep.Absent) > 0 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("%d per-layer metrics absent (layer probes did not produce them): %v", len(rep.Absent), rep.Absent))
	}
}

// xshardPrefix is how many ops of each client's stream, from the start
// of the window, xshardFrac examines: a fixed piece, so the value repeats
// exactly for a seed.
const xshardPrefix = 100000

// xshardFrac is the share of declared object sets that span more than
// one shard under the directory's placement of the accounts; 0 on
// workloads that declare nothing.
func xshardFrac(w *workload, seed int64, placement map[string]int) float64 {
	if !w.declared {
		return 0
	}
	cross := 0
	for c := 0; c < numClients; c++ {
		for i := 0; i < xshardPrefix; i++ {
			o := w.gen(seed, c, windowStart+i, nil)
			if o.code == opTransfer && placement[acctNames[o.k1]] != placement[acctNames[o.k2]] {
				cross++
			}
		}
	}
	return float64(cross) / float64(numClients*xshardPrefix)
}

var timerSink time.Duration // keeps timerNs's loop from being optimised away

// timerNs is the cost of one timestamp as the client loop takes it (two
// per transaction untraced, two per span traced).
func timerNs() float64 {
	const n = 1 << 20
	start := time.Now()
	for i := 0; i < n; i++ {
		timerSink += time.Since(start)
	}
	return float64(time.Since(start)) / n
}

// resultLine is the run in the driver's vocabulary: the end-to-end
// metrics untraced, the per-layer metrics traced.
func (rep *report) resultLine(traced bool) resultLine {
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, m := range perLayer {
			if v, ok := rep.PerLayer[m.Name]; ok {
				line.Metrics[m.Name] = metricValue{v, m.Unit}
			}
		}
		return line
	}
	for _, m := range endToEnd {
		if s := rep.EndToEnd[m.Name]; s != nil {
			line.Metrics[m.Name] = metricValue{s.Median, m.Unit}
		}
	}
	return line
}

func (rep *report) write(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// printTable prints every metric by name with its unit.
func (rep *report) printTable(out io.Writer) {
	fmt.Fprintf(out, "\n== %s (seed %d, GOMAXPROCS %d, %s)\n", rep.Workload, rep.Env.Seed, rep.Env.GOMAXPROCS, rep.Env.GoVersion)
	for _, m := range endToEnd {
		s := rep.EndToEnd[m.Name]
		if s == nil {
			continue
		}
		note := ""
		if s.Unresolved {
			note = fmt.Sprintf("  UNRESOLVED: round spread over the %.0f%% bound", 100**m.Bound)
		}
		fmt.Fprintf(out, "  %-34s %14.6g %-10s [q1 %.6g, q3 %.6g, spread %.1f%%, n=%d]%s\n",
			m.Name, s.Median, m.Unit, s.Q1, s.Q3, 100*s.SpreadFrac, len(s.Values), note)
	}
	if n := len(rep.Rounds); n > 0 {
		r := rep.Rounds[n/2]
		fmt.Fprintf(out, "  percentile support per round: %d samples, %d beyond p99, %d beyond p99.9\n", r.Txn.Samples, r.Txn.BeyondP99, r.Txn.BeyondP999)
	}
	fmt.Fprintf(out, "  %-34s %14.6g %-10s (%d failed of %d attempted)\n", "failed_frac",
		float64(rep.Failed)/float64(max(rep.Attempted, 1)), "frac", rep.Failed, rep.Attempted)
	for _, m := range perLayer {
		if v, ok := rep.PerLayer[m.Name]; ok {
			fmt.Fprintf(out, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	if t := rep.Traced; t != nil {
		fmt.Fprintf(out, "  traced round: %d txns, mean %.3f us, self times reconcile to %.3f%%; spans in %s\n",
			t.Trace.Txns, t.Trace.MeanTxnUs, 100*t.Trace.ReconcileFrac, rep.TraceFile)
	}
	fmt.Fprintf(out, "  verified pass: %d txns, serialisable=%v, %s\n", rep.Verify.Txns, rep.Verify.Serialisable, rep.Verify.Invariant)
	for _, w := range rep.Warnings {
		fmt.Fprintf(out, "  warning: %s\n", w)
	}
	if !rep.Correct {
		fmt.Fprintf(out, "  INCORRECT: %s\n", rep.Why)
	}
}
