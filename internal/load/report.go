package load

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"objectbase"
)

// SchemaVersion identifies the report format. Consumers (CI artifact
// diffing, dashboards) should reject reports whose schema string they do
// not know; additive fields do not bump the version, renames and
// removals do.
const SchemaVersion = "objectbase/load-report/v1"

// Latency is the merged histogram's summary, in nanoseconds.
type Latency struct {
	P50  int64 `json:"p50"`
	P90  int64 `json:"p90"`
	P95  int64 `json:"p95"`
	P99  int64 `json:"p99"`
	Max  int64 `json:"max"`
	Mean int64 `json:"mean"`
}

// Counters mirrors objectbase.Stats with stable JSON names.
type Counters struct {
	Commits        int64 `json:"commits"`
	Aborts         int64 `json:"aborts"`
	Retries        int64 `json:"retries"`
	LockWaits      int64 `json:"lock_waits"`
	Deadlocks      int64 `json:"deadlocks"`
	CertValidated  int64 `json:"cert_validated"`
	CertRejected   int64 `json:"cert_rejected"`
	ViewCommits    int64 `json:"view_commits"`
	ViewFallbacks  int64 `json:"view_fallbacks"`
	SerialRestarts int64 `json:"serial_restarts,omitempty"`
	TwoPCRestarts  int64 `json:"twopc_restarts,omitempty"`
}

// PhaseStat is one phase's latency summary on a traced run, in
// nanoseconds. TotalNS is the phase's wall-clock sum across the run:
// the exclusive phases partition each attempt, so their totals
// reconcile with the latency histogram's sum.
type PhaseStat struct {
	Count   int64 `json:"count"`
	P50     int64 `json:"p50"`
	P99     int64 `json:"p99"`
	TotalNS int64 `json:"total_ns"`
}

// Result is one scenario × scheduler cell of the matrix.
type Result struct {
	Scenario  string `json:"scenario"`
	Scheduler string `json:"scheduler"`

	// Resolved knobs, echoed so a cell is self-describing.
	Clients      int     `json:"clients"`
	Txns         int     `json:"txns_per_client,omitempty"`
	DurationNS   int64   `json:"duration_ns,omitempty"`
	Keys         int     `json:"keys"`
	Theta        float64 `json:"theta"`
	ReadFraction float64 `json:"read_fraction"`
	Seed         int64   `json:"seed"`
	Mode         string  `json:"mode"`    // "closed" or "open"
	History      string  `json:"history"` // recording mode: "full" or "off"
	View         bool    `json:"view"`    // read-only txns routed through DB.View
	Shards       int     `json:"shards"`  // object-space partitions (1 = unsharded)
	Trace        bool    `json:"trace,omitempty"`
	TargetRate   float64 `json:"target_rate,omitempty"`

	// Measurements.
	Ops        int64            `json:"ops"`
	Errors     int64            `json:"errors"`
	ElapsedNS  int64            `json:"elapsed_ns"`
	Throughput float64          `json:"throughput_txn_per_sec"`
	Latency    Latency          `json:"latency_ns"`
	Counters   Counters         `json:"counters"`
	ByName     map[string]int64 `json:"ops_by_name,omitempty"`

	// Phases carries the per-phase latency summaries of a traced run
	// (Options.Trace); absent otherwise, and optional to every consumer,
	// so reports from before tracing diff cleanly. Spans and TraceEpoch
	// carry the raw flight-recorder contents for trace export — they are
	// deliberately not serialised (a traced cell can hold hundreds of
	// thousands of spans; the JSON report stays small).
	Phases     map[string]PhaseStat    `json:"phases,omitempty"`
	Spans      []objectbase.SpanRecord `json:"-"`
	TraceEpoch time.Time               `json:"-"`

	// Oracle outcome, present only when the run was sampled for
	// verification. Legal is the engine-invariant subset of the check:
	// false means the history itself is corrupt, which no scheduler
	// (including the "none" control) is allowed to produce.
	Verified *bool  `json:"verified,omitempty"`
	Legal    *bool  `json:"legal,omitempty"`
	Verdict  string `json:"verdict,omitempty"`
}

func newResult(sc *Scenario, scheduler string, k Knobs, rec *Recorder, elapsed time.Duration, st objectbase.Stats) *Result {
	mode := "closed"
	if k.Rate > 0 {
		mode = "open"
	}
	res := &Result{
		Scenario:     sc.Name,
		Scheduler:    scheduler,
		Clients:      k.Clients,
		Txns:         k.Txns,
		DurationNS:   int64(k.Duration),
		Keys:         k.Keys,
		Theta:        k.Theta,
		ReadFraction: k.ReadFraction,
		Seed:         k.Seed,
		Mode:         mode,
		View:         k.UseView,
		Shards:       k.Shards,
		TargetRate:   k.Rate,
		Ops:          rec.Ops,
		Errors:       rec.Errors,
		ElapsedNS:    int64(elapsed),
		Latency: Latency{
			P50:  int64(rec.Hist.Quantile(0.50)),
			P90:  int64(rec.Hist.Quantile(0.90)),
			P95:  int64(rec.Hist.Quantile(0.95)),
			P99:  int64(rec.Hist.Quantile(0.99)),
			Max:  int64(rec.Hist.Max()),
			Mean: int64(rec.Hist.Mean()),
		},
		Counters: Counters{
			Commits:        st.Commits,
			Aborts:         st.Aborts,
			Retries:        st.Retries,
			LockWaits:      st.LockWaits,
			Deadlocks:      st.Deadlocks,
			CertValidated:  st.CertValidated,
			CertRejected:   st.CertRejected,
			ViewCommits:    st.ViewCommits,
			ViewFallbacks:  st.ViewFallbacks,
			SerialRestarts: st.SerialRestarts,
			TwoPCRestarts:  st.TwoPCRestarts,
		},
		ByName: rec.ByName,
	}
	if elapsed > 0 {
		res.Throughput = float64(rec.Ops-rec.Errors) / elapsed.Seconds()
	}
	return res
}

// phaseStats folds a traced DB's registry snapshot into the report's
// phases block, dropping phases that never fired. The "phase_" metric
// prefix is stripped: the report speaks the phase taxonomy's names
// (admit, lock-wait, execute, ...).
func phaseStats(m objectbase.Metrics) map[string]PhaseStat {
	out := make(map[string]PhaseStat, len(m.Phases))
	for name, h := range m.Phases {
		if h.Count == 0 {
			continue
		}
		out[strings.TrimPrefix(name, "phase_")] = PhaseStat{
			Count:   int64(h.Count),
			P50:     int64(h.P50),
			P99:     int64(h.P99),
			TotalNS: int64(h.Sum),
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Report is the machine-readable bench output written as BENCH_load.json.
type Report struct {
	Schema      string   `json:"schema"`
	GeneratedAt string   `json:"generated_at,omitempty"` // RFC3339, filled by the CLI
	Results     []Result `json:"results"`
}

// NewReport returns an empty report carrying the current schema version.
func NewReport() *Report { return &Report{Schema: SchemaVersion} }

// Add upserts a cell, keeping the matrix sorted (scenario, then
// scheduler, then history mode, then view, then shard count) so reports
// diff cleanly across runs. A cell with the same knob key replaces the
// old one — re-running a configuration into an -append'ed report must
// refresh its cell, not stack a duplicate that the compare gate (which
// rejects duplicate keys) would choke on.
func (rp *Report) Add(r *Result) {
	key := r.CellKey()
	for i := range rp.Results {
		if rp.Results[i].CellKey() == key {
			rp.Results[i] = *r
			return
		}
	}
	rp.Results = append(rp.Results, *r)
	sort.SliceStable(rp.Results, func(i, j int) bool {
		if rp.Results[i].Scenario != rp.Results[j].Scenario {
			return rp.Results[i].Scenario < rp.Results[j].Scenario
		}
		if rp.Results[i].Scheduler != rp.Results[j].Scheduler {
			return rp.Results[i].Scheduler < rp.Results[j].Scheduler
		}
		if rp.Results[i].History != rp.Results[j].History {
			return rp.Results[i].History < rp.Results[j].History
		}
		if rp.Results[i].View != rp.Results[j].View {
			return !rp.Results[i].View
		}
		return rp.Results[i].Shards < rp.Results[j].Shards
	})
}

// WriteJSON writes the report, indented, with a trailing newline.
func (rp *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rp)
}

// ReadReport parses a report and rejects unknown schema versions.
func ReadReport(r io.Reader) (*Report, error) {
	var rp Report
	if err := json.NewDecoder(r).Decode(&rp); err != nil {
		return nil, fmt.Errorf("load: report: %w", err)
	}
	if rp.Schema != SchemaVersion {
		return nil, fmt.Errorf("load: report: unknown schema %q (want %q)", rp.Schema, SchemaVersion)
	}
	return &rp, nil
}

// Table writes the human-readable matrix. The lock-wait and publish
// columns come from the phases block of traced cells; untraced cells
// show "-".
func (rp *Report) Table(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SCENARIO\tSCHED\tMODE\tHIST\tVIEW\tSHARDS\tCLIENTS\tOPS\tERR\tTXN/S\tP50\tP95\tP99\tMAX\tLKW-P50\tLKW-P99\tPUB-P50\tPUB-P99\tRETRIES\tVERIFIED")
	for i := range rp.Results {
		r := &rp.Results[i]
		verified := "-"
		if r.Verified != nil {
			if *r.Verified {
				verified = "ok"
			} else {
				verified = "FAIL"
			}
		}
		hist := r.History
		if hist == "" {
			hist = "-"
		}
		view := "-"
		if r.View {
			view = "y"
		}
		shards := r.Shards
		if shards == 0 {
			shards = 1 // pre-sharding reports
		}
		phase := func(name string, q func(PhaseStat) int64) string {
			ps, ok := r.Phases[name]
			if !ok {
				return "-"
			}
			return fdur(q(ps))
		}
		p50 := func(ps PhaseStat) int64 { return ps.P50 }
		p99 := func(ps PhaseStat) int64 { return ps.P99 }
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%.0f\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%d\t%s\n",
			r.Scenario, r.Scheduler, r.Mode, hist, view, shards, r.Clients, r.Ops, r.Errors, r.Throughput,
			fdur(r.Latency.P50), fdur(r.Latency.P95), fdur(r.Latency.P99), fdur(r.Latency.Max),
			phase("lock-wait", p50), phase("lock-wait", p99), phase("publish", p50), phase("publish", p99),
			r.Counters.Retries, verified)
	}
	tw.Flush()
}

func fdur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
