package load

import (
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// Comparing two load reports: the benchmark-regression gate.
//
// Two cells are comparable when every knob that shapes the workload
// matches — scenario, scheduler, history mode, view routing, shard
// count, loop mode, clients, transaction count/duration, key space,
// skew, read fraction, target rate and seed. Throughput of matched head
// cells is then checked against the base: a drop beyond the threshold
// fraction is a regression. Cells present on only one side are reported
// but not fatal (matrices legitimately grow); zero matched cells is an
// error, because a gate that compares nothing passes vacuously.

// CellKey identifies one comparable cell of the matrix. The trace flag
// is part of the key only when set: enabled tracing costs throughput,
// so a traced cell must never gate against an untraced baseline — and
// keeping the flag out of untraced keys lets reports from before
// tracing (no "trace" field, and no "phases" block; both optional)
// compare cleanly against today's untraced cells.
func (r *Result) CellKey() string {
	shards := r.Shards
	if shards == 0 {
		shards = 1 // reports written before the shards field
	}
	trace := ""
	if r.Trace {
		trace = " trace=true"
	}
	return fmt.Sprintf("%s×%s hist=%s view=%t shards=%d%s %s c=%d t=%d d=%d k=%d θ=%g rf=%g rate=%g seed=%d",
		r.Scenario, r.Scheduler, r.History, r.View, shards, trace, r.Mode,
		r.Clients, r.Txns, r.DurationNS, r.Keys, r.Theta, r.ReadFraction, r.TargetRate, r.Seed)
}

// CellDelta is one matched cell's throughput comparison.
type CellDelta struct {
	Key       string
	Base      float64 // base throughput, txn/s
	Head      float64 // head throughput, txn/s
	Ratio     float64 // head / base
	Regressed bool    // head < base × (1 − threshold)
}

// Comparison is the outcome of comparing two reports.
type Comparison struct {
	Threshold float64
	Cells     []CellDelta // matched cells, worst ratio first
	BaseOnly  []string    // cell keys present only in the base report
	HeadOnly  []string    // cell keys present only in the head report
}

// Regressions returns the matched cells that regressed.
func (c *Comparison) Regressions() []CellDelta {
	var out []CellDelta
	for _, d := range c.Cells {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// Compare diffs head against base, flagging any matched cell whose
// throughput dropped by more than threshold (a fraction: 0.30 means a
// 30% drop fails). Duplicate cell keys within one report and an empty
// intersection are errors — both would let a broken gate pass silently.
func Compare(base, head *Report, threshold float64) (*Comparison, error) {
	if threshold <= 0 || threshold >= 1 {
		return nil, fmt.Errorf("load: compare: threshold %v out of range (0, 1)", threshold)
	}
	index := func(rp *Report, which string) (map[string]*Result, error) {
		m := make(map[string]*Result, len(rp.Results))
		for i := range rp.Results {
			r := &rp.Results[i]
			key := r.CellKey()
			if _, dup := m[key]; dup {
				return nil, fmt.Errorf("load: compare: duplicate cell in %s report: %s", which, key)
			}
			m[key] = r
		}
		return m, nil
	}
	baseIdx, err := index(base, "base")
	if err != nil {
		return nil, err
	}
	headIdx, err := index(head, "head")
	if err != nil {
		return nil, err
	}

	cmp := &Comparison{Threshold: threshold}
	for key, b := range baseIdx {
		h, ok := headIdx[key]
		if !ok {
			cmp.BaseOnly = append(cmp.BaseOnly, key)
			continue
		}
		d := CellDelta{Key: key, Base: b.Throughput, Head: h.Throughput}
		if b.Throughput > 0 {
			d.Ratio = h.Throughput / b.Throughput
			d.Regressed = d.Ratio < 1-threshold
		} else {
			d.Ratio = 1 // nothing measured to regress from
		}
		cmp.Cells = append(cmp.Cells, d)
	}
	for key := range headIdx {
		if _, ok := baseIdx[key]; !ok {
			cmp.HeadOnly = append(cmp.HeadOnly, key)
		}
	}
	if len(cmp.Cells) == 0 {
		return nil, fmt.Errorf("load: compare: no comparable cells (base has %d, head has %d; knobs must match exactly)",
			len(base.Results), len(head.Results))
	}
	sort.Slice(cmp.Cells, func(i, j int) bool { return cmp.Cells[i].Ratio < cmp.Cells[j].Ratio })
	sort.Strings(cmp.BaseOnly)
	sort.Strings(cmp.HeadOnly)
	return cmp, nil
}

// Table writes the human-readable comparison, worst cells first.
func (c *Comparison) Table(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "CELL\tBASE TXN/S\tHEAD TXN/S\tRATIO\tSTATUS")
	for _, d := range c.Cells {
		status := "ok"
		if d.Regressed {
			status = fmt.Sprintf("REGRESSED (>%0.f%% drop)", c.Threshold*100)
		}
		fmt.Fprintf(tw, "%s\t%.0f\t%.0f\t%.2f\t%s\n", d.Key, d.Base, d.Head, d.Ratio, status)
	}
	tw.Flush()
	if len(c.BaseOnly) > 0 {
		fmt.Fprintf(w, "%d cell(s) only in base (not compared)\n", len(c.BaseOnly))
	}
	if len(c.HeadOnly) > 0 {
		fmt.Fprintf(w, "%d cell(s) only in head (not compared)\n", len(c.HeadOnly))
	}
}
