package load

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

func cell(scenario, sched string, shards int, tput float64) *Result {
	return &Result{
		Scenario: scenario, Scheduler: sched, History: "off", Shards: shards,
		Clients: 16, Txns: 150, Keys: 64, Mode: "closed", Seed: 42,
		Throughput: tput,
	}
}

func reportWith(cells ...*Result) *Report {
	rp := NewReport()
	for _, c := range cells {
		rp.Add(c)
	}
	return rp
}

// TestComparePass: head within the threshold (including improvements)
// passes with zero regressions.
func TestComparePass(t *testing.T) {
	base := reportWith(cell("bank", "n2pl-op", 1, 100_000), cell("bank", "n2pl-op", 8, 150_000))
	head := reportWith(cell("bank", "n2pl-op", 1, 80_000), cell("bank", "n2pl-op", 8, 200_000))
	cmp, err := Compare(base, head, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if regs := cmp.Regressions(); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}
	if len(cmp.Cells) != 2 {
		t.Fatalf("matched %d cells, want 2", len(cmp.Cells))
	}
	// The table must render without panicking and mention both cells.
	var buf bytes.Buffer
	cmp.Table(&buf)
	if n := strings.Count(buf.String(), "bank×n2pl-op"); n != 2 {
		t.Fatalf("table mentions bank cells %d times, want 2:\n%s", n, buf.String())
	}
}

// TestCompareRegressionFails: a drop beyond the threshold is flagged, and
// only in the cell that dropped.
func TestCompareRegressionFails(t *testing.T) {
	base := reportWith(cell("bank", "n2pl-op", 1, 100_000), cell("hotspot-counter", "n2pl-op", 8, 200_000))
	head := reportWith(cell("bank", "n2pl-op", 1, 65_000), cell("hotspot-counter", "n2pl-op", 8, 190_000))
	cmp, err := Compare(base, head, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	regs := cmp.Regressions()
	if len(regs) != 1 {
		t.Fatalf("got %d regressions, want 1: %+v", len(regs), regs)
	}
	if !strings.Contains(regs[0].Key, "bank") {
		t.Fatalf("wrong cell flagged: %s", regs[0].Key)
	}
	if regs[0].Ratio >= 0.70 {
		t.Fatalf("ratio = %v, want < 0.70", regs[0].Ratio)
	}
	// Exactly at the threshold boundary (drop == threshold) must pass:
	// the gate fires on *more than* the allowed drop.
	head2 := reportWith(cell("bank", "n2pl-op", 1, 70_000), cell("hotspot-counter", "n2pl-op", 8, 200_000))
	cmp2, err := Compare(base, head2, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if regs := cmp2.Regressions(); len(regs) != 0 {
		t.Fatalf("boundary drop flagged as regression: %+v", regs)
	}
}

// TestCompareSchemaMismatch: a report with an unknown schema version is
// rejected at read time — the gate never diffs apples against oranges.
func TestCompareSchemaMismatch(t *testing.T) {
	raw := `{"schema": "objectbase/load-report/v0", "results": []}`
	if _, err := ReadReport(strings.NewReader(raw)); err == nil {
		t.Fatal("ReadReport accepted an unknown schema")
	} else if !strings.Contains(err.Error(), "unknown schema") {
		t.Fatalf("unhelpful schema error: %v", err)
	}
}

// TestCompareNoOverlap: comparing reports with disjoint knobs (e.g. a
// quick CI run against a full-scale committed baseline) is an error, not
// a vacuous pass.
func TestCompareNoOverlap(t *testing.T) {
	base := reportWith(cell("bank", "n2pl-op", 1, 100_000))
	headCell := cell("bank", "n2pl-op", 1, 100_000)
	headCell.Clients = 4 // different knob -> different cell key
	head := reportWith(headCell)
	if _, err := Compare(base, head, 0.30); err == nil {
		t.Fatal("Compare passed with zero comparable cells")
	}
}

// TestCompareMismatchedKnobCells: cells that differ only in shard count
// do not match each other.
func TestCompareMismatchedKnobCells(t *testing.T) {
	base := reportWith(cell("bank", "n2pl-op", 1, 100_000), cell("bank", "n2pl-op", 8, 100_000))
	head := reportWith(cell("bank", "n2pl-op", 1, 100_000), cell("bank", "n2pl-op", 8, 10_000))
	cmp, err := Compare(base, head, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	regs := cmp.Regressions()
	if len(regs) != 1 || !strings.Contains(regs[0].Key, "shards=8") {
		t.Fatalf("want exactly the shards=8 cell to regress, got %+v", regs)
	}
}

// TestCompareGateFailsOnInjectedRegression is the end-to-end
// demonstration the CI gate relies on: take the committed
// BENCH_load.json, halve every throughput, and check the gate trips.
func TestCompareGateFailsOnInjectedRegression(t *testing.T) {
	f, err := os.Open("../../BENCH_load.json")
	if err != nil {
		t.Skipf("no committed BENCH_load.json: %v", err)
	}
	defer f.Close()
	base, err := ReadReport(f)
	if err != nil {
		t.Fatalf("committed BENCH_load.json unreadable: %v", err)
	}
	// Round-trip through JSON so the injected head is a genuinely
	// independent report, then halve throughput.
	buf, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	head, err := ReadReport(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	for i := range head.Results {
		head.Results[i].Throughput /= 2
	}
	cmp, err := Compare(base, head, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Regressions()) != len(cmp.Cells) {
		t.Fatalf("injected 2× regression flagged in %d/%d cells", len(cmp.Regressions()), len(cmp.Cells))
	}
	// And the identity comparison passes.
	same, err := Compare(base, base, 0.30)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Regressions()) != 0 {
		t.Fatalf("identity comparison regressed: %+v", same.Regressions())
	}
}
