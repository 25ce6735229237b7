package hts

import (
	"math/rand"
	"testing"
	"testing/quick"

	"objectbase/internal/core"
	"objectbase/internal/objects"
)

func regStep(op, v string, x int64) core.StepInfo {
	if op == "Read" {
		return core.StepInfo{Op: "Read", Args: []core.Value{v}}
	}
	return core.StepInfo{Op: "Write", Args: []core.Value{v, x}}
}

func TestIssueTableRule1Conservative(t *testing.T) {
	tbl := NewIssueTable()
	rel := objects.Register().Conflicts
	t0 := core.RootID(0)
	t1 := core.RootID(1)
	t2 := core.RootID(2)

	if !tbl.TryIssue("A", rel, false, regStep("Write", "x", 1), t1) {
		t.Fatalf("empty table must admit")
	}
	// Older incomparable conflicting issue: rejected.
	if tbl.TryIssue("A", rel, false, regStep("Read", "x", 0), t0) {
		t.Fatalf("rule 1: older timestamp reading a newer write must be rejected")
	}
	// Newer one admitted.
	if !tbl.TryIssue("A", rel, false, regStep("Read", "x", 0), t2) {
		t.Fatalf("newer timestamp must pass")
	}
	// Non-conflicting ops pass regardless of timestamps: two Reads (in a
	// fresh scope without the write).
	if !tbl.TryIssue("B", rel, false, regStep("Read", "x", 0), t2) {
		t.Fatalf("setup read")
	}
	if !tbl.TryIssue("B", rel, false, regStep("Read", "x", 0), t0) {
		t.Fatalf("read/read must not be ordered by rule 1 (reads commute)")
	}
	// Descendant of the recorded writer is comparable: admitted.
	c := t1.Child(0)
	if !tbl.TryIssue("A", rel, false, regStep("Read", "x", 0), c) {
		t.Fatalf("descendant of issuer must pass (comparable executions)")
	}
}

func TestIssueTableExactGranularity(t *testing.T) {
	tbl := NewIssueTable()
	rel := objects.Queue().Conflicts
	old := core.RootID(0)
	young := core.RootID(5)

	// A young transaction enqueued 42.
	enq := core.StepInfo{Op: "Enqueue", Args: []core.Value{int64(42)}}
	if !tbl.TryIssue("Q", rel, true, enq, young) {
		t.Fatalf("enqueue must be admitted")
	}
	// An older transaction's dequeue that would return a different item
	// does not conflict at step granularity: admitted despite rule 1.
	deqMiss := core.StepInfo{Op: "Dequeue", Ret: int64(7)}
	if !tbl.TryIssue("Q", rel, true, deqMiss, old) {
		t.Fatalf("non-conflicting dequeue must pass in exact mode")
	}
	// But the same situation at operation granularity is rejected.
	tbl2 := NewIssueTable()
	if !tbl2.TryIssue("Q", rel, false, enq, young) {
		t.Fatalf("setup")
	}
	if tbl2.TryIssue("Q", rel, false, deqMiss, old) {
		t.Fatalf("conservative mode must reject the older dequeue")
	}
	// An older dequeue returning the enqueued item is rejected even in
	// exact mode.
	deqHit := core.StepInfo{Op: "Dequeue", Ret: int64(42)}
	if tbl.TryIssue("Q", rel, true, deqHit, old) {
		t.Fatalf("dequeue of the young enqueue's item must be rejected")
	}
}

func TestIssueTablePrune(t *testing.T) {
	tbl := NewIssueTable()
	rel := objects.Register().Conflicts
	tbl.TryIssue("A", rel, true, regStep("Write", "x", 1), core.RootID(0))
	tbl.TryIssue("B", rel, true, regStep("Write", "y", 1), core.RootID(1))
	tbl.TryIssue("A", rel, true, regStep("Write", "x", 2), core.RootID(5))
	if tbl.Size() != 3 {
		t.Fatalf("size = %d", tbl.Size())
	}
	tbl.Prune(core.RootID(3))
	if tbl.Size() != 1 {
		t.Fatalf("after prune size = %d, want 1", tbl.Size())
	}
	// The surviving entry still enforces rule 1.
	if tbl.TryIssue("A", rel, true, regStep("Read", "x", 0), core.RootID(4)) {
		t.Fatalf("entry above low water must still reject")
	}
	if !tbl.TryIssue("A", rel, true, regStep("Read", "x", 0), core.RootID(6)) {
		t.Fatalf("newer timestamp must pass after prune")
	}
}

func TestIssueTableConservativeCompaction(t *testing.T) {
	tbl := NewIssueTable()
	rel := objects.Register().Conflicts
	top := core.RootID(0)
	// The same lineage re-issues the same operation class repeatedly: the
	// table keeps roughly one entry (max per operation), like the paper's
	// hts(a) summary.
	ts := top
	for i := 0; i < 10; i++ {
		ts = ts.Child(0)
		if !tbl.TryIssue("A", rel, false, regStep("Write", "x", int64(i)), ts) {
			t.Fatalf("descendant issue %d rejected", i)
		}
	}
	if tbl.Size() != 1 {
		t.Fatalf("conservative compaction failed: size = %d, want 1", tbl.Size())
	}
}

// Property: within one scope, the admitted steps, restricted to pairs of
// incomparable issuers whose steps conflict (in admission order), are in
// increasing timestamp order — exactly NTO rule 1.
func TestIssueTableRule1Property(t *testing.T) {
	rel := objects.Register().Conflicts
	r := rand.New(rand.NewSource(99))
	f := func() bool {
		tbl := NewIssueTable()
		type adm struct {
			step core.StepInfo
			ts   HTS
		}
		var admitted []adm
		for i := 0; i < 25; i++ {
			ts := randomTS(r)
			var step core.StepInfo
			if r.Intn(2) == 0 {
				step = regStep("Read", "x", 0)
			} else {
				step = regStep("Write", "x", int64(r.Intn(5)))
			}
			if tbl.TryIssue("s", rel, false, step, ts) {
				admitted = append(admitted, adm{step, ts})
			}
		}
		for i := 0; i < len(admitted); i++ {
			for j := i + 1; j < len(admitted); j++ {
				a, b := admitted[i], admitted[j]
				if a.ts.Comparable(b.ts) {
					continue
				}
				if !rel.OpConflicts(a.step.Invocation(), b.step.Invocation()) {
					continue
				}
				if b.ts.Compare(a.ts) < 0 {
					t.Logf("admitted %v(%v) before larger-incomparable %v(%v)", a.step, a.ts, b.step, b.ts)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func randomTS(r *rand.Rand) HTS {
	depth := 1 + r.Intn(3)
	ts := make(core.ExecID, depth)
	for i := range ts {
		ts[i] = int32(r.Intn(4))
	}
	return ts
}
