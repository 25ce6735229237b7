package core

import (
	"math/rand"
	"sort"
	"testing"
)

// visited returns the sorted (top, op) pairs Scan visits.
func visited(l *AccessLog[int32], scope string, rel ConflictRelation, top int32, op string) []string {
	var out []string
	l.Scan(scope, rel, top, op, func(a *Access[int32]) bool {
		out = append(out, FormatValue(int64(a.Owner))+a.Step.Op)
		return true
	})
	sort.Strings(out)
	return out
}

func TestAccessLogFilterCoalesceDrop(t *testing.T) {
	rel := RWTable([]string{"Read"}, []string{"Write"}, SingleKey)
	var l AccessLog[int32]
	var f1, f2, f3 Footprint[int32]
	rd := StepInfo{Op: "Read", Args: []Value{"x"}, Ret: int64(0)}
	wr := StepInfo{Op: "Write", Args: []Value{"x", int64(1)}}
	l.Add("s", &f1, 1, rd)
	l.Add("s", &f1, 1, rd) // identical: coalesced
	l.Add("s", &f1, 1, StepInfo{Op: "Read", Args: []Value{"x"}, Ret: int64(7)})
	l.Add("s", &f2, 2, wr)
	l.Add("s", &f3, 3, rd)
	l.Add("t", &f3, 3, wr)
	if l.Len() != 5 || l.Scopes() != 2 {
		t.Fatalf("len=%d scopes=%d, want 5 and 2", l.Len(), l.Scopes())
	}
	// A bucket that appears later joins the cached admissions.
	if got := visited(&l, "t", rel, 9, "Read"); len(got) != 1 {
		t.Errorf("Read on t visits %v, want T3's Write", got)
	}
	var f4 Footprint[int32]
	l.Add("t", &f4, 4, rd)
	if got := visited(&l, "t", rel, 9, "Write"); len(got) != 2 {
		t.Errorf("Write on t visits %v, want the Write and the new Read", got)
	}
	l.Drop(&f4)
	// A Read tests only Writes (Read/Read is absent from the table); a
	// Write tests everything; a transaction never sees itself.
	if got := visited(&l, "s", rel, 9, "Read"); len(got) != 1 || got[0] != "2Write" {
		t.Errorf("Read visits %v, want [2Write]", got)
	}
	if got := visited(&l, "s", rel, 2, "Write"); len(got) != 3 {
		t.Errorf("Write by T2 visits %v, want T1's two Reads and T3's one", got)
	}
	// Early stop.
	n := 0
	if l.Scan("s", rel, 2, "Write", func(*Access[int32]) bool { n++; return false }) || n != 1 {
		t.Errorf("Scan did not stop at the first refusal (visited %d)", n)
	}
	// An opaque relation (on a scope of its own: a scope has one relation)
	// skips nothing.
	l.Add("o", &f1, 1, rd)
	l.Add("o", &f2, 2, wr)
	if got := visited(&l, "o", TotalConflict{}, 9, "Read"); len(got) != 2 {
		t.Errorf("opaque relation visits %v, want both", got)
	}
	l.Drop(&f1)
	l.Drop(&f1) // emptied footprint: no-op
	if got := visited(&l, "s", rel, 9, "Write"); len(got) != 2 {
		t.Errorf("after dropping T1, Write visits %v, want [2Write 3Read]", got)
	}
	l.Drop(&f3)
	l.Drop(&f2)
	if l.Len() != 0 || l.Scopes() != 0 {
		t.Fatalf("after dropping everything len=%d scopes=%d", l.Len(), l.Scopes())
	}
}

// TestAccessLogSweepsIdleScopes: keyed scopes that come and go are kept
// warm only up to a bound.
func TestAccessLogSweepsIdleScopes(t *testing.T) {
	var l AccessLog[int32]
	var busy, f Footprint[int32]
	l.Add("hot", &busy, 1, StepInfo{Op: "A"})
	for i := 0; i < 1000; i++ {
		l.Add("key"+FormatValue(int64(i)), &f, 2, StepInfo{Op: "A"})
		l.Drop(&f)
		if l.Scopes() != 1 || len(l.scopes) > 130 {
			t.Fatalf("after %d transient scopes: %d busy, %d kept", i+1, l.Scopes(), len(l.scopes))
		}
	}
	if got := visited(&l, "hot", TotalConflict{}, 9, "A"); len(got) != 1 {
		t.Errorf("the busy scope was swept: %v", got)
	}
}

// asymRel admits only a-then-b, so the either flag is observable.
type asymRel struct{ TotalConflict }

func (asymRel) OpsMayConflict(a, b string) bool { return a == "a" && b == "b" }

func TestAccessLogEitherOrder(t *testing.T) {
	for _, either := range []bool{false, true} {
		l := AccessLog[int32]{Either: either}
		var f Footprint[int32]
		l.Add("s", &f, 1, StepInfo{Op: "b"})
		if got := visited(&l, "s", asymRel{}, 2, "a"); (len(got) == 1) != either {
			t.Errorf("Either=%v: scan for a after b visits %v", either, got)
		}
	}
}

// TestAccessLogMatchesNaive drives random adds and drops against a flat
// list and compares what an opaque scan sees; it also pins that a warm log
// allocates nothing.
func TestAccessLogMatchesNaive(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var l AccessLog[int32]
	fps := make([]Footprint[int32], 8)
	type flat struct {
		scope string
		top   int32
		st    StepInfo
	}
	var naive []flat
	scopes := []string{"p", "q", "r"}
	ops := []string{"A", "B", "C"}
	for i := 0; i < 5000; i++ {
		top := int32(r.Intn(len(fps)))
		if r.Intn(6) == 0 {
			l.Drop(&fps[top])
			keep := naive[:0]
			for _, f := range naive {
				if f.top != top {
					keep = append(keep, f)
				}
			}
			naive = keep
		} else {
			f := flat{scopes[r.Intn(3)], top, StepInfo{Op: ops[r.Intn(3)], Args: []Value{int64(r.Intn(3))}}}
			dup := false
			for _, g := range naive {
				dup = dup || g.scope == f.scope && g.top == f.top && g.st.Op == f.st.Op && ValueEqual(g.st.Args, f.st.Args)
			}
			if !dup {
				naive = append(naive, f)
			}
			l.Add(f.scope, &fps[top], top, f.st)
		}
		if l.Len() != len(naive) {
			t.Fatalf("step %d: len %d, naive %d", i, l.Len(), len(naive))
		}
		sc, me := scopes[r.Intn(3)], int32(r.Intn(len(fps)))
		want := 0
		for _, f := range naive {
			if f.scope == sc && f.top != me {
				want++
			}
		}
		if got := len(visited(&l, sc, TotalConflict{}, me, "A")); got != want {
			t.Fatalf("step %d: scan of %s sees %d accesses, naive %d", i, sc, got, want)
		}
	}
	st := StepInfo{Op: "A", Args: []Value{int64(1)}}
	if avg := testing.AllocsPerRun(100, func() {
		l.Add("p", &fps[0], 0, st)
		l.Add("p", &fps[0], 0, st) // coalesced
		l.Scan("p", TotalConflict{}, 1, "A", func(*Access[int32]) bool { return true })
		l.Drop(&fps[0])
	}); avg != 0 {
		t.Errorf("warm add/scan/drop allocates %.1f times, want 0", avg)
	}
}

// TestOpFilterSoundOnCoreRelations: whatever a core relation's filter rules
// out, both of its predicates rule out too.
func TestOpFilterSoundOnCoreRelations(t *testing.T) {
	derived := &DerivedRelation{
		Ops:   []string{"Get", "Put"},
		Pairs: map[[2]string]DerivedVerdict{{"Get", "Put"}: {Keyed: true}, {"Put", "Get"}: {Keyed: true}, {"Put", "Put"}: {}},
	}
	rels := map[string]ConflictRelation{
		"table":   RWTable([]string{"Get"}, []string{"Put"}, nil),
		"derived": derived,
		"refined": Refine(derived, func(a, b StepInfo) bool { return a.Ret != nil }),
		"sharded": Refine((&DerivedRelation{Ops: derived.Ops, Pairs: map[[2]string]DerivedVerdict{{"Put", "Put"}: {Keyed: true}}}).Sharded(0), func(a, b StepInfo) bool { return true }),
	}
	for name, rel := range rels {
		if _, ok := rel.(OpFilter); !ok {
			t.Errorf("%s: no OpFilter", name)
		}
		skipped := 0
		for _, a := range []string{"Get", "Put", "Unknown"} {
			for _, b := range []string{"Get", "Put", "Unknown"} {
				if OpsMayConflict(rel, a, b) {
					continue
				}
				skipped++
				x, y := StepInfo{Op: a, Args: []Value{int64(1)}, Ret: int64(1)}, StepInfo{Op: b, Args: []Value{int64(1)}, Ret: int64(1)}
				if rel.OpConflicts(x.Invocation(), y.Invocation()) || rel.StepConflicts(x, y) {
					t.Errorf("%s: filter rules out %s/%s but the relation conflicts them", name, a, b)
				}
			}
		}
		if skipped == 0 {
			t.Errorf("%s: filter rules nothing out", name)
		}
	}
	if OpsMayConflict(derived, "Get", "Unknown") == false {
		t.Errorf("derived: an unknown operation must stay conflicting")
	}
	if !OpsMayConflict(TotalConflict{}, "a", "b") {
		t.Errorf("opaque relation must never be skipped")
	}
}
