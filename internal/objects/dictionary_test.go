package objects

import (
	"math/rand"
	"testing"

	"objectbase/internal/core"
)

func TestDictionaryBasics(t *testing.T) {
	sc := Dictionary()
	s := sc.NewState()
	apply := func(op string, args ...core.Value) core.Value {
		ret, _, err := sc.MustOp(op).Apply(s, args)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return ret
	}
	if got := apply("Lookup", int64(1)); got != nil {
		t.Fatalf("lookup empty = %v", got)
	}
	if got := apply("Insert", int64(1), "one"); got != nil {
		t.Fatalf("insert fresh = %v", got)
	}
	if got := apply("Insert", int64(1), "uno"); got != "one" {
		t.Fatalf("insert overwrite = %v", got)
	}
	if got := apply("Lookup", int64(1)); got != "uno" {
		t.Fatalf("lookup = %v", got)
	}
	if got := apply("Len"); got != int64(1) {
		t.Fatalf("len = %v", got)
	}
	if got := apply("Delete", int64(1)); got != "uno" {
		t.Fatalf("delete = %v", got)
	}
	if got := apply("Delete", int64(1)); got != nil {
		t.Fatalf("delete miss = %v", got)
	}
}

func TestDictionaryUndo(t *testing.T) {
	sc := Dictionary()
	s := sc.NewState()
	_, undoIns, err := sc.MustOp("Insert").Apply(s, []core.Value{int64(5), "v"})
	if err != nil {
		t.Fatal(err)
	}
	_, undoOver, err := sc.MustOp("Insert").Apply(s, []core.Value{int64(5), "w"})
	if err != nil {
		t.Fatal(err)
	}
	undoOver(s)
	if v, _, _ := sc.MustOp("Lookup").Apply(s, []core.Value{int64(5)}); v != "v" {
		t.Fatalf("after overwrite undo: %v", v)
	}
	undoIns(s)
	if v, _, _ := sc.MustOp("Lookup").Apply(s, []core.Value{int64(5)}); v != nil {
		t.Fatalf("after insert undo: %v", v)
	}
	// Delete undo restores the pair.
	sc.MustOp("Insert").Apply(s, []core.Value{int64(7), "x"})
	_, undoDel, _ := sc.MustOp("Delete").Apply(s, []core.Value{int64(7)})
	undoDel(s)
	if v, _, _ := sc.MustOp("Lookup").Apply(s, []core.Value{int64(7)}); v != "x" {
		t.Fatalf("after delete undo: %v", v)
	}
}

func TestDictionaryPeekMatchesApply(t *testing.T) {
	sc := Dictionary()
	s := sc.NewState()
	sc.MustOp("Insert").Apply(s, []core.Value{int64(3), "three"})
	for _, op := range []string{"Insert", "Delete"} {
		o := sc.MustOp(op)
		if o.Peek == nil {
			t.Fatalf("%s must provide Peek", op)
		}
		args := []core.Value{int64(3), "new"}
		if op == "Delete" {
			args = args[:1]
		}
		peeked, err := o.Peek(s, args)
		if err != nil {
			t.Fatal(err)
		}
		cp := sc.CloneState(s)
		applied, _, err := o.Apply(cp, args)
		if err != nil {
			t.Fatal(err)
		}
		if !core.ValueEqual(peeked, applied) {
			t.Fatalf("%s: peek %v != apply %v", op, peeked, applied)
		}
	}
}

func TestDictionaryCloneEqual(t *testing.T) {
	sc := Dictionary()
	s := sc.NewState()
	for k := int64(0); k < 20; k++ {
		sc.MustOp("Insert").Apply(s, []core.Value{k, k * 10})
	}
	cp := sc.CloneState(s)
	if !sc.StateEqual(s, cp) {
		t.Fatalf("clone differs")
	}
	sc.MustOp("Delete").Apply(cp, []core.Value{int64(3)})
	if sc.StateEqual(s, cp) {
		t.Fatalf("clone aliases original")
	}
}

// TestCloneDictionaryVersions: the schema's Clone is what publishes a
// committed version of the dictionary, so it must cost the same whatever
// the dictionary holds, and a version must stay exactly what it was
// while the live state goes on being written, undone and cloned.
func TestCloneDictionaryVersions(t *testing.T) {
	sc := Dictionary()
	apply := func(s core.State, op string, args ...core.Value) (core.Value, core.UndoFunc) {
		t.Helper()
		ret, undo, err := sc.MustOp(op).Apply(s, args)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		return ret, undo
	}
	var cost [2]float64
	for i, keys := range []int64{128, 16384} {
		s := sc.NewState()
		for k := int64(0); k < keys; k++ {
			apply(s, "Insert", k, k)
		}
		var sink core.State
		cost[i] = testing.AllocsPerRun(100, func() { sink = sc.Clone(s) })
		_ = sink
	}
	if cost[0] != cost[1] || cost[0] > 4 {
		t.Errorf("Clone allocates %v at 128 keys and %v at 16384, want equal and <= 4", cost[0], cost[1])
	}

	// The same seeded stream of writes, one in four undone again (an
	// aborting writer), drives the live state and, afterwards, a replay.
	const steps = 400
	stream := func(s core.State) func(i int64) {
		r := rand.New(rand.NewSource(3))
		return func(i int64) {
			k := int64(r.Intn(64))
			var undo core.UndoFunc
			if r.Intn(3) == 0 {
				_, undo = apply(s, "Delete", k)
			} else {
				_, undo = apply(s, "Insert", k, i)
			}
			if undo != nil && r.Intn(4) == 0 {
				undo(s)
			}
		}
	}
	live := sc.NewState()
	write := stream(live)
	var versions []core.State
	var lens []core.Value
	for i := int64(0); i < steps; i++ {
		write(i)
		n, _ := apply(live, "Len")
		versions = append(versions, sc.Clone(live))
		lens = append(lens, n)
	}
	// The replay reproduces every version: none was touched by the writes
	// that followed it.
	replay := sc.NewState()
	write = stream(replay)
	for i := int64(0); i < steps; i++ {
		write(i)
		if !sc.EqualStates(versions[i], replay) {
			t.Fatalf("version %d changed after it was cloned", i)
		}
		if n, _ := apply(versions[i], "Len"); n != lens[i] {
			t.Fatalf("version %d: Len = %v, was %v when cloned", i, n, lens[i])
		}
	}
}

func TestDictionaryConflictRelation(t *testing.T) {
	rel := Dictionary().Conflicts
	insA := core.OpInvocation{Op: "Insert", Args: []core.Value{int64(1), "v"}}
	insB := core.OpInvocation{Op: "Insert", Args: []core.Value{int64(2), "v"}}
	lookA := core.OpInvocation{Op: "Lookup", Args: []core.Value{int64(1)}}
	lenI := core.OpInvocation{Op: "Len"}

	if rel.OpConflicts(insA, insB) {
		t.Errorf("different keys must not conflict")
	}
	if !rel.OpConflicts(insA, lookA) {
		t.Errorf("insert/lookup same key conflict")
	}
	if rel.OpConflicts(lookA, lookA) {
		t.Errorf("lookups commute")
	}
	if !rel.OpConflicts(lenI, insA) || !rel.OpConflicts(insA, lenI) {
		t.Errorf("Len conflicts with mutations on any key")
	}
	if rel.OpConflicts(lenI, lookA) {
		t.Errorf("Len commutes with lookups")
	}
	// Step granularity: a missed delete has no effect.
	delMiss := core.StepInfo{Op: "Delete", Args: []core.Value{int64(1)}, Ret: nil}
	delHit := core.StepInfo{Op: "Delete", Args: []core.Value{int64(1)}, Ret: "v"}
	look := core.StepInfo{Op: "Lookup", Args: []core.Value{int64(1)}, Ret: nil}
	if rel.StepConflicts(delMiss, look) {
		t.Errorf("missed delete commutes with lookup")
	}
	if !rel.StepConflicts(delHit, look) {
		t.Errorf("effectful delete conflicts with lookup")
	}
	lenStep := core.StepInfo{Op: "Len", Ret: int64(0)}
	if rel.StepConflicts(delMiss, lenStep) {
		t.Errorf("missed delete commutes with Len")
	}
	if !rel.StepConflicts(delHit, lenStep) {
		t.Errorf("effectful delete conflicts with Len")
	}
}

// Property soundness for the dictionary, like the other schemas.
func TestDictionarySoundness(t *testing.T) {
	sc := Dictionary()
	r := rand.New(rand.NewSource(21))
	soundnessCheck(t, sc, 21,
		func(r *rand.Rand) core.State {
			s := sc.NewState()
			for k := int64(0); k < 5; k++ {
				if r.Intn(2) == 0 {
					sc.MustOp("Insert").Apply(s, []core.Value{k, k * 100})
				}
			}
			return s
		},
		func(_ *rand.Rand) core.OpInvocation {
			k := int64(r.Intn(5))
			switch r.Intn(4) {
			case 0:
				return core.OpInvocation{Op: "Insert", Args: []core.Value{k, int64(r.Intn(10))}}
			case 1:
				return core.OpInvocation{Op: "Delete", Args: []core.Value{k}}
			case 2:
				return core.OpInvocation{Op: "Lookup", Args: []core.Value{k}}
			default:
				return core.OpInvocation{Op: "Len"}
			}
		}, 3000)
}
