package core

import (
	"fmt"
	"math/rand"
)

// VerifyCommutativitySoundness is the runtime witness behind the static
// commutativity derivation: it generalises VerifyReadOnlySoundness from
// observers to arbitrary declared-commuting pairs. For the ordered pair
// (a then b) on state s, if the declared relation reports the steps do NOT
// conflict, the pair must satisfy Definition 3 — both orders legal with the
// same return values and equal final states — and, because the engine's
// abort path interleaves undo closures of concurrent executions, the undo
// closures must commute too: undoing a out of the a-then-b state must land
// exactly on the b-alone state, and undoing both must restore s.
//
// It returns nil either when every obligation holds or when there is no
// obligation (a step errors, or the declared relation reports a conflict);
// ran reports whether the full differential check actually executed, so
// samplers can assert coverage of the pairs they care about.
func VerifyCommutativitySoundness(sc *Schema, s State, a, b OpInvocation) (ran bool, err error) {
	opA, err := sc.Op(a.Op)
	if err != nil {
		return false, err
	}
	opB, err := sc.Op(b.Op)
	if err != nil {
		return false, err
	}

	// Execute a then b on a copy, keeping the undo closures.
	s1 := sc.Clone(s)
	retA1, undoA1, errA1 := opA.Apply(s1, a.Args)
	if errA1 != nil {
		return false, nil // a not defined on s: the sequence is not legal
	}
	retB1, undoB1, errB1 := opB.Apply(s1, b.Args)
	if errB1 != nil {
		return false, nil
	}

	stepA := StepInfo{Op: a.Op, Args: a.Args, Ret: retA1}
	stepB := StepInfo{Op: b.Op, Args: b.Args, Ret: retB1}
	if !OpsMayConflict(sc.Conflicts, a.Op, b.Op) && (sc.Conflicts.OpConflicts(a, b) || sc.Conflicts.StepConflicts(stepA, stepB)) {
		return false, fmt.Errorf("schema %s: the relation's OpFilter rules out %s/%s, yet it conflicts %v with %v",
			sc.Name, a.Op, b.Op, stepA, stepB)
	}
	if sc.Conflicts.StepConflicts(stepA, stepB) {
		return false, nil // declared conflicting: no commutativity obligation
	}

	// Definition 3 (a) and (b): b then a must be legal on s with the same
	// return values and the same final state.
	s2 := sc.Clone(s)
	retB2, undoB2, errB2 := opB.Apply(s2, b.Args)
	if errB2 != nil {
		return true, fmt.Errorf("schema %s: steps %v and %v declared commuting but %v is illegal when run first (%v)",
			sc.Name, stepA, stepB, b, errB2)
	}
	retA2, _, errA2 := opA.Apply(s2, a.Args)
	if errA2 != nil {
		return true, fmt.Errorf("schema %s: steps %v and %v declared commuting but %v is illegal after %v (%v)",
			sc.Name, stepA, stepB, a, b, errA2)
	}
	if !ValueEqual(retB1, retB2) {
		return true, fmt.Errorf("schema %s: steps %v, %v declared commuting but %s returns %s after swap (state %s)",
			sc.Name, stepA, stepB, b.Op, FormatValue(retB2), s)
	}
	if !ValueEqual(retA1, retA2) {
		return true, fmt.Errorf("schema %s: steps %v, %v declared commuting but %s returns %s after swap (state %s)",
			sc.Name, stepA, stepB, a.Op, FormatValue(retA2), s)
	}
	if !sc.EqualStates(s1, s2) {
		return true, fmt.Errorf("schema %s: steps %v, %v declared commuting but final states differ: %s vs %s",
			sc.Name, stepA, stepB, s1, s2)
	}

	// Undo commutativity: a's undo was captured before b ran, but an abort
	// of a's execution may run it after b committed. Undoing a out of the
	// a-then-b state must yield the b-alone state...
	sB := sc.Clone(s)
	if _, _, err := opB.Apply(sB, b.Args); err != nil {
		return true, fmt.Errorf("schema %s: step %v legal after %v but not alone on %s (%v)",
			sc.Name, stepB, stepA, s, err)
	}
	undone := sc.Clone(s1)
	runUndo(undoA1, undone)
	if !sc.EqualStates(undone, sB) {
		return true, fmt.Errorf("schema %s: steps %v, %v declared commuting but undoing %s from the a-then-b state yields %s, want the b-alone state %s",
			sc.Name, stepA, stepB, a.Op, undone, sB)
	}
	// ...and undoing both (in either capture order) must restore s.
	runUndo(undoB1, undone)
	if !sc.EqualStates(undone, s) {
		return true, fmt.Errorf("schema %s: steps %v, %v declared commuting but undoing both does not restore %s (got %s)",
			sc.Name, stepA, stepB, s, undone)
	}
	// Symmetrically from the swapped order: undoing b out of b-then-a must
	// yield the a-alone state.
	sA := sc.Clone(s)
	if _, _, err := opA.Apply(sA, a.Args); err != nil {
		return true, fmt.Errorf("schema %s: step %v legal first but not alone on %s (%v)",
			sc.Name, stepA, s, err)
	}
	undone2 := sc.Clone(s2)
	runUndo(undoB2, undone2)
	if !sc.EqualStates(undone2, sA) {
		return true, fmt.Errorf("schema %s: steps %v, %v declared commuting but undoing %s from the b-then-a state yields %s, want the a-alone state %s",
			sc.Name, stepA, stepB, b.Op, undone2, sA)
	}
	return true, nil
}

// runUndo applies an undo closure, treating nil (read-only operations) as
// the identity.
func runUndo(u UndoFunc, s State) {
	if u != nil {
		u(s)
	}
}

// commuteArgShapes are the argument tuples SampleCommutativity draws from.
// Every schema in internal/objects takes one of these shapes; operations
// reject mismatched shapes with an error, which the sampler uses to learn
// each operation's arity (an errored application carries no obligation).
var commuteArgShapes = []func(r *rand.Rand) []Value{
	func(r *rand.Rand) []Value { return nil },
	func(r *rand.Rand) []Value { return []Value{int64(r.Intn(4))} },
	func(r *rand.Rand) []Value { return []Value{int64(r.Intn(4)), int64(r.Intn(5) - 2)} },
	func(r *rand.Rand) []Value { return []Value{fmt.Sprintf("k%d", r.Intn(3))} },
	func(r *rand.Rand) []Value { return []Value{fmt.Sprintf("k%d", r.Intn(3)), int64(r.Intn(5) - 2)} },
}

// SampleCommutativity drives VerifyCommutativitySoundness over randomised
// states and arguments: each round scrambles a fresh state with a few
// random operations, picks an ordered pair of operations with suitable
// arguments, and checks the witness. It returns, per ordered pair of
// operation names, how many rounds completed the full differential check
// (both orders legal and the declared relation reported no conflict) — the
// coverage map property tests assert against — and the first violation
// found, if any.
func SampleCommutativity(sc *Schema, seed int64, rounds int) (map[[2]string]int, error) {
	r := rand.New(rand.NewSource(seed))
	names := sc.OpNames()
	if len(names) == 0 {
		return nil, fmt.Errorf("core: SampleCommutativity: schema %s has no operations", sc.Name)
	}
	shapes := learnArgShapes(sc, names)
	covered := make(map[[2]string]int)
	for i := 0; i < rounds; i++ {
		s := sc.NewState()
		for j := r.Intn(6); j > 0; j-- {
			op := names[r.Intn(len(names))]
			args := shapes.draw(r, op)
			if _, _, err := sc.Ops[op].Apply(s, args); err != nil {
				continue // wrong shape or illegal on s: skip the scramble step
			}
		}
		aOp := names[r.Intn(len(names))]
		bOp := names[r.Intn(len(names))]
		a := OpInvocation{Op: aOp, Args: shapes.draw(r, aOp)}
		b := OpInvocation{Op: bOp, Args: shapes.draw(r, bOp)}
		if r.Intn(2) == 0 && len(a.Args) > 0 && len(b.Args) > 0 {
			// Half the keyed samples collide on purpose: equal first
			// arguments exercise the Keyed verdicts' conflict side and, for
			// pairs declared commuting even on equal keys, the harder
			// obligation.
			b.Args[0] = a.Args[0]
		}
		ran, err := VerifyCommutativitySoundness(sc, s, a, b)
		if err != nil {
			return covered, err
		}
		if ran {
			covered[[2]string{aOp, bOp}]++
		}
	}
	return covered, nil
}

// argShapes remembers which of the candidate argument shapes each operation
// accepts, learned by probing a fresh state.
type argShapes map[string][]int

func learnArgShapes(sc *Schema, names []string) argShapes {
	m := make(argShapes, len(names))
	probe := rand.New(rand.NewSource(1))
	for _, name := range names {
		op := sc.Ops[name]
		for i, gen := range commuteArgShapes {
			if probeShape(op, sc.NewState(), gen(probe)) {
				m[name] = append(m[name], i)
			}
		}
		if len(m[name]) == 0 {
			m[name] = []int{0} // nothing accepted on a fresh state: sample no-arg anyway
		}
	}
	return m
}

// probeShape reports whether the operation accepts the argument tuple on
// the state. Schemas outside internal/objects may index argument slices
// without bounds checks, so a panic counts as rejection.
func probeShape(op *Operation, s State, args []Value) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	_, _, err := op.Apply(s, args)
	return err == nil
}

func (a argShapes) draw(r *rand.Rand, op string) []Value {
	idx := a[op]
	return commuteArgShapes[idx[r.Intn(len(idx))]](r)
}
