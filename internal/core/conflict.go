package core

import "fmt"

// ConflictRelation is the executable form of Definition 3. The paper defines
// conflict on steps: t1 conflicts with t2 iff executing t1 then t2 is not
// interchangeable with t2 then t1 (either the swapped sequence is illegal —
// some return value changes — or the final state differs). The relation need
// not be symmetric.
//
// Two granularities are exposed, mirroring the two implementation strategies
// of Sections 5.1-5.2:
//
//   - OpConflicts is the conservative, operation-granularity relation: it
//     must return true whenever *some* pair of steps of the two invocations
//     conflicts. Schedulers that must decide before executing (lock before
//     issuing; conservative NTO) use it.
//
//   - StepConflicts is the exact, step-granularity relation: it sees return
//     values and may therefore be strictly smaller (the paper's
//     Enqueue/Dequeue example: they conflict only when the Dequeue returns
//     the very item the Enqueue inserted). Provisional-execution schedulers
//     and the offline serialisation-graph builder use it.
//
// Both predicates are ordered: Conflicts(a, b) asks whether a-then-b may not
// be swapped to b-then-a.
type ConflictRelation interface {
	OpConflicts(a, b OpInvocation) bool
	StepConflicts(a, b StepInfo) bool
}

// OpFilter is optionally implemented by conflict relations that can rule a
// conflict out from the two operation names alone — the compile-time
// commutativity table of Malta/Martinez. OpsMayConflict(a, b) == false is a
// promise that OpConflicts and StepConflicts are false for every step of
// operation a followed by every step of operation b, whatever the
// arguments and return values. Bookkeeping that scans earlier accesses
// (AccessLog) uses it to skip whole operations; a relation without it is
// opaque and nothing is skipped.
type OpFilter interface {
	OpsMayConflict(a, b string) bool
}

// OpsMayConflict consults rel's OpFilter; an opaque relation may always
// conflict.
func OpsMayConflict(rel ConflictRelation, a, b string) bool {
	f, ok := rel.(OpFilter)
	return !ok || f.OpsMayConflict(a, b)
}

// Sharder is implemented by conflict relations that can scope invocations:
// invocations with different shard keys never conflict. Lock managers and
// timestamp tables use it to partition their bookkeeping.
type Sharder interface {
	ShardKey(op string, args []Value) Value
}

// ScopeOf returns the bookkeeping scope of an invocation on an object:
// object name plus the relation's shard key when available.
func ScopeOf(object string, rel ConflictRelation, inv OpInvocation) string {
	if s, ok := rel.(Sharder); ok {
		return object + "\x00" + FormatValue(s.ShardKey(inv.Op, inv.Args))
	}
	return object
}

// TotalConflict conflicts everything with everything: trivially sound and
// the default for schemas that do not declare a relation.
type TotalConflict struct{}

func (TotalConflict) OpConflicts(a, b OpInvocation) bool { return true }
func (TotalConflict) StepConflicts(a, b StepInfo) bool   { return true }

// KeyFunc scopes a conflict relation: steps conflict only when their keys
// are equal. The canonical instance extracts the variable name from the
// first argument, so Read(x) and Write(y) do not conflict for x != y.
type KeyFunc func(op string, args []Value) Value

// FirstArgKey keys an invocation by its first argument (or nil when there
// are no arguments, placing all zero-argument invocations in one scope).
func FirstArgKey(op string, args []Value) Value {
	if len(args) == 0 {
		return nil
	}
	return args[0]
}

// SingleKey places every invocation of the schema in one scope; appropriate
// for objects whose operations all touch the same logical datum (a counter,
// a queue).
func SingleKey(op string, args []Value) Value { return nil }

// TableConflict is a table-driven conflict relation: an ordered pair of
// operation names conflicts iff present in the table, and only when the
// invocations' keys match. An optional Refine predicate weakens the relation
// at step granularity.
type TableConflict struct {
	// Pairs holds the ordered conflicting pairs of operation names.
	Pairs map[[2]string]bool
	// Key scopes conflicts; nil means SingleKey.
	Key KeyFunc
	// Refine, when non-nil, is consulted for pairs present in Pairs with
	// matching keys: the steps conflict iff Refine returns true. This is
	// how step granularity exploits return values.
	Refine func(a, b StepInfo) bool
}

func (t *TableConflict) key(op string, args []Value) Value {
	if t.Key == nil {
		return SingleKey(op, args)
	}
	return t.Key(op, args)
}

// OpConflicts implements ConflictRelation.
func (t *TableConflict) OpConflicts(a, b OpInvocation) bool {
	if !t.Pairs[[2]string{a.Op, b.Op}] {
		return false
	}
	return ValueEqual(t.key(a.Op, a.Args), t.key(b.Op, b.Args))
}

// OpsMayConflict implements OpFilter: only pairs in the table conflict.
func (t *TableConflict) OpsMayConflict(a, b string) bool { return t.Pairs[[2]string{a, b}] }

// ShardKey exposes the table's conflict scope so that lock managers can
// shard their tables: invocations with different shard keys never conflict.
func (t *TableConflict) ShardKey(op string, args []Value) Value {
	return t.key(op, args)
}

// StepConflicts implements ConflictRelation.
func (t *TableConflict) StepConflicts(a, b StepInfo) bool {
	if !t.OpConflicts(a.Invocation(), b.Invocation()) {
		return false
	}
	if t.Refine == nil {
		return true
	}
	return t.Refine(a, b)
}

// ConflictPairs builds the Pairs map from a list of ordered pairs.
func ConflictPairs(pairs ...[2]string) map[[2]string]bool {
	m := make(map[[2]string]bool, len(pairs))
	for _, p := range pairs {
		m[p] = true
	}
	return m
}

// SymmetricPairs builds a Pairs map in which each listed pair conflicts in
// both orders.
func SymmetricPairs(pairs ...[2]string) map[[2]string]bool {
	m := make(map[[2]string]bool, 2*len(pairs))
	for _, p := range pairs {
		m[p] = true
		m[[2]string{p[1], p[0]}] = true
	}
	return m
}

// RWTable returns the classical read/write conflict table over the given
// operation names: writers conflict with everything, readers conflict only
// with writers. Keyed per variable via key (nil = FirstArgKey).
func RWTable(readers, writers []string, key KeyFunc) *TableConflict {
	if key == nil {
		key = FirstArgKey
	}
	pairs := make(map[[2]string]bool)
	for _, w := range writers {
		for _, w2 := range writers {
			pairs[[2]string{w, w2}] = true
		}
		for _, r := range readers {
			pairs[[2]string{w, r}] = true
			pairs[[2]string{r, w}] = true
		}
	}
	return &TableConflict{Pairs: pairs, Key: key}
}

// VerifyConflictSoundness checks Definition 3 directly on executable
// operations: for the given state and the ordered pair of invocations
// (a then b), if the relation claims the steps do NOT conflict, then
// executing them in either order must (i) be legal with the same return
// values and (ii) produce equal final states. It returns an error describing
// the violation, or nil.
//
// This is the bridge between the declared conflict tables of
// internal/objects and the semantics the theory needs; property tests drive
// it with randomly generated states and arguments.
func VerifyConflictSoundness(sc *Schema, s State, a, b OpInvocation) error {
	opA, err := sc.Op(a.Op)
	if err != nil {
		return err
	}
	opB, err := sc.Op(b.Op)
	if err != nil {
		return err
	}

	// Execute a then b on a copy.
	s1 := sc.Clone(s)
	retA1, _, errA1 := opA.Apply(s1, a.Args)
	if errA1 != nil {
		return nil // a not defined on s: the sequence is not legal, nothing to check
	}
	retB1, _, errB1 := opB.Apply(s1, b.Args)
	if errB1 != nil {
		return nil
	}

	stepA := StepInfo{Op: a.Op, Args: a.Args, Ret: retA1}
	stepB := StepInfo{Op: b.Op, Args: b.Args, Ret: retB1}
	if sc.Conflicts.StepConflicts(stepA, stepB) {
		return nil // declared conflicting: no commutativity obligation
	}

	// Declared non-conflicting: b then a must be legal on s with the same
	// return values and the same final state (Definition 3 (a) and (b)).
	s2 := sc.Clone(s)
	retB2, _, errB2 := opB.Apply(s2, b.Args)
	if errB2 != nil {
		return fmt.Errorf("schema %s: steps %v and %v declared commuting but %v is illegal when run first (%v)",
			sc.Name, stepA, stepB, b, errB2)
	}
	retA2, _, errA2 := opA.Apply(s2, a.Args)
	if errA2 != nil {
		return fmt.Errorf("schema %s: steps %v and %v declared commuting but %v is illegal after %v (%v)",
			sc.Name, stepA, stepB, a, b, errA2)
	}
	if !ValueEqual(retB1, retB2) {
		return fmt.Errorf("schema %s: steps %v, %v declared commuting but %s returns %s after swap (state %s)",
			sc.Name, stepA, stepB, b.Op, FormatValue(retB2), s)
	}
	if !ValueEqual(retA1, retA2) {
		return fmt.Errorf("schema %s: steps %v, %v declared commuting but %s returns %s after swap (state %s)",
			sc.Name, stepA, stepB, a.Op, FormatValue(retA2), s)
	}
	if !sc.EqualStates(s1, s2) {
		return fmt.Errorf("schema %s: steps %v, %v declared commuting but final states differ: %s vs %s",
			sc.Name, stepA, stepB, s1, s2)
	}
	return nil
}
