package core

import "fmt"

// DerivedVerdict is one cell of a derived conflict relation: how an ordered
// pair of operations conflicts. The zero value means "always conflicts";
// Keyed means the pair conflicts iff argument ArgA of the first invocation
// equals argument ArgB of the second (the argument-aware refinement of
// Malta/Martinez: Insert(k1) and Insert(k2) commute iff k1 != k2). Pairs
// absent from a DerivedRelation's table never conflict.
type DerivedVerdict struct {
	// Keyed scopes the conflict to equal key arguments.
	Keyed bool
	// ArgA, ArgB are the argument positions compared when Keyed.
	ArgA, ArgB int
}

// DerivedRelation is a conflict relation represented as data: the output of
// the static commutativity derivation in internal/analysis, committed as
// conflict_gen.go and adopted by schemas. It is a pure op-granularity
// relation (StepConflicts ignores return values); schemas that exploit
// return values wrap it with Refine.
type DerivedRelation struct {
	// Ops lists the operation names the relation covers, sorted. Pairs over
	// unknown operations conservatively conflict.
	Ops []string
	// Pairs holds the verdict for every ordered conflicting pair; absent
	// pairs of known operations never conflict.
	Pairs map[[2]string]DerivedVerdict
}

func (d *DerivedRelation) knows(op string) bool {
	for _, o := range d.Ops {
		if o == op {
			return true
		}
	}
	return false
}

// arg returns the i'th argument, or nil when absent — absent arguments all
// fall in one scope, which errs on the side of conflict.
func arg(args []Value, i int) Value {
	if i < 0 || i >= len(args) {
		return nil
	}
	return args[i]
}

// OpConflicts implements ConflictRelation.
func (d *DerivedRelation) OpConflicts(a, b OpInvocation) bool {
	v, ok := d.Pairs[[2]string{a.Op, b.Op}]
	if !ok {
		return d.OpsMayConflict(a.Op, b.Op) // true only for an unknown operation
	}
	if !v.Keyed {
		return true
	}
	return ValueEqual(arg(a.Args, v.ArgA), arg(b.Args, v.ArgB))
}

// StepConflicts implements ConflictRelation.
func (d *DerivedRelation) StepConflicts(a, b StepInfo) bool {
	return d.OpConflicts(a.Invocation(), b.Invocation())
}

// OpsMayConflict implements OpFilter: a pair of known operations absent
// from the table never conflicts; an unknown operation conservatively
// conflicts with everything.
func (d *DerivedRelation) OpsMayConflict(a, b string) bool {
	if _, ok := d.Pairs[[2]string{a, b}]; ok {
		return true
	}
	return !d.knows(a) || !d.knows(b)
}

// Sharded wraps the relation with a shard key on argument position a, so
// lock managers partition their bookkeeping per key (ScopeOf). It panics
// unless sharding is sound: every conflicting pair must be keyed on (a, a),
// otherwise two invocations with different keys could still conflict while
// the manager files them under different scopes.
func (d *DerivedRelation) Sharded(a int) *ShardedDerived {
	for pair, v := range d.Pairs {
		if !v.Keyed || v.ArgA != a || v.ArgB != a {
			panic(fmt.Sprintf("core: DerivedRelation.Sharded(%d): pair %s/%s is not keyed on argument %d",
				a, pair[0], pair[1], a))
		}
	}
	return &ShardedDerived{DerivedRelation: d, Arg: a}
}

// ShardedDerived is a DerivedRelation whose every conflict is keyed on one
// argument position; it additionally implements Sharder.
type ShardedDerived struct {
	*DerivedRelation
	// Arg is the argument position all conflicts are keyed on.
	Arg int
}

// ShardKey implements Sharder.
func (s *ShardedDerived) ShardKey(op string, args []Value) Value {
	return arg(args, s.Arg)
}

// Refine wraps a conflict relation with a step-granularity refinement:
// OpConflicts is the base relation's, StepConflicts holds only when the
// base conflicts AND refine says the completed steps really conflict (the
// return-value exploitation of Section 5.2). When the base relation shards
// (implements Sharder), the wrapper shards identically — refinement only
// ever shrinks the relation, so the base's scoping stays sound.
func Refine(base ConflictRelation, refine func(a, b StepInfo) bool) ConflictRelation {
	r := &refinedRelation{base: base, refine: refine}
	if s, ok := base.(Sharder); ok {
		return &refinedSharded{refinedRelation: r, sharder: s}
	}
	return r
}

type refinedRelation struct {
	base   ConflictRelation
	refine func(a, b StepInfo) bool
}

func (r *refinedRelation) OpConflicts(a, b OpInvocation) bool { return r.base.OpConflicts(a, b) }

func (r *refinedRelation) StepConflicts(a, b StepInfo) bool {
	return r.base.StepConflicts(a, b) && r.refine(a, b)
}

// OpsMayConflict implements OpFilter by delegation: refinement only
// shrinks the relation, so whatever the base rules out stays ruled out.
func (r *refinedRelation) OpsMayConflict(a, b string) bool { return OpsMayConflict(r.base, a, b) }

type refinedSharded struct {
	*refinedRelation
	sharder Sharder
}

func (r *refinedSharded) ShardKey(op string, args []Value) Value {
	return r.sharder.ShardKey(op, args)
}
