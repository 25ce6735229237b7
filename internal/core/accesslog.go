package core

// AccessLog records, per conflict scope, the local steps of transactions
// whose fate can still matter to a later step. The modular certifier
// (internal/cc) and the engine's recoverability tracker each keep one and
// ask it the same question on every step: which earlier accesses by other
// transactions can this step conflict with? Three indexes make the answer
// cost the candidates, not the history:
//
//   - a scope's accesses are bucketed by operation name, and a scan visits
//     a bucket only if the relation's OpFilter admits the pair of names —
//     the relation itself declares the skip, so no access the oracle
//     (graph.Build) would test is passed over, and an opaque relation
//     (TotalConflict, a hand-written one without a filter) skips nothing;
//   - every access is chained on its transaction's Footprint, the
//     back-index that makes Drop cost the transaction's own accesses: each
//     is swap-removed from its bucket in O(1) (bucket order is immaterial:
//     every logged access precedes the step being scanned for);
//   - a transaction's repeated identical step in a scope is logged once —
//     a conflict test is a function of the two steps alone, so the copy
//     could add no edge the original does not.
//
// T is the caller's per-transaction record, so a scan reaches an access's
// owner without a lookup. Dropped records are recycled and emptied scopes
// stay warm, so a steady workload allocates nothing here. Not safe for
// concurrent use; the zero value is ready.
type AccessLog[T comparable] struct {
	// Either makes a scan admit a pair of operations the relation may
	// conflict in either order (recoverability cares about both), not just
	// logged-then-scanning (precedence). Set before first use.
	Either bool

	scopes map[string]*logScope[T]
	idle   int        // scopes holding no access, kept warm until swept
	free   *Access[T] // recycled records, chained through own
	n      int
}

// Access is one logged step of the transaction Owner.
type Access[T comparable] struct {
	Owner T
	Step  StepInfo

	bucket *logBucket[T]
	pos    int        // index in bucket.list
	own    *Access[T] // next access of the same transaction
}

// Footprint is one transaction's back-index into an AccessLog: the chain of
// its own logged accesses. It lives in the owner's record; the zero value
// is empty.
type Footprint[T comparable] struct{ head *Access[T] }

type logScope[T comparable] struct {
	buckets []*logBucket[T] // one per operation name seen; a handful
	n       int
	// admit caches, per operation name of a scanning step, the buckets the
	// scope's relation does not rule out; cleared when a bucket is added.
	admit map[string][]*logBucket[T]
}

type logBucket[T comparable] struct {
	scope *logScope[T]
	op    string
	list  []*Access[T]
}

// Len returns the number of logged accesses.
func (l *AccessLog[T]) Len() int { return l.n }

// Scopes returns the number of scopes holding at least one access.
func (l *AccessLog[T]) Scopes() int { return len(l.scopes) - l.idle }

// Scan calls visit for every logged access in scope, by a transaction
// other than self, that rel — the scope's one relation — does not rule out
// against a later step of operation op: accesses of operation a with
// OpsMayConflict(rel, a, op), or under Either in at least one order. It
// stops early, returning false, when visit does.
func (l *AccessLog[T]) Scan(scope string, rel ConflictRelation, self T, op string, visit func(*Access[T]) bool) bool {
	sc := l.scopes[scope]
	if sc == nil {
		return true
	}
	admitted, ok := sc.admit[op]
	if !ok {
		for _, b := range sc.buckets {
			if OpsMayConflict(rel, b.op, op) || l.Either && OpsMayConflict(rel, op, b.op) {
				admitted = append(admitted, b)
			}
		}
		if sc.admit == nil {
			sc.admit = make(map[string][]*logBucket[T])
		}
		sc.admit[op] = admitted
	}
	for _, b := range admitted {
		for _, a := range b.list {
			if a.Owner != self && !visit(a) {
				return false
			}
		}
	}
	return true
}

// Add logs a step of transaction owner in scope and links it on the
// transaction's footprint, unless the footprint already holds an identical
// step there.
func (l *AccessLog[T]) Add(scope string, fp *Footprint[T], owner T, st StepInfo) {
	sc := l.scopes[scope]
	if sc == nil {
		if l.scopes == nil {
			l.scopes = make(map[string]*logScope[T])
		}
		sc = &logScope[T]{}
		l.scopes[scope] = sc
	} else if sc.n == 0 {
		l.idle--
	}
	var b *logBucket[T]
	for _, x := range sc.buckets {
		if x.op == st.Op {
			b = x
			break
		}
	}
	if b == nil {
		b = &logBucket[T]{scope: sc, op: st.Op}
		sc.buckets = append(sc.buckets, b)
		clear(sc.admit)
	}
	for a := fp.head; a != nil; a = a.own {
		if a.bucket == b && ValueEqual(a.Step.Ret, st.Ret) && ValueEqual(a.Step.Args, st.Args) {
			return
		}
	}
	a := l.free
	if a != nil {
		l.free = a.own
	} else {
		a = new(Access[T])
	}
	*a = Access[T]{Owner: owner, Step: st, bucket: b, pos: len(b.list), own: fp.head}
	fp.head = a
	b.list = append(b.list, a)
	sc.n++
	l.n++
}

// Drop removes every access on the footprint, in time proportional to
// their number, and empties it.
func (l *AccessLog[T]) Drop(fp *Footprint[T]) {
	for a := fp.head; a != nil; {
		next, b := a.own, a.bucket
		last := len(b.list) - 1
		moved := b.list[last]
		b.list[a.pos], moved.pos = moved, a.pos
		b.list[last] = nil
		b.list = b.list[:last]
		if b.scope.n--; b.scope.n == 0 {
			l.idle++
		}
		l.n--
		*a = Access[T]{own: l.free}
		l.free = a
		a = next
	}
	fp.head = nil
	// An emptied scope keeps its buckets and admissions for the next
	// transaction; once idle scopes outnumber the busy ones (and a floor),
	// all of them go, so keyed scopes cannot pile up.
	if l.idle > 64 && l.idle > len(l.scopes)/2 {
		for name, sc := range l.scopes {
			if sc.n == 0 {
				delete(l.scopes, name)
			}
		}
		l.idle = 0
	}
}
