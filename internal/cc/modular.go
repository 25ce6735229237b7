package cc

import (
	"fmt"
	"sync"

	"objectbase/internal/core"
	"objectbase/internal/engine"
)

// Modular is the Theorem 5 scheme: intra-object and inter-object
// synchronisation are separated.
//
// Intra-object: each object orders its own steps however it likes — here,
// by its latch (each object's recorded step order is its local
// serialisation order; objects with internally concurrent structures, like
// the B-tree dictionary, synchronise their own physical operations). No
// blocking across transactions ever happens inside an object.
//
// Inter-object: a global optimistic certifier ("there are techniques that
// resemble certifiers ... which favour (ii) at the expense of (i) — and
// the increased danger of scheduling errors requiring abortions",
// Section 6) ensures the per-object orders are compatible: every step
// registers its conflict-scope access; conflicting accesses induce
// precedence edges between top-level transactions; a transaction commits
// only if its edges close no cycle among committed transactions. A cycle
// means the per-object serialisation orders disagree — exactly the
// Section 2 counterexample — and the committing transaction aborts and
// retries.
//
// Index invariants. log (a core.AccessLog: a step tests only the accesses
// its relation's operation table cannot rule out) holds the accesses of
// exactly the tracked transactions in tops: live ones that stepped, and
// committed ones with a tracked predecessor. For a tracked t, t.in counts
// the tracked u with an edge u→t and t.out holds t's successors (an
// aborted one lingers there marked gone, and is skipped).
//
// Pruning rule. An edge u→t is drawn only when t steps after u, so t's
// in-edges are final once it commits: a committed transaction with no
// tracked predecessor can never lie on a cycle. It is dropped at once, and
// so, transitively, is every committed successor it leaves without one.
// This is Section 5.2's discard rule — forget a finished execution once no
// active one can still be ordered before it — read off the precedence
// graph, not off start numbers: a low-water mark is unsound here, because
// a transaction live at t's commit can take an edge into t, commit, and
// only then acquire a live predecessor (TestModularPruneKeepsReachable).
// Each edge and access is removed once, so commit and abort cost the
// transaction's own footprint, and nothing stays tracked once nothing is
// live.
//
// Because transactions may observe uncommitted effects, Modular requires
// the engine's dependency tracking (cascading aborts) for recoverability,
// and its certification subsumes Theorem 5's conditions on the committed
// projection: the experiments verify CheckTheorem5 on every history it
// admits.
type Modular struct {
	mu    sync.Mutex
	log   core.AccessLog[*certTop]
	tops  map[int32]*certTop
	epoch uint32     // stamp of the current cycle search
	stack []*certTop // scratch for the cycle search and the drop cascade
	stats CertStats
}

// certTop is a tracked top-level transaction: a node of the precedence
// graph.
type certTop struct {
	id        int32
	fp        core.Footprint[*certTop]
	out       map[int32]*certTop
	last      *certTop // the successor most recently found in out: spares a lookup
	in        int
	committed bool
	gone      bool
	seen      uint32
}

// CertStats counts certification outcomes and gauges the certifier's
// bookkeeping: accesses and transactions tracked right now, and the most
// conflict tests any single step has needed.
type CertStats struct {
	Validated int64
	Rejected  int64

	TrackedAccesses int64
	TrackedTxns     int64
	MaxStepTests    int64
}

// NewModular returns the modular certifier scheduler.
func NewModular() *Modular {
	return &Modular{tops: make(map[int32]*certTop)}
}

// Name implements engine.Scheduler.
func (s *Modular) Name() string { return "modular-certifier" }

// Stats returns certification counters and gauges.
func (s *Modular) Stats() CertStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.TrackedAccesses, st.TrackedTxns = int64(s.log.Len()), int64(len(s.tops))
	return st
}

// Begin implements engine.Scheduler.
func (s *Modular) Begin(e *engine.Exec) error { return nil }

// Step implements engine.Scheduler: under the object latch (the object's
// own serialisation) check recoverability, apply once, then register the
// completed step and the edges it induces.
func (s *Modular) Step(e *engine.Exec, obj *engine.Object, inv core.OpInvocation) (core.Value, error) {
	rel := obj.Schema().Conflicts
	scope := core.ScopeOf(obj.Name(), rel, inv)

	obj.Latch()
	defer obj.Unlatch()

	// Recoverability first: bail out, before reading or writing, if the
	// scope is mid-undo. The tracker decides at operation granularity, so
	// it needs no return value and the operation is evaluated only once.
	if err := e.Engine().TrackTouch(e, obj, scope, inv); err != nil {
		return nil, err
	}
	st, err := obj.ApplyForLocked(e, inv)
	if err != nil {
		return nil, err
	}
	s.recordAccess(scope, rel, e.ID()[0], st)
	return st.Ret, nil
}

// recordAccess logs the step and adds a precedence edge from every
// transaction holding an earlier conflicting access.
func (s *Modular) recordAccess(scope string, rel core.ConflictRelation, top int32, st core.StepInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.tops[top]
	if n == nil {
		n = &certTop{id: top}
		s.tops[top] = n
	}
	tests := int64(0)
	s.log.Scan(scope, rel, n, st.Op, func(a *core.Access[*certTop]) bool {
		from := a.Owner
		if from.last != n && from.out[top] == nil { // no edge from→n yet
			if tests++; !rel.StepConflicts(a.Step, st) {
				return true
			}
			if from.out == nil {
				from.out = make(map[int32]*certTop)
			}
			from.out[top] = n
			n.in++
		}
		from.last = n
		return true
	})
	s.log.Add(scope, &n.fp, n, st)
	s.stats.MaxStepTests = max(s.stats.MaxStepTests, tests)
}

// Commit implements engine.Scheduler: children commit freely; a top-level
// transaction is certified — its precedence edges must close no cycle in
// the subgraph of committed transactions plus itself.
func (s *Modular) Commit(e *engine.Exec) error {
	if len(e.ID()) == 1 && !s.certify(e.ID()[0]) {
		return &engine.AbortError{
			Exec:      e.ID(),
			Reason:    fmt.Sprintf("certification: committing T%d closes a serialisation cycle", e.ID()[0]),
			Retriable: true,
		}
	}
	return nil
}

// certify decides the commit of top-level transaction top and applies the
// pruning rule: a rejected transaction is dropped, a certified one stays
// tracked only while it has a tracked predecessor.
func (s *Modular) certify(top int32) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.tops[top] // nil: never stepped, nothing to order
	if n != nil && s.cycleThrough(n) {
		s.stats.Rejected++
		s.dropLocked(n)
		return false
	}
	s.stats.Validated++
	if n != nil {
		if n.committed = true; n.in == 0 {
			s.dropLocked(n)
		}
	}
	return true
}

// cycleThrough reports whether n lies on a cycle within committed ∪ {n}.
// A cycle needs an edge in and an edge out, so most commits search nothing.
func (s *Modular) cycleThrough(n *certTop) bool {
	if n.in == 0 || len(n.out) == 0 {
		return false
	}
	s.epoch++
	found := false
	stack := append(s.stack[:0], n)
	for len(stack) > 0 && !found {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range x.out {
			if m == n {
				found = true
			} else if m.committed && !m.gone && m.seen != s.epoch {
				m.seen = s.epoch
				stack = append(stack, m)
			}
		}
	}
	s.stack = stack[:0]
	return found
}

// Abort implements engine.Scheduler: an aborted top-level transaction's
// accesses and edges vanish.
func (s *Modular) Abort(e *engine.Exec) {
	if len(e.ID()) == 1 {
		s.discard(e.ID()[0])
	}
}

func (s *Modular) discard(top int32) {
	s.mu.Lock()
	if n := s.tops[top]; n != nil {
		s.dropLocked(n)
	}
	s.mu.Unlock()
}

// dropLocked stops tracking n — aborted, rejected, or committed with no
// tracked predecessor — and then, transitively, every committed successor
// left without one (the pruning rule above).
func (s *Modular) dropLocked(n *certTop) {
	stack := append(s.stack[:0], n)
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		x.gone = true
		delete(s.tops, x.id)
		s.log.Drop(&x.fp)
		for _, m := range x.out {
			if m.gone {
				continue
			}
			if m.in--; m.in == 0 && m.committed {
				stack = append(stack, m)
			}
		}
		x.out = nil
	}
	s.stack = stack[:0]
}

// RequiresDependencyTracking: yes — optimistic execution observes
// uncommitted effects.
func (s *Modular) RequiresDependencyTracking() bool { return true }

// SharedAcrossShards: yes — certification must see every shard's conflict
// edges, or a cross-shard cycle whose halves live in different shards
// would certify on both sides. The single instance also makes its Commit
// the atomic prepare decision of the cross-shard two-phase commit.
func (s *Modular) SharedAcrossShards() bool { return true }
