package cc

import (
	"fmt"
	"sync/atomic"

	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/hts"
)

// NTO is nested timestamp ordering (Reed's algorithm, Section 5.2).
//
// Hierarchical timestamps are the executions' IDs: the engine assigns
// top-level IDs from a monotone counter (transactions started later get
// larger timestamps) and child IDs by per-execution message counters —
// exactly the paper's implementation of rule 2. Rule 1 — conflicting steps
// of incomparable executions must execute in timestamp order — is enforced
// by an hts.IssueTable per conflict scope: a step whose timestamp is
// smaller than a recorded conflicting issue by an incomparable execution
// is rejected and its transaction aborted (and retried by the engine with
// a fresh, larger timestamp).
//
// Two variants, as in the paper's implementation discussion:
//
//   - conservative (Exact=false): conflicts tested at operation
//     granularity before execution, bookkeeping compacted to roughly one
//     maximum timestamp per operation class (the paper's hts(a));
//   - exact (Exact=true): the step is provisionally executed under the
//     object latch and its return value participates in the conflict test;
//     the table then has to remember past steps, bounded by the paper's
//     low-water garbage collection (timestamps of inactive executions
//     below every active execution are discarded).
//
// Timestamp ordering lets a transaction observe uncommitted effects of an
// older transaction, so NTO requires the engine's dependency tracking
// (cascading aborts) for recoverability.
type NTO struct {
	exact  bool
	table  *hts.IssueTable
	gcTick atomic.Int64
	// GCEvery sets how many top-level completions elapse between low-water
	// prunes (default 64; the GC experiment varies it).
	GCEvery int64
}

// NewNTO returns an NTO scheduler.
func NewNTO(exact bool) *NTO {
	return &NTO{
		exact:   exact,
		table:   hts.NewIssueTable(),
		GCEvery: 64,
	}
}

// Name implements engine.Scheduler.
func (s *NTO) Name() string {
	if s.exact {
		return "nto-step"
	}
	return "nto-op"
}

// TableSize exposes the bookkeeping footprint (GC experiment).
func (s *NTO) TableSize() int { return s.table.Size() }

// Begin implements engine.Scheduler.
func (s *NTO) Begin(e *engine.Exec) error { return nil }

// Step implements engine.Scheduler.
func (s *NTO) Step(e *engine.Exec, obj *engine.Object, inv core.OpInvocation) (core.Value, error) {
	rel := obj.Schema().Conflicts
	ts := e.ID()
	scope := core.ScopeOf(obj.Name(), rel, inv)

	obj.Latch()
	defer obj.Unlatch()

	req := core.StepInfo{Op: inv.Op, Args: inv.Args}
	if s.exact {
		st, err := obj.PeekLocked(inv)
		if err != nil {
			return nil, err
		}
		req = st
	}
	if !s.table.TryIssue(scope, rel, s.exact, req, ts) {
		return nil, &engine.AbortError{
			Exec:      e.ID(),
			Reason:    fmt.Sprintf("timestamp rejection: %s at %s", inv, scope),
			Retriable: true,
		}
	}
	// Recoverability: the step may conflict with uncommitted effects of an
	// older transaction; register the dependency (or learn that the data
	// is mid-undo and bail out).
	if err := e.Engine().TrackTouch(e, obj, scope, inv); err != nil {
		return nil, err
	}
	applied, err := obj.ApplyForLocked(e, inv)
	if err != nil {
		return nil, err
	}
	return applied.Ret, nil
}

// Commit implements engine.Scheduler: top-level completions occasionally
// prune the issue table at the engine's live low-water timestamp — the
// paper's GC rule ("information about the steps of an inactive method
// execution e can be discarded as soon as for all active method executions
// e', hts(e) < hts(e')").
func (s *NTO) Commit(e *engine.Exec) error {
	if len(e.ID()) == 1 {
		s.maybeGC(e)
	}
	return nil
}

// Abort implements engine.Scheduler.
func (s *NTO) Abort(e *engine.Exec) {
	if len(e.ID()) == 1 {
		s.maybeGC(e)
	}
}

func (s *NTO) maybeGC(e *engine.Exec) {
	every := s.GCEvery
	if every <= 0 {
		every = 64
	}
	if s.gcTick.Add(1)%every != 0 {
		return
	}
	s.table.Prune(core.RootID(e.Engine().MinLiveTop()))
}

// RequiresDependencyTracking: yes — NTO admits reads of uncommitted
// effects.
func (s *NTO) RequiresDependencyTracking() bool { return true }
