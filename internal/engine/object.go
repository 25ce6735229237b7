package engine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"objectbase/internal/core"
)

// Object is a runtime object instance: a schema, a state, and a latch that
// makes local steps atomic (Definition 2's local operations are atomic on
// the object's variables). Schedulers compose the latch with their own
// admission logic; the paper's step-granularity protocols require peeking
// (provisional execution), conflict checking and applying to happen
// atomically under this latch.
//
// When the engine runs with Options.Versioning, the object additionally
// keeps a ring of committed state versions (see core.VersionRing) that the
// snapshot read-only fast path serves from, plus the pending-writer
// bookkeeping that decides whether a committing transaction may capture
// the state (no uncommitted alien effects) or must publish a gap.
type Object struct {
	name   string
	schema *core.Schema
	eng    *Engine

	mu    sync.Mutex
	state core.State
	seq   int // per-object linearisation counter (ObjSeq)

	// pending counts the uncommitted mutating steps currently in the
	// state, per top-level transaction key. Guarded by mu. Maintained
	// only under Options.Versioning; publication captures the state only
	// when the committing transaction is the sole pending writer.
	pending map[string]int

	// vers is the immutable committed-version ring; publishers swap it,
	// snapshot readers only load it — the read fast path never takes mu.
	// Nil unless Options.Versioning.
	vers atomic.Pointer[core.VersionRing]
}

// Name returns the object's instance name.
func (o *Object) Name() string { return o.name }

// Schema returns the object's schema.
func (o *Object) Schema() *core.Schema { return o.schema }

// Latch acquires the object latch. Schedulers may hold it across a
// peek/admit/apply sequence; they must never block on other engine
// resources while holding it except the lock manager's TryAcquire (which
// never takes latches).
func (o *Object) Latch() {
	ordAcquire(ordRankObject, "object latch")
	o.mu.Lock()
}

// Unlatch releases the object latch.
func (o *Object) Unlatch() {
	ordRelease(ordRankObject, "object latch")
	o.mu.Unlock()
}

// PeekLocked provisionally executes inv on a copy of the state and returns
// the completed step without mutating anything. Caller holds the latch.
// This is the paper's "provisionally issue an operation, observe the
// resulting return value" device.
func (o *Object) PeekLocked(inv core.OpInvocation) (core.StepInfo, error) {
	op, err := o.schema.Op(inv.Op)
	if err != nil {
		return core.StepInfo{}, err
	}
	var ret core.Value
	switch {
	case op.ReadOnly:
		// A read-only Apply is pure: run it directly.
		ret, _, err = op.Apply(o.state, inv.Args)
	case op.Peek != nil:
		ret, err = op.Peek(o.state, inv.Args)
	default:
		scratch := o.schema.Clone(o.state)
		ret, _, err = op.Apply(scratch, inv.Args)
	}
	if err != nil {
		return core.StepInfo{}, err
	}
	return core.StepInfo{Op: inv.Op, Args: inv.Args, Ret: ret}, nil
}

// ApplyForLocked applies inv for real on behalf of execution e: it mutates
// the state, records the local step in the history, and pushes the undo
// closure onto e's undo log. Caller holds the latch.
func (o *Object) ApplyForLocked(e *Exec, inv core.OpInvocation) (core.StepInfo, error) {
	op, err := o.schema.Op(inv.Op)
	if err != nil {
		return core.StepInfo{}, err
	}
	ret, undo, err := op.Apply(o.state, inv.Args)
	if err != nil {
		return core.StepInfo{}, fmt.Errorf("engine: %s on %s: %w", inv, o.name, err)
	}
	st := core.StepInfo{Op: inv.Op, Args: inv.Args, Ret: ret}
	if rerr := o.eng.rec.AddStep(e.id, o.name, st, o.seq); rerr != nil {
		// The observer refused the step (history limit): roll the state
		// mutation back under the latch we still hold and fail the step —
		// an unrecorded effect must never survive into the history.
		if undo != nil {
			undo(o.state)
		}
		return core.StepInfo{}, historyAbort(e.id, rerr)
	}
	o.seq++
	if undo != nil {
		if o.pending != nil {
			o.pending[e.topKey()]++
		}
		e.pushUndo(o, undo)
	}
	return st, nil
}

// ApplyFor is ApplyForLocked wrapped in the latch — the whole-step shortcut
// for schedulers that admit before touching the object (operation-
// granularity locking, conservative timestamp ordering, no control at all).
func (o *Object) ApplyFor(e *Exec, inv core.OpInvocation) (core.StepInfo, error) {
	ordAcquire(ordRankObject, "object latch")
	o.mu.Lock()
	defer o.mu.Unlock()
	defer ordRelease(ordRankObject, "object latch")
	return o.ApplyForLocked(e, inv)
}

// StateSnapshot returns a copy of the current state (tests, final-state
// recording). It takes the latch.
func (o *Object) StateSnapshot() core.State {
	ordAcquire(ordRankObject, "object latch")
	o.mu.Lock()
	defer o.mu.Unlock()
	defer ordRelease(ordRankObject, "object latch")
	return o.schema.Clone(o.state)
}

// applyUndo runs an undo closure under the latch (abort path) on behalf
// of the top-level transaction topKey, and retires the corresponding
// pending-writer mark. When the last pending writer drains away and the
// newest published version is a gap (a committer that could not capture
// because of this very writer), the now-clean committed state is
// captured in its place — otherwise the object would stay view-dead
// (every snapshot read falling back to locks) until the next committed
// write happened to republish it.
func (o *Object) applyUndo(topKey string, fn core.UndoFunc) {
	ordAcquire(ordRankObject, "object latch")
	o.mu.Lock()
	fn(o.state)
	if o.pending != nil {
		if n := o.pending[topKey]; n <= 1 {
			delete(o.pending, topKey)
			if len(o.pending) == 0 {
				if ring := o.vers.Load(); ring.Newest().Gap {
					// The state now holds exactly the commits the gap's
					// sequence number covers (later committers would have
					// published above it), so the repair carries that seq.
					o.vers.Store(ring.Repair(o.seq, o.schema.Clone(o.state)))
					o.eng.versRepairs.Add(1)
				}
			}
		} else {
			o.pending[topKey] = n - 1
		}
	}
	ordRelease(ordRankObject, "object latch")
	o.mu.Unlock()
}

// initVersions installs version 0 (the initial state). Called once at
// registration when the engine runs with Options.Versioning.
func (o *Object) initVersions(initial core.State) {
	o.pending = make(map[string]int)
	o.vers.Store(core.NewVersionRing(o.schema.Clone(initial)))
}

// publishVersion publishes the committed state at seq on behalf of the
// committing top-level transaction topKey, under the object latch only —
// publication runs outside the engine's global mutex, so concurrent
// commits against disjoint objects capture in parallel. The transaction's
// own pending marks are retired first; a capture happens only when the
// state is provably the committed prefix at seq, i.e. when no other
// transaction has uncommitted effects in it (pending empty) and no later
// commit has already published on this object (out-of-order loser). In
// either losing case a gap lands instead of a wrong snapshot: readers
// refresh past it or fall back.
func (o *Object) publishVersion(topKey string, seq uint64) {
	ordAcquire(ordRankObject, "object latch")
	o.mu.Lock()
	delete(o.pending, topKey)
	ring := o.vers.Load()
	switch {
	case ring.Newest().Seq > seq:
		o.vers.Store(ring.InsertGap(seq))
		o.eng.versGaps.Add(1)
	case len(o.pending) > 0:
		o.vers.Store(ring.PushGap(seq))
		o.eng.versGaps.Add(1)
	default:
		o.vers.Store(ring.Push(seq, o.seq, o.schema.Clone(o.state)))
		o.eng.versPublished.Add(1)
	}
	ordRelease(ordRankObject, "object latch")
	o.mu.Unlock()
}

// Versions returns the object's committed-version ring, or nil when the
// engine does not maintain versions. Snapshot readers and tests use it;
// the returned ring is immutable.
func (o *Object) Versions() *core.VersionRing { return o.vers.Load() }
