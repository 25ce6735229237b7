// The serial commit fast path of a sharded object space.
//
// A transaction whose object set is declared up front (DB.Txn,
// DB.ExecTouching, load-scenario op streams) write-gates the shards the
// set resolves to — in directory order, so gate acquisition cannot
// deadlock — before its body runs. Holding every gate exclusively, the
// transaction is temporally alone on its shards: any conflicting
// transaction is wholly before or wholly after it, so no serialisation
// cycle can pass through it and the per-shard scheduler, lock manager,
// and recoverability tracker are redundant for the duration. Its steps
// therefore apply directly to the object states (undo-logged, recorded,
// and version-published exactly like scheduled steps), which removes the
// lock table, waits-for bookkeeping, scheduler admission, and dependency
// tracking from the per-transaction cost entirely — the sharded
// equivalent of running each partition single-threaded.
//
// Touching a shard outside the gated set aborts the attempt (undoing
// its effects) and restarts it with the grown set pre-gated; the set
// strictly grows, so restarts are bounded by the shard count. The
// history records a serial transaction exactly like a scheduled one, so
// shard.Stitch and the oracle treat both uniformly.

package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"

	"objectbase/internal/core"
	"objectbase/internal/obs"
)

// serialExecPool recycles the per-attempt shardedExec of serial
// transactions. Only the serial path pools: it hands its Exec to no
// scheduler, lock manager, or dependency tracker, so nothing can retain
// a pointer past the attempt. The history does retain the identities and
// arguments of its executions, steps and messages, and an AbortError
// carries an identity: so a pooled Exec never lends its inline storage
// (idBuf, argBuf) — its children's ids and all arguments are copied to
// the heap. Every other path allocates each Exec once and never reuses
// it, which is what lets those Execs lend their buffers (with history
// off: see Engine.lend).
var serialExecPool = sync.Pool{New: func() any { return &shardedExec{} }}

// serialChildPool recycles child method executions of serial
// transactions, under the same no-retention argument.
var serialChildPool = sync.Pool{New: func() any { return &Exec{} }}

// serialChildGet returns a reset child execution for the serial path,
// recorded-in home (the caller AddExecs it there immediately). Its
// arguments are a heap copy of the sender's.
func serialChildGet(home *Engine, parent *Exec, id core.ExecID, object, method string, args []core.Value) *Exec {
	c := serialChildPool.Get().(*Exec)
	c.id = id
	c.object = object
	c.method = method
	c.args = cloneArgs(args)
	c.argBase = uint8(len(c.argBuf))
	c.eng = home
	c.parent = parent
	c.top = parent.top
	c.txn = parent.txn
	c.undo = nil
	c.childN.Store(0)
	c.laneN.Store(0)
	c.SchedData = nil
	c.recIn.Store(home)
	return c
}

// serialExecGet returns a shardedExec reset for one serial-mode attempt.
// The reset is explicit, field by field: the structs embed mutexes and
// atomics, so a wholesale overwrite is not an option, and every field
// the serial path can have touched must be listed here.
func serialExecGet(r Router) *shardedExec {
	st := serialExecPool.Get().(*shardedExec)
	e, ts, cs := &st.e, &st.ts, &st.cs
	e.args = nil
	e.parent = nil
	e.undo = nil
	e.childN.Store(0)
	e.laneN.Store(0)
	e.argBase = uint8(len(e.argBuf))
	e.SchedData = nil
	e.recIn.Store(nil)
	ts.killed.Store(false)
	ts.killCh = nil
	ts.key = ""
	ts.cross = cs
	cs.r = r
	cs.view = false
	cs.serial = true
	cs.joinedMask.Store(0)
	cs.joined = st.joinedInline[:0]
	cs.scheds = st.schedInline[:0]
	cs.gated = nil
	cs.rgated = -1
	cs.restart = nil
	cs.topIn = st.topInInline[:0]
	cs.replicated = nil
	cs.counted = nil
	cs.pinned = nil
	cs.snapSeq = 0
	return st
}

// runSerialOnce is one attempt of a declared-set transaction: exclusive
// gates around direct execution, with the degenerate shard-ordered
// two-phase commit (validation cannot fail; publication and gate release
// walk the shards in reverse order). It takes over the admit span
// runShardedRetry opened and re-homes it to the transaction's ring.
func (en *Engine) runSerialOnce(ctx context.Context, r Router, sp obs.Span, name string, fn MethodFunc, args []core.Value, readOnly bool, gate []int) (core.Value, error) {
	tr := en.tr
	id := en.allocTop()
	if tr != nil {
		// The exec key is formatted inside the admit span, not before it:
		// the cost is real work of this attempt and must not fall into an
		// unmeasured gap (the phases partition the attempt's wall time).
		sp = sp.WithExecRing(id.Key(), ringKey(id))
	}
	st := serialExecGet(r)
	// The gates, the pooled state and the identity are released inside
	// the final span (a gate handoff can deschedule the releasing
	// goroutine, and anything after the span's End falls into an
	// unmeasured gap); the guarded defer covers a panicking body.
	released := false
	defer func() {
		if !released {
			en.endSerial(st, id)
		}
	}()
	e, cs := &st.e, &st.cs
	e.initTop(en, &st.ts, ctx, id, name, args, readOnly)
	for i, s := range gate {
		if err := lockGateCtx(ctx, r, s); err != nil {
			// Cancelled while queued: hand control back without waiting
			// out the holders. Nothing ran and nothing was recorded yet.
			for j := i - 1; j >= 0; j-- {
				r.UnlockGate(gate[j])
			}
			released = true
			en.endSerial(st, id)
			sp.EndWith("cancel")
			return nil, err
		}
	}
	ordGates(gate)
	cs.gated = gate
	// Record the top-level execution eagerly in the base engine, exactly
	// like an unsharded run records every top in its engine: a
	// transaction that commits without touching any object must still
	// appear in the (stitched) history.
	if err := en.rec.AddExec(id, e.object, e.method); err != nil {
		released = true
		en.endSerial(st, id)
		sp.EndWith("abort")
		return nil, historyAbort(id, err)
	}
	e.recIn.Store(en)
	sp = sp.Next(obs.PhaseExecute)
	ret, err := fn(e.ctx())
	if err == nil {
		err = e.ctxAbortErr()
	}
	sp = sp.Next(obs.PhaseCommitBarrier)
	need, counted := cs.commitState(en)
	if err == nil && need != nil {
		// The body swallowed the restart error from a Call and finished
		// anyway; the attempt still cannot commit with an incomplete
		// shard set.
		err = restartAbort(id, need)
	}
	if err != nil {
		e.runUndo()
		cs.markTopAborted(en, e.id)
		var rs *shardRestartError
		if !errors.As(err, &rs) {
			// Membership restarts are routing, not workload outcomes;
			// everything else counts as an aborted attempt.
			counted.aborts.Add(1)
		}
		released = true
		en.endSerial(st, id)
		sp.EndWith("abort")
		return nil, err
	}
	sp = sp.Next(obs.PhasePublish)
	if en.opts.Versioning {
		publishCommitSharded(e)
	}
	counted.commits.Add(1)
	released = true
	en.endSerial(st, id)
	sp.End()
	return ret, nil
}

// endSerial ends a serial attempt: it releases the gates (in reverse
// order, after publication), returns the pooled state and retires the
// identity.
func (en *Engine) endSerial(st *shardedExec, id core.ExecID) {
	st.cs.releaseGates()
	serialExecPool.Put(st)
	en.releaseTop(id)
}

// joinSerial makes engine en (shard s) a participant of a serial
// transaction: the shard must already be gated (else the attempt
// restarts with the grown set), and the top-level record is replicated
// into en's recorder so abort marking and stitching stay closed per
// shard. No scheduler is consulted — gate exclusivity is the admission.
// After the first join of a shard, re-joining it is one atomic load
// (joinedMask), so the per-step membership check stays off the mutex.
func (cs *crossState) joinSerial(top *Exec, en *Engine, s int) error {
	if s < 64 && cs.joinedMask.Load()&(1<<uint(s)) != 0 {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.joinedLocked(s) {
		return nil
	}
	if cs.restart != nil {
		return restartAbort(top.id, cs.restart)
	}
	if !cs.holdsGateLocked(s) {
		// The declared set missed this shard. Gates cannot be grown here
		// (s may sort below an already-held gate, and we may hold state
		// in gated shards), so the attempt unwinds and restarts with the
		// full set gated in order.
		need := append(append([]int(nil), cs.gated...), s)
		sort.Ints(need)
		cs.restart = need
		return restartAbort(top.id, need)
	}
	if err := cs.recordLocked(en, top); err != nil {
		return historyAbort(top.id, err)
	}
	cs.insertJoinedLocked(s, en)
	if s < 64 {
		cs.joinedMask.Or(1 << uint(s))
	}
	return nil
}

// insertJoinedLocked records {s, en} in the ascending joined list and
// charges the transaction's outcome counter to its first engine. Caller
// holds cs.mu.
func (cs *crossState) insertJoinedLocked(s int, en *Engine) {
	at := len(cs.joined)
	for i, j := range cs.joined {
		if s < j.s {
			at = i
			break
		}
	}
	cs.joined = append(cs.joined, joinedShard{})
	copy(cs.joined[at+1:], cs.joined[at:])
	cs.joined[at] = joinedShard{s: s, en: en}
	if cs.counted == nil {
		cs.counted = en
	}
}

// serialDo executes a local step of a serial transaction: directly
// against the object state (under its latch — monitoring snapshots still
// run concurrently), no scheduler, no lock manager. Recording and undo
// logging are identical to the scheduled path's.
func (cs *crossState) serialDo(e *Exec, object string, inv core.OpInvocation) (core.Value, error) {
	var home *Engine
	var obj *Object
	if e != e.top {
		// A method execution issuing a step on an object of its own
		// engine — the idiomatic local step. Its engine was
		// membership-checked when the message creating it was routed.
		if obj = e.eng.resolveObject(object); obj != nil {
			home = e.eng
		}
	}
	if home == nil {
		var s int
		var err error
		home, s, err = cs.r.HomeOf(object)
		if err != nil {
			return nil, err
		}
		if err := cs.joinSerial(e.top, home, s); err != nil {
			return nil, err
		}
		obj = home.resolveObject(object)
		if obj == nil {
			return nil, fmt.Errorf("engine: unknown object %q", object)
		}
		if e != e.top {
			// A method execution stepping on a foreign engine's object:
			// replicate its record chain there before the step lands.
			// (The top-level record is already there — joinSerial put it.)
			if err := cs.record(home, e); err != nil {
				return nil, err
			}
		}
	}
	if e.txn.readOnly {
		ro, roerr := obj.schema.ReadOnlyOp(inv.Op)
		if roerr != nil {
			return nil, roerr
		}
		if !ro {
			return nil, readOnlyAbort(e, obj.name, inv)
		}
	}
	st, err := obj.ApplyFor(e, inv)
	if err != nil {
		return nil, err
	}
	return st.Ret, nil
}

// serialCall routes a message of a serial transaction: the child method
// execution runs in the target object's home engine (which must be
// gated), without any scheduler hand-off — a child abort undoes the
// child's effects and surfaces as the Call's error, exactly as in the
// scheduled path.
func serialCall(parent *Exec, lane int, object, method string, args []core.Value) (core.Value, error) {
	cs := parent.txn.cross
	var home *Engine
	var ent regEntry
	if parent != parent.top {
		if ent = parent.eng.entry(object); ent.obj != nil {
			home = parent.eng
		}
	}
	if home == nil {
		var s int
		var err error
		home, s, err = cs.r.HomeOf(object)
		if err != nil {
			return nil, err
		}
		if err := cs.joinSerial(parent.top, home, s); err != nil {
			return nil, err
		}
		ent = home.entry(object)
	}
	fn, err := ent.method(object, method)
	if err != nil {
		return nil, err
	}
	if parent != parent.top {
		// A nested cross-engine send: replicate the issuing chain into the
		// target engine. (For a top-level send, joinSerial already put the
		// top record there.)
		if err := cs.record(home, parent); err != nil {
			return nil, err
		}
	}

	child := serialChildGet(home, parent, parent.nextChildID(), object, method, args)
	defer serialChildPool.Put(child)
	msg, err := home.rec.StartMessage(parent.id, child.id, lane, object, method, child.args)
	if err != nil {
		return nil, historyAbort(parent.id, err)
	}
	// The child's record lands in exactly one engine — the one it runs
	// in — so it skips the crossState bookkeeping entirely.
	if err := home.rec.AddExec(child.id, object, method); err != nil {
		home.rec.EndMessage(msg, nil, true)
		return nil, historyAbort(child.id, err)
	}
	ret, err := fn(child.ctx())
	if err != nil {
		child.runUndo()
		cs.markAbortedEverywhere(child.id)
		home.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	// Relative commit: effects become the parent's provisional effects.
	parent.adoptUndo(child)
	home.rec.EndMessage(msg, ret, false)
	return ret, nil
}
