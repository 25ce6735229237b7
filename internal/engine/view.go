// The snapshot read-only fast path (MVCC views).
//
// The paper's semantic-conflict machinery exists to admit more
// concurrency than read/write locking; read-only method executions are
// the limiting case — observers commute with each other by construction —
// and this file exploits it: objects keep a small ring of committed state
// versions (core.VersionRing), every committing writer publishes the
// object states it touched under one global commit sequence number, and a
// view transaction (Engine.RunView) executes against the newest fully
// published sequence number without ever entering the scheduler or the
// lock manager.
//
// Soundness. A version at sequence S is captured only when the committing
// transaction is the object's sole pending writer, so the captured state
// contains the effects of exactly the commits <= S that touched the
// object (commits are sequenced under one publication mutex; uncommitted
// interleavings — commuting writers under 2PL, optimistic schedulers —
// force a gap instead of a wrong capture). A reader that fixes S once and
// resolves every object at S therefore observes one consistent commit
// prefix: no torn reads across objects. Readers that land on a gap or
// fall off the ring refresh S and retry; if the watermark cannot advance
// past the gap the engine falls back to the locked path with read-only
// enforcement, preserving liveness without weakening the snapshot
// guarantee.
//
// Verifiability. View steps are recorded in the history at the version's
// publication watermark (core.Step.Snap/SnapSeq), i.e. *before* the
// regular step that next touched the object, so the offline oracle
// replays them against exactly the committed prefix they observed —
// DB.Verify covers view transactions with no special cases.
package engine

import (
	"context"
	"errors"
	"fmt"

	"objectbase/internal/core"
	"objectbase/internal/obs"
)

// ErrViewDisabled is returned by RunView on an engine built without
// Options.Versioning: no versions are published, so there is nothing
// consistent to read.
var ErrViewDisabled = errors.New("engine: snapshot views disabled (engine not versioning)")

// ErrReadOnlyWrite is wrapped by the abort that fails a read-only
// transaction whose body issued a mutating step. The classification is
// the schema's: operations not declared ReadOnly mutate.
var ErrReadOnlyWrite = errors.New("engine: read-only transaction issued a mutating step")

// ErrSnapshotStale is wrapped by the retriable abort of a view attempt
// whose snapshot could not be resolved on some object (a publication gap,
// or a reader that fell off the version ring). RunView handles it
// internally — refresh and retry, then the locked fallback — so callers
// normally never see it.
var ErrSnapshotStale = errors.New("engine: snapshot no longer resolvable")

// viewSnap is the per-transaction snapshot handle: the global commit
// sequence number the tree reads at (valid once txnState.snapshot is set).
type viewSnap struct {
	seq uint64
}

// viewAttempts bounds snapshot retries before RunView falls back to the
// locked read-only path.
const viewAttempts = 3

func readOnlyAbort(e *Exec, object string, inv core.OpInvocation) error {
	return &AbortError{
		Exec:      e.id,
		Reason:    "read-only violation",
		Retriable: false,
		Err:       fmt.Errorf("%w: %s on %s", ErrReadOnlyWrite, inv, object),
	}
}

func staleAbort(e *Exec, object string, seq uint64) error {
	return &AbortError{
		Exec:      e.id,
		Reason:    "stale snapshot",
		Retriable: true,
		Err:       fmt.Errorf("%w: object %s at seq %d", ErrSnapshotStale, object, seq),
	}
}

// RunView executes a read-only top-level transaction against a consistent
// committed snapshot. The body runs exactly like a regular transaction —
// Ctx.Call invokes registered methods, Ctx.Do issues local steps,
// Ctx.Parallel fans out — but every step is served from the objects'
// version rings at one snapshot sequence number, and any mutating step
// aborts the transaction with an error wrapping ErrReadOnlyWrite.
//
// Stale snapshots (publication gaps from overlapping writers) are retried
// with a refreshed sequence number; when retrying cannot help, the
// transaction falls back to the ordinary scheduled path with read-only
// enforcement, so RunView is always live. The context is honoured as in
// RunCtx.
func (en *Engine) RunView(ctx context.Context, name string, fn MethodFunc, args ...core.Value) (core.Value, error) {
	if !en.opts.Versioning {
		return nil, fmt.Errorf("engine: RunView: %w", ErrViewDisabled)
	}
	lastSeq := ^uint64(0)
	for attempt := 0; attempt < viewAttempts; attempt++ {
		seq := en.pubSeq.Load()
		if seq == lastSeq {
			// The watermark has not advanced; the same gap would stall us
			// again. Take the locked path instead of spinning.
			break
		}
		lastSeq = seq
		ret, err := en.runViewOnce(ctx, name, fn, args, seq)
		if err == nil || !errors.Is(err, ErrSnapshotStale) {
			return ret, err
		}
		// A stale snapshot is an internal refresh, not scheduler
		// contention: it is deliberately kept out of the abort/retry
		// counters so view cells stay comparable to locked ones.
	}
	en.viewFallbacks.Add(1)
	en.tr.Event(obs.PhaseViewFallback, en.backoffRing(), "", "", "snapshot-stale")
	return en.runRetry(ctx, name, fn, args, true)
}

// runViewOnce runs one snapshot attempt at the given sequence number.
func (en *Engine) runViewOnce(ctx context.Context, name string, fn MethodFunc, args []core.Value, seq uint64) (core.Value, error) {
	id := en.allocTop()
	defer en.releaseTop(id)
	tr := en.tr
	sp := tr.StartSpan(obs.PhaseAdmit, ringKey(id), "", "")
	if tr != nil {
		// The exec key is formatted inside the admit span, not before it:
		// the cost is real work of this attempt and must not fall into an
		// unmeasured gap (the phases partition the attempt's wall time).
		sp = sp.WithExec(id.Key())
	}
	e := en.newTop(ctx, id, name, args, true)
	e.txn.snapshot = true
	e.txn.snap.seq = seq
	if err := en.rec.AddExec(e.id, e.object, e.method); err != nil {
		sp.EndWith("abort")
		return nil, historyAbort(e.id, err)
	}
	sp = sp.Next(obs.PhaseExecute)
	defer sp.End()
	ret, err := fn(e.ctx())
	// A goroutine the body leaks must not step once the attempt is over:
	// its reads would land in the history after the view's outcome.
	e.finish()
	if err == nil {
		err = e.ctxAbortErr()
	}
	if err != nil {
		// Nothing to undo and no scheduler to notify: a view transaction
		// has no effects. Mark the record so the oracle excludes its
		// partial reads. Stale snapshots are internal refreshes — only
		// real failures (context, read-only violation, body error) count
		// as aborted attempts.
		en.rec.MarkAborted(e.id)
		if !errors.Is(err, ErrSnapshotStale) {
			en.aborts.Add(1)
		}
		return nil, err
	}
	en.commits.Add(1)
	en.viewCommits.Add(1)
	return ret, nil
}

// viewStep serves one local step of a snapshot transaction from the
// object's version ring: classify against the schema, resolve the
// snapshot, evaluate the (pure) read-only Apply on the immutable version
// state, and record the step at the version's watermark.
func (en *Engine) viewStep(e *Exec, obj *Object, inv core.OpInvocation) (core.Value, error) {
	op, err := obj.schema.Op(inv.Op)
	if err != nil {
		return nil, err
	}
	if !op.ReadOnly {
		return nil, readOnlyAbort(e, obj.name, inv)
	}
	snap := &e.txn.snap
	ring := obj.vers.Load()
	if ring == nil {
		return nil, fmt.Errorf("engine: viewStep on %s: %w", obj.name, ErrViewDisabled)
	}
	v, ok := ring.Lookup(snap.seq)
	if !ok || v.Gap {
		return nil, staleAbort(e, obj.name, snap.seq)
	}
	// Read-only Apply is pure and the version state is immutable, so
	// concurrent evaluation needs no latch.
	ret, _, err := op.Apply(v.State, inv.Args)
	if err != nil {
		return nil, fmt.Errorf("engine: %s on %s (snapshot %d): %w", inv, obj.name, snap.seq, err)
	}
	st := core.StepInfo{Op: inv.Op, Args: inv.Args, Ret: ret}
	if rerr := en.rec.AddViewStep(e.id, obj.name, st, v.ObjSeq, snap.seq); rerr != nil {
		return nil, historyAbort(e.id, rerr)
	}
	return ret, nil
}

// viewCall is the snapshot-mode counterpart of Engine.call: it creates
// the child method execution and records the message, but never touches
// the scheduler and adopts no undo log (there is nothing to undo).
func (en *Engine) viewCall(parent *Exec, lane int, object, method string, args []core.Value) (core.Value, error) {
	fn, err := en.resolve(object, method)
	if err != nil {
		return nil, err
	}
	child := newChild(en, parent, object, method, args)
	msg, err := en.rec.StartMessage(parent.id, child.id, lane, object, method, child.args)
	if err != nil {
		return nil, historyAbort(parent.id, err)
	}
	if err := en.rec.AddExec(child.id, object, method); err != nil {
		en.rec.EndMessage(msg, nil, true)
		return nil, historyAbort(child.id, err)
	}
	ret, err := fn(child.ctx())
	if err != nil {
		en.rec.MarkAborted(child.id)
		en.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	en.rec.EndMessage(msg, ret, false)
	return ret, nil
}

// publishCommit publishes the committed state of every object the
// transaction mutated under one global commit sequence number. The
// global mutex covers only sequence allocation and completion
// bookkeeping; the captures themselves run under each object's own
// latch, so commits against disjoint objects clone in parallel instead
// of serialising the engine on one lock. Readers stay consistent because
// (a) the watermark they snapshot at advances past a sequence number
// only once that commit fully published (contiguous-completion
// tracking), and (b) a capture that lost an ordering race — another
// transaction's uncommitted effects still pending, or a newer sequence
// number already published on the object — degrades to a gap marker,
// never to a wrongly-tagged state. Read-only commits (no undo entries)
// skip publication entirely.
func (en *Engine) publishCommit(e *Exec) {
	objs := e.touchedObjects()
	if len(objs) == 0 {
		return
	}
	en.publishObjects(e.topKey(), objs)
}

// publishObjects sequences and captures the given committed objects under
// this engine's publication counter; the per-engine half of publishCommit,
// shared with the cross-shard commit path (which groups a transaction's
// touched objects by home engine first).
func (en *Engine) publishObjects(topKey string, objs []*Object) {
	ordAcquire(ordRankPub, "pubMu")
	en.pubMu.Lock()
	en.pubNext++
	seq := en.pubNext
	ordRelease(ordRankPub, "pubMu")
	en.pubMu.Unlock()
	for _, o := range objs {
		o.publishVersion(topKey, seq)
	}
	ordAcquire(ordRankPub, "pubMu")
	en.pubMu.Lock()
	en.pubDone[seq] = true
	for en.pubDone[en.pubWm+1] {
		delete(en.pubDone, en.pubWm+1)
		en.pubWm++
	}
	en.pubSeq.Store(en.pubWm)
	ordRelease(ordRankPub, "pubMu")
	en.pubMu.Unlock()
}

// touchedObjects returns the distinct objects carrying the execution's
// provisional effects (its undo log), in first-touch order. The result
// lives in the transaction's inline buffer while it fits, so it is valid
// until the next call.
func (e *Exec) touchedObjects() []*Object {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := e.txn.touched[:0]
	seen := make(map[*Object]bool, 4)
	for _, u := range e.undo {
		if !seen[u.obj] {
			seen[u.obj] = true
			out = append(out, u.obj)
		}
	}
	return out
}

// ViewCommits returns the number of committed snapshot (view) read-only
// transactions.
func (en *Engine) ViewCommits() int64 { return en.viewCommits.Load() }

// ViewFallbacks returns the number of view transactions that could not
// resolve a snapshot and fell back to the locked read-only path.
func (en *Engine) ViewFallbacks() int64 { return en.viewFallbacks.Load() }

// VersionsPublished returns the number of publications that captured a
// committed object state into a version ring.
func (en *Engine) VersionsPublished() int64 { return en.versPublished.Load() }

// VersionGaps returns the number of publications that left a gap instead
// (another writer's uncommitted effects were in the state, or a later
// commit had already published); views landing on one refresh or fall
// back.
func (en *Engine) VersionGaps() int64 { return en.versGaps.Load() }

// VersionRepairs returns the number of gaps an undo replaced with the
// clean committed state once the overlapping writer had drained.
func (en *Engine) VersionRepairs() int64 { return en.versRepairs.Load() }

// Versioning reports whether the engine maintains committed object
// versions (Options.Versioning), i.e. whether RunView is available.
func (en *Engine) Versioning() bool { return en.opts.Versioning }
