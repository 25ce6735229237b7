package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"objectbase/internal/core"
	"objectbase/internal/obs"
)

// MethodFunc is the body of a method: a programme that issues local steps
// (Ctx.Do) and messages (Ctx.Call). Returning an error aborts the method
// execution; the error reaches the parent as the Call's error.
type MethodFunc func(*Ctx) (core.Value, error)

// NoRetry disables automatic retries when set as Options.MaxRetries.
const NoRetry = -1

// Options configures the engine.
type Options struct {
	// MaxRetries bounds automatic retries of top-level transactions
	// aborted for synchronisation reasons (deadlock victims, timestamp
	// rejections, cascades, failed certification). 0 means the default of
	// 100; NoRetry disables retries.
	MaxRetries int
	// RetryBackoff is the base backoff between retries (jittered; doubles
	// up to 64x). Default 100µs.
	RetryBackoff time.Duration
	// TrackDependencies enables the recoverability machinery (touch
	// registration, commit barrier, cascading aborts) needed by
	// schedulers that let transactions observe uncommitted effects.
	// Lock-based schedulers leave it off.
	TrackDependencies bool
	// Recording selects the history observer: RecordFull (default)
	// retains the whole history for the oracle; RecordStats keeps only
	// atomic counters (bounded memory, near-zero per-event cost).
	Recording RecordingMode
	// HistoryLimit caps the number of retained history events (execs +
	// steps + messages) in RecordFull mode; once it would be exceeded,
	// the recording transaction aborts with ErrHistoryLimit instead of
	// the process growing without bound. 0 means unlimited. Ignored
	// under RecordStats.
	HistoryLimit int
	// Versioning maintains a ring of committed state versions per object
	// (published at top-level commit) and enables the snapshot read-only
	// fast path (RunView). Off by default: version publication costs one
	// state clone per mutated object per commit, which pure write
	// workloads should not pay.
	Versioning bool
	// Tracer, when non-nil, receives phase spans from every execution
	// path (the flight recorder). Nil disables tracing; instrumented
	// sites pay one pointer check.
	Tracer *obs.Tracer
	// Shared, when non-nil, plugs the engine into a sharded object
	// space: transaction identities, the history tick clock, and the
	// recoverability tracker come from the space-wide instances so that
	// cross-shard transactions keep one identity, one timestamp order,
	// and one commit barrier across every engine they touch. Nil gives
	// the engine private instances with identical behaviour.
	Shared *Shared
}

// Engine executes nested transactions over an object base under a
// Scheduler, feeding every execution event to a history observer (the
// full recorder by default, atomic counters under RecordStats).
type Engine struct {
	opts  Options
	sched Scheduler

	// reg maps names to objects and methods; transaction paths read it
	// without writing shared memory (see registry).
	reg registry

	rec HistoryObserver
	// lend lets executions hand their inline id and argument buffers to
	// rec: set unless rec is the full recorder, whose history outlives
	// every Exec it names.
	lend bool
	deps *depTracker
	tops *TopAllocator
	tr   *obs.Tracer // nil when tracing is off

	// Version publication (Options.Versioning). pubMu guards only the
	// sequence counter and the completion bookkeeping — never the state
	// captures, which run under their objects' own latches so commits
	// against disjoint objects publish in parallel. pubSeq is the
	// *contiguous* fully-published watermark snapshot readers fix their
	// views at: it advances past a sequence number only once that commit
	// published on every object it touched (pubDone tracks out-of-order
	// completions), so a reader never sees a half-published commit.
	pubMu   sync.Mutex
	pubNext uint64          // last allocated commit sequence number
	pubWm   uint64          // contiguous completion watermark
	pubDone map[uint64]bool // completed seqs above the watermark
	pubSeq  atomic.Uint64   // pubWm, readable without the mutex

	// rngState seeds the per-engine retry-backoff jitter (splitmix64):
	// no global rand lock on the hottest retry path.
	rngState atomic.Uint64

	// stats
	commits        atomic.Int64
	aborts         atomic.Int64
	retries        atomic.Int64
	viewCommits    atomic.Int64
	viewFallbacks  atomic.Int64
	serialRestarts atomic.Int64
	twopcRestarts  atomic.Int64
	// Version-ring health (Options.Versioning): publications that
	// captured a state, publications that left a gap instead, and gaps
	// an undo later repaired. Bumped under the publishing object's latch.
	versPublished atomic.Int64
	versGaps      atomic.Int64
	versRepairs   atomic.Int64
}

// New creates an engine running the given scheduler.
func New(sched Scheduler, opts Options) *Engine {
	if opts.MaxRetries == 0 {
		opts.MaxRetries = 100
	} else if opts.MaxRetries < 0 {
		opts.MaxRetries = 0
	}
	if opts.RetryBackoff <= 0 {
		opts.RetryBackoff = 100 * time.Microsecond
	}
	var clock *atomic.Int64
	tops := NewTopAllocator()
	deps := newDepTracker(opts.TrackDependencies)
	if opts.Shared != nil {
		clock = &opts.Shared.clock
		tops = opts.Shared.tops
		deps = opts.Shared.depsFor(opts.TrackDependencies)
	}
	var rec HistoryObserver
	if opts.Recording == RecordStats {
		rec = newStatsObserver()
	} else {
		rec = newRecorder(opts.HistoryLimit, clock)
	}
	en := &Engine{
		opts:    opts,
		sched:   sched,
		rec:     rec,
		lend:    opts.Recording == RecordStats,
		deps:    deps,
		tops:    tops,
		tr:      opts.Tracer,
		pubDone: make(map[uint64]bool),
	}
	en.reg.objects = make(map[string]*Object)
	en.reg.methods = make(map[string]map[string]MethodFunc)
	en.rngState.Store(uint64(time.Now().UnixNano()))
	return en
}

// Recording returns the engine's history recording mode.
func (en *Engine) Recording() RecordingMode { return en.opts.Recording }

// ObserverStats returns the history observer's event counters; they are
// maintained in both recording modes.
func (en *Engine) ObserverStats() ObserverStats { return en.rec.EventStats() }

// historyAbort converts an observer refusal (history limit breached)
// into the non-retriable abort that fails the issuing transaction fast.
func historyAbort(id core.ExecID, err error) error {
	return &AbortError{Exec: id, Reason: "history limit", Retriable: false, Err: err}
}

// allocTop assigns the next top-level transaction identity and registers
// it live. Under Options.Shared the allocator is the space-wide one, so
// identities — and hence hierarchical timestamps — stay globally unique
// and monotone across shards.
func (en *Engine) allocTop() core.ExecID { return en.tops.Alloc() }

func (en *Engine) releaseTop(id core.ExecID) { en.tops.Release(id) }

// TopCount returns the number of top-level transaction identities assigned
// so far (space-wide under Options.Shared).
func (en *Engine) TopCount() int32 { return en.tops.Count() }

// MinLiveTop returns a conservative lower bound on the smallest top-level
// transaction number still in flight, or the next number to be assigned
// when none is. Every transaction with a smaller number has finished —
// the paper's low-water condition for discarding timestamp information
// (Section 5.2). Under Options.Shared the bound is global across shards.
func (en *Engine) MinLiveTop() int32 { return en.tops.MinLive() }

// Scheduler returns the engine's scheduler.
func (en *Engine) Scheduler() Scheduler { return en.sched }

// Registrar is the object/method registration surface: an Engine, or a
// sharded space (internal/shard.Space) routing each registration to the
// object's home engine. Workload setup code programs against it so the
// same scenario populates either.
type Registrar interface {
	AddObject(name string, sc *core.Schema, initial core.State) *Object
	Register(object, method string, fn MethodFunc)
}

// Commits returns the number of committed top-level transactions.
func (en *Engine) Commits() int64 { return en.commits.Load() }

// Aborts returns the number of aborted top-level attempts.
func (en *Engine) Aborts() int64 { return en.aborts.Load() }

// Retries returns the number of retried top-level attempts.
func (en *Engine) Retries() int64 { return en.retries.Load() }

// SerialRestarts returns the number of serial fast-path attempts that
// restarted because the declared object set proved incomplete.
func (en *Engine) SerialRestarts() int64 { return en.serialRestarts.Load() }

// TwoPCRestarts returns the number of cross-shard attempts that
// restarted 2PC after discovering new shards mid-flight.
func (en *Engine) TwoPCRestarts() int64 { return en.twopcRestarts.Load() }

// Tracer returns the engine's flight recorder (nil when tracing is
// off).
func (en *Engine) Tracer() *obs.Tracer { return en.tr }

// ringKey derives the flight-recorder ring from a transaction identity:
// the top-level transaction number, so a transaction's spans across
// engines and the lock manager land on one timeline.
func ringKey(id core.ExecID) uint64 { return uint64(uint32(id[0])) }

// Run executes a top-level transaction (a method of the environment). It
// retries synchronisation aborts with fresh transaction identities up to
// MaxRetries; user aborts and programming errors are returned as-is.
func (en *Engine) Run(name string, fn MethodFunc, args ...core.Value) (core.Value, error) {
	return en.RunCtx(context.Background(), name, fn, args...)
}

// RunCtx is Run with cancellation and deadline support: the transaction is
// aborted (non-retriably) at the next step, message, or commit boundary
// once ctx is done, and retry backoff sleeps are interrupted. The returned
// error unwraps to ctx.Err() so callers can errors.Is against
// context.Canceled / context.DeadlineExceeded.
func (en *Engine) RunCtx(ctx context.Context, name string, fn MethodFunc, args ...core.Value) (core.Value, error) {
	return en.runRetry(ctx, name, fn, args, false)
}

// jitter draws from the engine's private splitmix64 stream. The retry
// path is the engine's most contended: the global math/rand source would
// serialise every backing-off transaction on one lock.
func (en *Engine) jitter() uint64 {
	x := en.rngState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// backoffRing picks a flight-recorder ring for spans recorded between
// attempts, when no transaction identity exists yet.
func (en *Engine) backoffRing() uint64 {
	if en.tr == nil {
		return 0
	}
	return en.jitter()
}

// backoffDelay picks the jittered sleep before the next retry. The floor
// (an eighth of the current backoff, at least a microsecond) prevents the
// zero-sleep draws that used to turn contended retries into a spin storm.
func (en *Engine) backoffDelay(backoff time.Duration) time.Duration {
	floor := backoff / 8
	if floor < time.Microsecond {
		floor = time.Microsecond
	}
	if floor > backoff {
		floor = backoff
	}
	span := uint64(backoff-floor) + 1
	return floor + time.Duration(en.jitter()%span)
}

// runRetry is the retry loop shared by RunCtx and the read-only fallback
// of RunView; readOnly transactions have Ctx.Do reject mutating steps.
func (en *Engine) runRetry(ctx context.Context, name string, fn MethodFunc, args []core.Value, readOnly bool) (core.Value, error) {
	backoff := en.opts.RetryBackoff
	for attempt := 0; ; attempt++ {
		// The admit span opens before anything else the attempt does: the
		// cancellation check, identity allocation and Exec construction are
		// real per-attempt work and must land inside a measured phase for
		// the phase sums to reconcile with the driver's latency histogram.
		// runOnce takes ownership of the span and re-homes it to the
		// transaction's ring once the identity exists.
		sp := en.tr.StartSpan(obs.PhaseAdmit, 0, "", "")
		if err := ctx.Err(); err != nil {
			sp.EndWith("cancel")
			return nil, err
		}
		ret, err := en.runOnce(ctx, name, fn, args, readOnly, sp)
		if err == nil {
			return ret, nil
		}
		if !Retriable(err) || attempt >= en.opts.MaxRetries {
			return nil, err
		}
		sp = en.tr.StartSpan(obs.PhaseRetryBackoff, en.backoffRing(), "", "")
		t := time.NewTimer(en.backoffDelay(backoff))
		select {
		case <-t.C:
			sp.End()
		case <-ctx.Done():
			t.Stop()
			sp.EndWith("cancel")
			return nil, ctx.Err()
		}
		// Count the retry only once the backoff survived cancellation and
		// another attempt is actually about to run.
		en.retries.Add(1)
		if backoff < 64*en.opts.RetryBackoff {
			backoff *= 2
		}
	}
}

// runOnce executes one top-level attempt. It receives the already-open
// admit span from runRetry and hands the phases off back-to-back
// (Span.Next) so they partition the attempt's wall time — the
// reconciliation invariant the trace tests check.
func (en *Engine) runOnce(ctx context.Context, name string, fn MethodFunc, args []core.Value, readOnly bool, sp obs.Span) (core.Value, error) {
	id := en.allocTop()
	// The identity and dependency cleanups run inside the publish span on
	// the commit path (they are real per-attempt work, and anything after
	// the final span's End falls into an unmeasured gap); the guarded
	// defers cover the abort and panic paths.
	released := false
	defer func() {
		if !released {
			en.releaseTop(id)
		}
	}()
	tr := en.tr
	if tr != nil {
		// The exec key is formatted inside the admit span, not before it:
		// the cost is real work of this attempt and must not fall into an
		// unmeasured gap (the phases partition the attempt's wall time).
		sp = sp.WithExecRing(id.Key(), ringKey(id))
	}
	e := en.newTop(ctx, id, name, args, readOnly)
	if err := en.rec.AddExec(e.id, e.object, e.method); err != nil {
		sp.EndWith("abort")
		return nil, historyAbort(e.id, err)
	}
	en.deps.beginTop(e)
	forgotten := false
	defer func() {
		if !forgotten {
			en.deps.forget(e)
		}
	}()
	sp = sp.Next(obs.PhaseScheduleWait)
	if err := en.sched.Begin(e); err != nil {
		en.abortExec(e, err)
		sp.EndWith("abort")
		return nil, err
	}
	sp = sp.Next(obs.PhaseExecute)
	ret, err := fn(e.ctx())
	if err == nil && e.Killed() {
		err = &AbortError{Exec: id, Reason: "cascade", Retriable: true, Err: ErrKilled}
	}
	if err == nil {
		// A transaction whose context expired must not commit even if its
		// body happened to finish.
		err = e.ctxAbortErr()
	}
	sp = sp.Next(obs.PhaseCommitBarrier)
	if err == nil {
		// Recoverability barrier: all observed transactions must commit
		// first.
		err = en.deps.commitBarrier(e)
	}
	if err == nil {
		// Scheduler commit (certifiers validate here).
		e.finish()
		err = en.sched.Commit(e)
		if err != nil && !Retriable(err) {
			err = &AbortError{Exec: id, Reason: "certification", Retriable: true, Err: err}
		}
	}
	if err != nil {
		en.abortExec(e, err)
		sp.EndWith("abort")
		return nil, err
	}
	en.deps.commitTop(e)
	sp = sp.Next(obs.PhasePublish)
	if en.opts.Versioning {
		// Publish the committed state of every object this transaction
		// mutated, under the next global commit sequence number, for the
		// snapshot read-only fast path.
		en.publishCommit(e)
	}
	en.commits.Add(1)
	en.deps.forget(e)
	forgotten = true
	en.releaseTop(id)
	released = true
	sp.End()
	return ret, nil
}

// call implements Ctx.Call: create the child execution, run the method
// body, commit or abort it.
func (en *Engine) call(parent *Exec, lane int, object, method string, args []core.Value) (core.Value, error) {
	if cs := parent.txn.cross; cs != nil {
		// Sharded space: route the message to the target object's home
		// engine (snapshot views pin their single shard).
		if cs.view {
			return crossViewCall(parent, lane, object, method, args)
		}
		return crossCall(parent, lane, object, method, args)
	}
	if parent.txn.snapshot {
		// Snapshot transactions never enter the scheduler; their child
		// method executions run against the same snapshot.
		return en.viewCall(parent, lane, object, method, args)
	}
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

	if err := en.sched.Begin(child); err != nil {
		en.abortExec(child, err)
		en.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	ret, err := fn(child.ctx())
	if err == nil {
		err = en.sched.Commit(child)
	}
	if err != nil {
		en.abortExec(child, err)
		en.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	// Relative commit: effects become the parent's provisional effects.
	parent.adoptUndo(child)
	en.rec.EndMessage(msg, ret, false)
	return ret, nil
}

// abortExec aborts an execution: cascade dependents first (top-level with
// tracking only), then undo own effects newest-first, notify the
// scheduler, and mark the record (semantics (a) and (b)).
func (en *Engine) abortExec(e *Exec, cause error) {
	if e.parent == nil {
		e.finish()
		// Top-level: cascade dependents before undoing (see depTracker).
		for _, dep := range en.deps.beginAbort(e) {
			dep.exec.kill()
			//oblint:allow ctxwait -- cascade joins a dependent just killed above; its abort path cannot block indefinitely, and abandoning it here would undo state out of order
			<-dep.done
		}
		en.aborts.Add(1)
	}
	e.runUndo()
	en.sched.Abort(e)
	en.rec.MarkAborted(e.id)
	if e.parent == nil {
		en.deps.finishAbort(e)
	}
	_ = cause
}

// TrackTouch registers a prospective step with the recoverability tracker
// (see depTracker). Schedulers that admit access to uncommitted effects
// must call it under the object's latch, before applying the step, with
// the step's conflict scope (core.ScopeOf — the caller has computed it
// already); a returned error (always retriable) means the step must not
// be applied and the execution must abort. No-op when dependency tracking
// is disabled.
func (en *Engine) TrackTouch(e *Exec, obj *Object, scope string, inv core.OpInvocation) error {
	if !en.deps.enabled {
		return nil
	}
	readOnly := false
	if op, err := obj.schema.Op(inv.Op); err == nil {
		readOnly = op.ReadOnly
	}
	return en.deps.touch(e, scope, obj.schema.Conflicts, inv, readOnly)
}

// DepStats gauges the recoverability tracker: the uncommitted writes it
// holds and the top-level transactions registered with it right now (both
// zero when tracking is disabled or nothing is live). Space-wide under
// Options.Shared.
func (en *Engine) DepStats() (touches, txns int) {
	en.deps.mu.Lock()
	defer en.deps.mu.Unlock()
	return en.deps.log.Len(), len(en.deps.tops)
}

// History returns a snapshot of the run's recorded history, or nil when
// none is available (RecordStats mode, or a full-mode run past its
// HistoryLimit) — use HistoryErr to distinguish. It is safe to call
// concurrently with running transactions (the snapshot is taken under
// the recorder lock and shares no mutable records with the live run),
// but a mid-run snapshot reflects in-flight transactions, so oracle
// verdicts are only meaningful on a quiescent engine.
func (en *Engine) History() *core.History {
	h, _ := en.HistoryErr()
	return h
}

// HistoryErr is History with the failure reason: the error wraps
// ErrHistoryDisabled under RecordStats and ErrHistoryLimit once a
// full-mode run overflowed its cap.
func (en *Engine) HistoryErr() (*core.History, error) {
	if en.opts.Recording == RecordStats {
		// Refuse before snapshotting final states: monitoring loops on a
		// stats-only engine must not contend the object latches.
		return nil, ErrHistoryDisabled
	}
	en.reg.mu.Lock()
	objs := make(map[string]*Object, len(en.reg.objects))
	for k, v := range en.reg.objects {
		objs[k] = v
	}
	en.reg.mu.Unlock()
	finals := make(map[string]core.State, len(objs))
	for name, o := range objs {
		finals[name] = o.StateSnapshot()
	}
	return en.rec.Snapshot(finals)
}

// RunMany executes n transactions across p goroutines (round-robin over
// the given bodies) and waits for completion; the convenience loop of
// tests and experiments. It returns the first non-retriable error.
func (en *Engine) RunMany(p, n int, bodies ...func(i int) (string, MethodFunc, []core.Value)) error {
	if p <= 0 {
		p = 1
	}
	var wg sync.WaitGroup
	errCh := make(chan error, p)
	next := atomic.Int64{}
	for w := 0; w < p; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				name, fn, args := bodies[i%len(bodies)](i)
				if _, err := en.Run(name, fn, args...); err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
		return nil
	}
}

// ErrUnknown reports an unknown object or method.
var ErrUnknown = errors.New("engine: unknown object or method")
