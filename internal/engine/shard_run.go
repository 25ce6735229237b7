// Cross-shard transaction execution.
//
// A sharded object space (internal/shard) partitions the objects over N
// engines. Each shard carries a reader/writer *gate*; a transaction runs
// in one of two modes against it:
//
// Declared mode (serial commit fast path). A transaction whose object
// set is declared up front (DB.Txn, DB.ExecTouching, scenario op
// streams) resolves the set to its shards and write-locks those gates in
// directory (ascending index) order before executing. Holding every gate
// exclusively, it is temporally alone on its shards: no other
// transaction — declared or not — can overlap it there. Under that
// exclusivity the per-shard scheduler, lock manager, and recoverability
// tracker are provably redundant (any conflicting transaction is wholly
// before or wholly after this one, so no serialisation cycle can involve
// it), and the transaction executes its steps directly against the
// object states — undo-logged for abort, recorded for the oracle,
// published for snapshot views — at a fraction of the scheduled path's
// cost. Commit is the degenerate shard-ordered two-phase commit: phase 1
// (validation) cannot fail, phase 2 publishes versions and drops the
// gates in reverse order. Touching a shard outside the declared set
// aborts the attempt and restarts it with the grown set pre-gated — the
// set strictly grows, so restarts are bounded by the shard count.
//
// Discovery mode (scheduled path). A transaction without a declaration
// read-locks the gate of the first shard it touches and runs under that
// shard's own scheduler and lock manager — concurrent with every other
// discovery-mode transaction of the shard, exactly like an unsharded
// engine. If it touches a second shard it aborts (undoing its effects)
// and restarts as a cross-shard transaction with the learned shard set
// write-gated in ascending order: a protocol restart, not a
// synchronisation retry, so it skips the backoff and the retry counters.
//
// Cross-shard discovery restarts keep the scheduled path: they hold
// their write gates (mutually exclusive with any overlapping gate
// holder, so a waits-for cycle can never span engines — every bridge of
// such a cycle would be a transaction holding a lock in one engine while
// waiting in another, and two consecutive bridges share a shard) while
// still running under the per-shard schedulers, committing by the full
// shard-ordered two-phase commit: phase 1 is validation — schedulers
// whose commit can fail (the optimistic certifier) are shared across the
// space, a single instance whose one Commit call decides for every shard
// at once — and phase 2 walks the joined shards in directory order
// releasing locks (rule 5 at top level).
//
// In both modes, ordered acquisition keeps the gates deadlock-free, and
// blocking on a gate only ever happens while the transaction holds no
// locks outside already-gated shards. History records land in every
// joined engine's recorder (with the ancestor chain replicated so abort
// marking stays closed per shard); shard.Stitch reassembles them into
// one history for the oracle.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"objectbase/internal/core"
	"objectbase/internal/obs"
)

// Router is the engine-facing surface of a sharded object space: the
// object directory, the shard gates, and the engine set. Implemented by
// shard.Space.
type Router interface {
	// HomeOf resolves an object name to its owning engine and shard
	// index. The directory is deterministic: the same name always maps
	// to the same shard.
	HomeOf(object string) (*Engine, int, error)
	// NumShards returns the number of shards in the space.
	NumShards() int
	// Base returns shard 0's engine: the default home for bookkeeping
	// that needs an engine before any object was touched (retry policy,
	// counters of transactions that never joined a shard).
	Base() *Engine
	// TryGate attempts a non-blocking exclusive acquisition of shard s's
	// gate.
	TryGate(s int) bool
	// LockGate blocks until shard s's gate is held exclusively. Callers
	// must acquire gates in ascending shard order.
	LockGate(s int)
	// UnlockGate releases an exclusively held gate.
	UnlockGate(s int)
	// RLockGate acquires shard s's gate shared: the holder runs under the
	// shard's own scheduler and lock manager, concurrently with other
	// shared holders, excluded only from exclusively gated windows.
	RLockGate(s int)
	// TryRGate attempts a non-blocking shared acquisition.
	TryRGate(s int) bool
	// RUnlockGate releases a shared gate.
	RUnlockGate(s int)
}

// lockGateCtx acquires shard s's gate exclusively, honouring ctx while
// queued: a gate wait is bounded only by other transactions' durations,
// so a cancelled caller must get control back without waiting them out
// (every other blocking point — lock waits, retry backoff — already
// honours ctx). The fast path is a plain try; only contended
// acquisitions pay the watcher goroutine, and an abandoned acquisition
// releases itself the moment it lands.
func lockGateCtx(ctx context.Context, r Router, s int) error {
	if r.TryGate(s) {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		r.LockGate(s)
		return nil
	}
	acquired := make(chan struct{})
	go func() {
		r.LockGate(s)
		close(acquired)
	}()
	select {
	case <-acquired:
		return nil
	case <-done:
		go func() {
			//oblint:allow ctxwait -- abandoned-acquire reaper: the blocked LockGate cannot be interrupted, so this detached goroutine must outwait it to release the gate
			<-acquired
			r.UnlockGate(s)
		}()
		return ctx.Err()
	}
}

// rLockGateCtx is lockGateCtx for the shared side of the gate.
func rLockGateCtx(ctx context.Context, r Router, s int) error {
	if r.TryRGate(s) {
		return nil
	}
	done := ctx.Done()
	if done == nil {
		r.RLockGate(s)
		return nil
	}
	acquired := make(chan struct{})
	go func() {
		r.RLockGate(s)
		close(acquired)
	}()
	select {
	case <-acquired:
		return nil
	case <-done:
		go func() {
			//oblint:allow ctxwait -- abandoned-acquire reaper: the blocked RLockGate cannot be interrupted, so this detached goroutine must outwait it to release the gate
			<-acquired
			r.RUnlockGate(s)
		}()
		return ctx.Err()
	}
}

// shardRestartError asks the retry loop to restart the transaction with
// the given shard set pre-gated. It is a routing-protocol restart, not a
// synchronisation abort: no backoff, no retry counter, and the need set
// strictly grows, so restarts are bounded by the shard count.
type shardRestartError struct {
	need []int // sorted ascending
}

func (e *shardRestartError) Error() string {
	return fmt.Sprintf("cross-shard restart: shard set %v must be gated up front", e.need)
}

func restartAbort(id core.ExecID, need []int) error {
	return &AbortError{Exec: id, Reason: "cross-shard discovery", Retriable: true,
		Err: &shardRestartError{need: need}}
}

// errCrossShardView marks a snapshot view that touched a second shard:
// per-shard publication sequences cannot form one cross-shard snapshot,
// so the view falls back to the locked read-only path.
var errCrossShardView = errors.New("engine: snapshot view touched a second shard")

// crossState is the per-transaction routing state of a sharded run,
// carried on the top-level Exec. Mutable fields are guarded by mu; the
// body's internal parallelism (Ctx.Parallel) may join shards
// concurrently. The state is deliberately slim — a slice of joined
// shards, lazily allocated bookkeeping — because every transaction of a
// sharded space carries one, and the common transaction joins exactly
// one shard.
type crossState struct {
	r      Router
	view   bool // snapshot view mode (single-shard pin, no scheduler)
	serial bool // declared-set serial mode (exclusive gates, no scheduler)

	// joinedMask is the lock-free fast path of the per-step membership
	// check: bit s set once shard s (s < 64) is joined and the top-level
	// record landed in its engine. Higher shard indexes take the locked
	// path.
	joinedMask atomic.Uint64

	mu      sync.Mutex
	joined  []joinedShard // ascending by shard index
	scheds  []Scheduler   // distinct scheduler instances, join order
	gated   []int         // shard gates held exclusively, ascending
	rgated  int           // shard gate held shared (discovery mode), -1 none
	restart []int         // pending restart need (sticky once set)
	// topIn tracks the engines holding the top-level record (the only
	// record replicated on every cross-shard transaction — keyed by
	// pointer scan, no per-key allocation); replicated tracks deeper
	// ancestors replicated into engines beyond their first (Exec.recIn is
	// the lock-free single-engine fast path), which only nested
	// cross-engine subtrees ever populate.
	topIn      []*Engine
	replicated map[*Engine]map[string]bool
	counted    *Engine // engine charged with the commit/abort counter
	pinned     *Engine // view mode: the single shard the view reads
	snapSeq    uint64  // view mode: pinned publication sequence
}

type joinedShard struct {
	s  int
	en *Engine
}

// shardedExec bundles a sharded transaction's execution record, its
// transaction state and its routing state into one allocation — all are
// born and die together on every attempt of every transaction of a
// sharded space.
type shardedExec struct {
	e  Exec
	ts txnState
	cs crossState
	// joinedInline backs cs.joined for the overwhelmingly common shard
	// fan-outs (one or two shards) without a separate allocation.
	joinedInline [2]joinedShard
	schedInline  [2]Scheduler
	topInInline  [2]*Engine
}

func newShardedExec(r Router, view bool) *shardedExec {
	st := &shardedExec{}
	st.cs.r = r
	st.cs.view = view
	st.cs.rgated = -1
	st.cs.joined = st.joinedInline[:0]
	st.cs.scheds = st.schedInline[:0]
	st.cs.topIn = st.topInInline[:0]
	st.ts.cross = &st.cs
	return st
}

func (cs *crossState) holdsGateLocked(s int) bool {
	for _, g := range cs.gated {
		if g == s {
			return true
		}
	}
	return false
}

func (cs *crossState) joinedLocked(s int) bool {
	for _, j := range cs.joined {
		if j.s == s {
			return true
		}
	}
	return false
}

// join makes engine en (shard s) a participant of the transaction,
// enforcing the gate protocol, registering the top-level record with
// en's recorder, and calling Begin on en's scheduler the first time that
// scheduler instance is seen.
func (cs *crossState) join(top *Exec, en *Engine, s int) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.joinedLocked(s) {
		return nil
	}
	if cs.restart != nil {
		// A restart is already pending: fail every further step fast so
		// the attempt unwinds.
		return restartAbort(top.id, cs.restart)
	}
	// A scheduled transaction must hold a gate for every shard it
	// touches: the first shard of an undeclared transaction is entered
	// shared (concurrent with the shard's other scheduled transactions),
	// while every multi-shard set is held exclusively — a lock in a
	// shared shard held while blocking on a further gate is exactly the
	// gate-vs-lock cycle the exclusivity invariant rules out.
	if !cs.holdsGateLocked(s) {
		switch {
		case len(cs.joined) == 0 && len(cs.gated) == 0:
			// First shard of an undeclared transaction: enter it shared.
			// We hold no locks yet (steps only land in joined shards), so
			// blocking here is safe — but only as long as the caller still
			// wants the work (gate waits are bounded by other transactions'
			// durations, so they must honour cancellation).
			if err := rLockGateCtx(top.Context(), cs.r, s); err != nil {
				return &AbortError{Exec: top.id, Reason: "context", Retriable: false, Err: err}
			}
			cs.rgated = s
		case cs.rgated >= 0:
			// A second shard under a shared first gate: the shared gate
			// cannot be upgraded in place (an exclusive holder may already
			// be draining us), so the attempt unwinds and restarts with
			// the learned set gated exclusively in ascending order.
			want := make([]int, 0, len(cs.joined)+1)
			for _, j := range cs.joined {
				want = append(want, j.s)
			}
			want = append(want, s)
			sort.Ints(want)
			cs.restart = want
			return restartAbort(top.id, want)
		case s > cs.gated[len(cs.gated)-1]:
			// Every lock we hold lives in a gated shard below s, so a
			// blocking acquisition keeps the ascending-order invariant:
			// whoever holds gate s cannot be waiting on any lock of ours
			// without holding one of our gates.
			if err := lockGateCtx(top.Context(), cs.r, s); err != nil {
				return &AbortError{Exec: top.id, Reason: "context", Retriable: false, Err: err}
			}
			ordGateAppend(cs.gated, s)
			cs.gated = append(cs.gated, s)
		default:
			need := append(append([]int(nil), cs.gated...), s)
			sort.Ints(need)
			cs.restart = need
			return restartAbort(top.id, need)
		}
	}
	if err := cs.recordLocked(en, top); err != nil {
		return historyAbort(top.id, err)
	}
	seen := false
	for _, sch := range cs.scheds {
		if sch == en.sched {
			seen = true
			break
		}
	}
	if !seen {
		cs.scheds = append(cs.scheds, en.sched)
		if err := en.sched.Begin(top); err != nil {
			return err
		}
	}
	cs.insertJoinedLocked(s, en)
	return nil
}

// recordedInLocked reports whether e's record already sits in en's
// recorder. Caller holds cs.mu.
func (cs *crossState) recordedInLocked(en *Engine, e *Exec) bool {
	if e.recIn.Load() == en {
		return true
	}
	if e.parent == nil {
		// The top-level record is the one record every cross-shard
		// transaction replicates: a pointer scan over the joined engines
		// beats a per-key map.
		for _, in := range cs.topIn {
			if in == en {
				return true
			}
		}
		return false
	}
	if m := cs.replicated[en]; m != nil {
		return m[e.id.Key()]
	}
	return false
}

// recordLocked replicates the records of e and its ancestors into en's
// recorder (top first), so that parent links, abort marking, and message
// slots stay closed within every engine the transaction touched. Caller
// holds cs.mu.
func (cs *crossState) recordLocked(en *Engine, e *Exec) error {
	var chainBuf [8]*Exec // nesting deeper than 8 grows, but never allocates on the common path
	chain := chainBuf[:0]
	for x := e; x != nil; x = x.parent {
		if cs.recordedInLocked(en, x) {
			break
		}
		chain = append(chain, x)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		x := chain[i]
		if err := en.rec.AddExec(x.id, x.object, x.method); err != nil {
			return err
		}
		switch {
		case x.recIn.Load() == nil:
			x.recIn.Store(en)
		case x.parent == nil:
			cs.topIn = append(cs.topIn, en)
		default:
			if cs.replicated == nil {
				cs.replicated = make(map[*Engine]map[string]bool)
			}
			m := cs.replicated[en]
			if m == nil {
				m = make(map[string]bool)
				cs.replicated[en] = m
			}
			m[x.id.Key()] = true
		}
	}
	return nil
}

// record ensures e (and its ancestors) are on record in en's recorder.
// The single-engine case — an execution recorded exactly where it runs,
// i.e. every execution of a single-shard transaction — is a lock-free
// pointer compare.
func (cs *crossState) record(en *Engine, e *Exec) error {
	if e.recIn.Load() == en {
		return nil
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.recordLocked(en, e)
}

// restartNeed returns the pending restart shard set, or nil.
func (cs *crossState) restartNeed() []int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.restart
}

// commitState returns, in one locked read, what the commit path needs:
// the pending restart set and the engine charged with the outcome
// counter (base when no shard was ever joined).
func (cs *crossState) commitState(base *Engine) (restart []int, counted *Engine) {
	cs.mu.Lock()
	restart = cs.restart
	counted = cs.counted
	cs.mu.Unlock()
	if counted == nil {
		counted = base
	}
	return restart, counted
}

// joinedSnapshot returns a copy of the joined-shard list, safe to
// iterate without the lock. A copy, not the live slice: mid-body abort
// paths (a child abort under Ctx.Parallel) iterate while another lane's
// join may still be shifting elements of the same backing array in
// place.
func (cs *crossState) joinedSnapshot() []joinedShard {
	cs.mu.Lock()
	joined := append([]joinedShard(nil), cs.joined...)
	cs.mu.Unlock()
	return joined
}

// forEachSched visits the distinct scheduler instances of the joined
// shards in ascending shard order — the 2PC phase order — without
// allocating (duplicates are skipped by rescanning the prefix, which is
// tiny: the shard count).
func (cs *crossState) forEachSched(f func(Scheduler) error) error {
	joined := cs.joinedSnapshot()
	for i, j := range joined {
		dup := false
		for _, prev := range joined[:i] {
			if prev.en.sched == j.en.sched {
				dup = true
				break
			}
		}
		if dup {
			continue
		}
		if err := f(j.en.sched); err != nil {
			return err
		}
	}
	return nil
}

// markAbortedEverywhere marks e aborted in every joined engine's
// recorder (each holds the part of e's subtree that ran there, with the
// ancestor chain replicated, so per-shard recursion covers everything).
func (cs *crossState) markAbortedEverywhere(id core.ExecID) {
	for _, j := range cs.joinedSnapshot() {
		j.en.rec.MarkAborted(id)
	}
}

// markTopAborted marks an aborting top-level execution in every recorder
// holding its record: the joined engines plus the base engine, which
// records every top eagerly (including tops that never joined a shard).
func (cs *crossState) markTopAborted(base *Engine, id core.ExecID) {
	base.rec.MarkAborted(id)
	for _, j := range cs.joinedSnapshot() {
		if j.en != base {
			j.en.rec.MarkAborted(id)
		}
	}
}

// countEngine returns the engine charged with the transaction's
// commit/abort counter: the first shard it joined, or the base engine
// when it never touched an object. Summing the per-engine counters then
// counts every transaction exactly once.
func (cs *crossState) countEngine(base *Engine) *Engine {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.counted != nil {
		return cs.counted
	}
	return base
}

// releaseGates drops every held shard gate (after locks were released).
func (cs *crossState) releaseGates() {
	cs.mu.Lock()
	gated := cs.gated
	rgated := cs.rgated
	cs.gated = nil
	cs.rgated = -1
	cs.mu.Unlock()
	for i := len(gated) - 1; i >= 0; i-- {
		cs.r.UnlockGate(gated[i])
	}
	if rgated >= 0 {
		cs.r.RUnlockGate(rgated)
	}
}

// RunSharded executes a top-level transaction against a sharded object
// space: Ctx.Do and Ctx.Call route through the space's directory, and
// the cross-shard protocol above keeps the run serialisable and
// deadlock-free across engines. touches optionally declares the objects
// the transaction will access: a declared set resolves to its shards,
// which are gated exclusively up front (in directory order) and executed
// on the serial commit fast path — no per-object locks, no scheduler,
// no discovery restarts. Without a declaration the transaction runs
// under its home shard's scheduler. Retry semantics match Engine.RunCtx.
func RunSharded(ctx context.Context, r Router, name string, fn MethodFunc, args []core.Value, touches []string) (core.Value, error) {
	return runShardedRetry(ctx, r, name, fn, args, touches, false)
}

// pregateFor resolves a touch declaration to the sorted shard set it
// spans, or nil when nothing resolves (undeclared, or every name
// unknown). Unknown objects are ignored: a wrong hint degrades to the
// serial path's membership restart, it never breaks.
func pregateFor(r Router, touches []string) []int {
	if len(touches) == 0 {
		return nil
	}
	set := make([]int, 0, len(touches))
	for _, o := range touches {
		en, s, err := r.HomeOf(o)
		if err != nil || en.resolveObject(o) == nil {
			// Unknown object: the directory would still hash it somewhere,
			// but gating an unrelated shard for a name that cannot be
			// touched would serialise innocent traffic for nothing.
			continue
		}
		dup := false
		for _, have := range set {
			if have == s {
				dup = true
				break
			}
		}
		if !dup {
			set = append(set, s)
		}
	}
	sort.Ints(set)
	return set
}

func runShardedRetry(ctx context.Context, r Router, name string, fn MethodFunc, args []core.Value, touches []string, readOnly bool) (core.Value, error) {
	base := r.Base()
	var pregate []int
	serial := false
	backoff := base.opts.RetryBackoff
	restarts := 0
	var scratch *restartScratch
	defer func() {
		if scratch != nil {
			restartScratchPool.Put(scratch)
		}
	}()
	for attempt := 0; ; attempt++ {
		// The admit span opens before anything else the attempt does, and
		// the attempt takes it over, as runOnce does from runRetry. The
		// first attempt's span also covers resolving the touch set: that
		// is real per-transaction work, and anything outside a span falls
		// into an unmeasured gap.
		sp := base.tr.StartSpan(obs.PhaseAdmit, 0, "", "")
		if attempt == 0 && restarts == 0 {
			pregate = pregateFor(r, touches)
			// A declared object set runs serially under exclusive gates,
			// while an undeclared transaction runs scheduled, and keeps the
			// scheduled path across its discovery restarts (the learned
			// set is then pre-gated around the per-shard schedulers'
			// two-phase commit).
			serial = len(pregate) > 0
		}
		if err := ctx.Err(); err != nil {
			sp.EndWith("cancel")
			return nil, err
		}
		var ret core.Value
		var err error
		if serial {
			ret, err = base.runSerialOnce(ctx, r, sp, name, fn, args, readOnly, pregate)
		} else {
			ret, err = base.runShardedOnce(ctx, r, sp, name, fn, args, readOnly, pregate)
		}
		if err == nil {
			return ret, nil
		}
		var rs *shardRestartError
		if errors.As(err, &rs) && restarts < r.NumShards() {
			// Protocol restart: the learned shard set is gated up front
			// on the next attempt. The set strictly grows, so this
			// terminates; no backoff and no retry counting — the abort
			// was routing, not contention.
			restarts++
			if serial {
				base.serialRestarts.Add(1)
				base.tr.Event(obs.PhaseSerialRestart, base.backoffRing(), "", "", "incomplete-set")
			} else {
				base.twopcRestarts.Add(1)
				base.tr.Event(obs.PhaseTwoPCRestart, base.backoffRing(), "", "", "discovery")
			}
			if scratch == nil {
				scratch = restartScratchPool.Get().(*restartScratch)
			}
			// Alternate buffers: pregate may alias the previous merge.
			scratch.a, scratch.b = scratch.b, scratch.a
			scratch.a = mergeShardSetsInto(scratch.a[:0], pregate, rs.need)
			pregate = scratch.a
			attempt--
			continue
		}
		if !Retriable(err) || attempt >= base.opts.MaxRetries {
			return nil, err
		}
		sp = base.tr.StartSpan(obs.PhaseRetryBackoff, base.backoffRing(), "", "")
		t := time.NewTimer(base.backoffDelay(backoff))
		select {
		case <-t.C:
			sp.End()
		case <-ctx.Done():
			t.Stop()
			sp.EndWith("cancel")
			return nil, ctx.Err()
		}
		base.retries.Add(1)
		if backoff < 64*base.opts.RetryBackoff {
			backoff *= 2
		}
	}
}

// restartScratch pools the shard-set merge buffers of the restart path,
// the same way serial_run.go pools per-attempt state: a transaction that
// restarts to grow its shard set should not pay a map and fresh slices
// per restart. Two buffers alternate because the current pregate slice
// aliases the buffer of the previous merge.
type restartScratch struct{ a, b []int }

var restartScratchPool = sync.Pool{New: func() any { return &restartScratch{} }}

// mergeShardSetsInto merges two sorted ascending shard sets into dst
// (pass it resliced to length zero), deduplicating; allocation-free once
// dst has the capacity. Inputs must not alias dst.
func mergeShardSetsInto(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// runShardedOnce is one attempt of a sharded transaction: the analogue of
// runOnce with lazy shard joining and the shard-ordered two-phase commit.
// It takes over the admit span runShardedRetry opened.
func (en *Engine) runShardedOnce(ctx context.Context, r Router, sp obs.Span, name string, fn MethodFunc, args []core.Value, readOnly bool, pregate []int) (core.Value, error) {
	id := en.allocTop()
	defer en.releaseTop(id)
	tr := en.tr
	if tr != nil {
		// The exec key is formatted inside the admit span, not before it:
		// the cost is real work of this attempt and must not fall into an
		// unmeasured gap (the phases partition the attempt's wall time).
		sp = sp.WithExecRing(id.Key(), ringKey(id))
	}
	st := newShardedExec(r, false)
	e, cs := &st.e, &st.cs
	e.initTop(en, &st.ts, ctx, id, name, args, readOnly)
	if len(pregate) > 0 {
		// Pre-declared cross-shard transaction: acquire every gate before
		// executing anything, in directory order, holding no locks, and
		// bailing out if the caller cancels while queued.
		for i, s := range pregate {
			if gerr := lockGateCtx(ctx, r, s); gerr != nil {
				for j := i - 1; j >= 0; j-- {
					r.UnlockGate(pregate[j])
				}
				sp.EndWith("cancel")
				return nil, gerr
			}
		}
		ordGates(pregate)
		cs.gated = append([]int(nil), pregate...)
	}
	defer cs.releaseGates() // after locks are released below (LIFO)
	// Record the top eagerly in the base engine (as an unsharded run
	// would in its engine): even a transaction that never joins a shard
	// must appear in the stitched history.
	if err := en.rec.AddExec(id, e.object, e.method); err != nil {
		sp.EndWith("abort")
		return nil, historyAbort(id, err)
	}
	e.recIn.Store(en)
	en.deps.beginTop(e)
	defer en.deps.forget(e)
	sp = sp.Next(obs.PhaseExecute)
	ret, err := fn(e.ctx())
	if err == nil && e.Killed() {
		err = &AbortError{Exec: id, Reason: "cascade", Retriable: true, Err: ErrKilled}
	}
	if err == nil {
		err = e.ctxAbortErr()
	}
	sp = sp.Next(obs.PhaseCommitBarrier)
	if err == nil {
		if need := cs.restartNeed(); need != nil {
			// The body swallowed the restart error from a Call and
			// finished anyway; the attempt still cannot commit with an
			// incomplete shard set.
			err = restartAbort(id, need)
		}
	}
	if err == nil {
		// Recoverability barrier across every shard (the tracker is
		// space-wide): all observed transactions must commit first.
		err = en.deps.commitBarrier(e)
	}
	if err == nil {
		// Shard-ordered two-phase commit. Phase 1 is the validation
		// decision: a scheduler whose commit can fail (the optimistic
		// certifier) is shared across the space, so it appears — and is
		// called — exactly once, before any lock-releasing commit ran.
		// Phase 2, the per-shard lock releases (rule 5 at top level),
		// cannot fail. The loop still aborts defensively on a late error.
		e.finish()
		err = cs.forEachSched(func(sch Scheduler) error {
			if cerr := sch.Commit(e); cerr != nil {
				if !Retriable(cerr) {
					cerr = &AbortError{Exec: id, Reason: "certification", Retriable: true, Err: cerr}
				}
				return cerr
			}
			return nil
		})
	}
	if err != nil {
		e.finish()
		for _, dep := range en.deps.beginAbort(e) {
			dep.exec.kill()
			//oblint:allow ctxwait -- cascade joins a dependent just killed above; its abort path cannot block indefinitely, and abandoning it here would undo state out of order
			<-dep.done
		}
		e.runUndo()
		_ = cs.forEachSched(func(sch Scheduler) error {
			sch.Abort(e)
			return nil
		})
		cs.markTopAborted(en, e.id)
		en.deps.finishAbort(e)
		var rs *shardRestartError
		if !errors.As(err, &rs) {
			// Discovery restarts are routing, not workload outcomes;
			// everything else counts as an aborted attempt.
			cs.countEngine(en).aborts.Add(1)
		}
		sp.EndWith("abort")
		return nil, err
	}
	en.deps.commitTop(e)
	sp = sp.Next(obs.PhasePublish)
	if en.opts.Versioning {
		publishCommitSharded(e)
	}
	cs.countEngine(en).commits.Add(1)
	sp.End()
	return ret, nil
}

// crossDo routes a local step of a sharded transaction to the object's
// home engine and scheduler (or the serial fast path / pinned snapshot,
// by mode).
func crossDo(e *Exec, object string, inv core.OpInvocation) (core.Value, error) {
	cs := e.txn.cross
	if cs.serial {
		return cs.serialDo(e, object, inv)
	}
	var home *Engine
	var obj *Object
	if e != e.top {
		// Fast path: a method execution issuing a step on an object of
		// its own engine — the idiomatic local step. The engine was
		// joined when the message creating this execution was routed, so
		// the directory, the join bookkeeping, and their locks are all
		// skippable.
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
		obj = home.resolveObject(object)
		if obj == nil {
			return nil, fmt.Errorf("engine: unknown object %q", object)
		}
		if cs.view {
			return cs.viewDo(e, home, obj, inv)
		}
		if err := cs.join(e.top, home, s); err != nil {
			return nil, err
		}
	} else if cs.view {
		return cs.viewDo(e, home, obj, inv)
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
	// The issuing execution must be on record in the home engine before
	// its step lands there (parents first, for abort closure per shard).
	if err := cs.record(home, e); err != nil {
		return nil, err
	}
	return home.sched.Step(e, obj, inv)
}

// crossCall routes a message of a sharded transaction: the child method
// execution runs in the target object's home engine, under that engine's
// scheduler, while keeping the globally unique execution identity its
// parent allocated.
func crossCall(parent *Exec, lane int, object, method string, args []core.Value) (core.Value, error) {
	cs := parent.txn.cross
	if cs.serial {
		return serialCall(parent, lane, object, method, args)
	}
	home, s, err := cs.r.HomeOf(object)
	if err != nil {
		return nil, err
	}
	// Validate before joining: a misnamed object or method must fail
	// fast, not first pay gate acquisition (possibly a cross-shard
	// restart) and scheduler bookkeeping for a shard it can never use.
	fn, err := home.resolve(object, method)
	if err != nil {
		return nil, err
	}
	if err := cs.join(parent.top, home, s); err != nil {
		return nil, err
	}
	if err := cs.record(home, parent); err != nil {
		return nil, err
	}

	child := newChild(home, parent, object, method, args)
	msg, err := home.rec.StartMessage(parent.id, child.id, lane, object, method, child.args)
	if err != nil {
		return nil, historyAbort(parent.id, err)
	}
	if err := cs.record(home, child); err != nil {
		home.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	if err := home.sched.Begin(child); err != nil {
		crossAbortChild(cs, child)
		home.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	ret, err := fn(child.ctx())
	if err == nil {
		err = home.sched.Commit(child)
	}
	if err != nil {
		crossAbortChild(cs, child)
		home.rec.EndMessage(msg, nil, true)
		return nil, err
	}
	parent.adoptUndo(child)
	home.rec.EndMessage(msg, ret, false)
	return ret, nil
}

// crossAbortChild aborts a nested execution of a sharded transaction:
// undo its effects, release its locks in every joined engine (its own
// subtree may have committed lock inheritances anywhere — rule 5), and
// mark the abort in every recorder holding part of its subtree.
func crossAbortChild(cs *crossState, e *Exec) {
	e.runUndo()
	_ = cs.forEachSched(func(sch Scheduler) error {
		sch.Abort(e)
		return nil
	})
	cs.markAbortedEverywhere(e.id)
}

// publishCommitSharded publishes the committed states of a cross-shard
// transaction: each joined engine sequences the objects it owns under
// its own publication counter (snapshots are per-shard — see
// RunViewSharded). A transaction touches few objects, so they are
// grouped by engine in place, by swapping each engine's objects to the
// front of the unpublished rest.
func publishCommitSharded(e *Exec) {
	objs := e.touchedObjects()
	if len(objs) == 0 {
		return
	}
	topKey := e.topKey()
	for len(objs) > 0 {
		en := objs[0].eng
		n := 1
		for i := 1; i < len(objs); i++ {
			if objs[i].eng == en {
				objs[n], objs[i] = objs[i], objs[n]
				n++
			}
		}
		en.publishObjects(topKey, objs[:n])
		objs = objs[n:]
	}
}

// RunViewSharded executes a read-only snapshot transaction against a
// sharded space. Publication sequences are per shard, so one consistent
// snapshot exists only within a single shard: the first object the view
// touches pins its shard and fixes the snapshot at that shard's
// watermark, and a view that reaches for a second shard falls back to
// the locked cross-shard path with read-only enforcement (correct, just
// not lock-free). Stale snapshots retry with a refreshed watermark as in
// Engine.RunView.
func RunViewSharded(ctx context.Context, r Router, name string, fn MethodFunc, args []core.Value) (core.Value, error) {
	base := r.Base()
	if !base.opts.Versioning {
		return nil, fmt.Errorf("engine: RunView: %w", ErrViewDisabled)
	}
	var lastPin *Engine
	lastSeq := ^uint64(0)
	for attempt := 0; attempt < viewAttempts; attempt++ {
		ret, pin, seq, err := base.runViewShardedOnce(ctx, r, name, fn, args)
		if err == nil {
			return ret, nil
		}
		if errors.Is(err, errCrossShardView) {
			break
		}
		if !errors.Is(err, ErrSnapshotStale) {
			return ret, err
		}
		if pin == lastPin && seq == lastSeq {
			// The pinned shard's watermark has not advanced; the same gap
			// would stall us again.
			break
		}
		lastPin, lastSeq = pin, seq
	}
	base.viewFallbacks.Add(1)
	return runShardedRetry(ctx, r, name, fn, args, nil, true)
}

// runViewShardedOnce is one pinned-snapshot attempt; it reports the pin
// it chose so the caller can detect a stalled watermark.
func (en *Engine) runViewShardedOnce(ctx context.Context, r Router, name string, fn MethodFunc, args []core.Value) (core.Value, *Engine, uint64, error) {
	id := en.allocTop()
	defer en.releaseTop(id)
	st := newShardedExec(r, true)
	e, cs := &st.e, &st.cs
	e.initTop(en, &st.ts, ctx, id, name, args, true)
	// Eager top record in the base engine, as on every other path: a
	// view that reads nothing must still appear in the stitched history.
	if err := en.rec.AddExec(id, e.object, e.method); err != nil {
		return nil, nil, 0, historyAbort(id, err)
	}
	e.recIn.Store(en)
	ret, err := fn(e.ctx())
	if err == nil {
		err = e.ctxAbortErr()
	}
	// The attempt is over: a goroutine the body leaked must not step.
	e.finish()
	cs.mu.Lock()
	pin, seq := cs.pinned, cs.snapSeq
	cs.mu.Unlock()
	if err != nil {
		en.rec.MarkAborted(e.id)
		if pin != nil && pin != en {
			pin.rec.MarkAborted(e.id)
		}
		if !errors.Is(err, ErrSnapshotStale) && !errors.Is(err, errCrossShardView) {
			cs.countEngine(en).aborts.Add(1)
		}
		return nil, pin, seq, err
	}
	counter := cs.countEngine(en)
	counter.commits.Add(1)
	counter.viewCommits.Add(1)
	return ret, pin, seq, nil
}

// pinView pins the view to the home engine of its first touched object
// (fixing the snapshot sequence), or fails when a second shard appears.
// It registers the top-level record with the pinned recorder.
func (cs *crossState) pinView(top *Exec, home *Engine) error {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if cs.pinned == nil {
		cs.pinned = home
		cs.counted = home
		cs.snapSeq = home.pubSeq.Load()
		top.txn.snap.seq = cs.snapSeq
		return cs.recordLocked(home, top)
	}
	if cs.pinned != home {
		return &AbortError{Exec: top.id, Reason: "cross-shard view", Retriable: false, Err: errCrossShardView}
	}
	return nil
}

// viewDo serves a sharded snapshot step from the pinned shard.
func (cs *crossState) viewDo(e *Exec, home *Engine, obj *Object, inv core.OpInvocation) (core.Value, error) {
	if err := cs.pinView(e.top, home); err != nil {
		return nil, err
	}
	return home.viewStep(e, obj, inv)
}

// crossViewCall routes a message of a sharded snapshot transaction: the
// target object must live in the pinned shard (pinning it on first use).
func crossViewCall(parent *Exec, lane int, object, method string, args []core.Value) (core.Value, error) {
	cs := parent.txn.cross
	home, _, err := cs.r.HomeOf(object)
	if err != nil {
		return nil, err
	}
	if err := cs.pinView(parent.top, home); err != nil {
		return nil, err
	}
	return home.viewCall(parent, lane, object, method, args)
}
