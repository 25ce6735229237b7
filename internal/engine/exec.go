package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"objectbase/internal/core"
)

// Exec is the runtime state of one method execution. Outside the serial
// path's pools (serial_run.go) every Exec is one allocation that is never
// reused: it owns its identity and the arguments of its steps and
// messages (idBuf, argBuf). The buffers are lent only where no history
// outlives the transaction (Engine.lend): a full history would keep each
// Exec, and through parent and top its whole tree, alive. State shared by
// the whole transaction tree lives in txn.
type Exec struct {
	id     core.ExecID
	object string
	method string
	args   []core.Value
	eng    *Engine
	parent *Exec
	top    *Exec     // top-level ancestor (self for top-level executions)
	txn    *txnState // the tree's per-transaction state (shared with top)

	mu   sync.Mutex
	undo []undoEntry
	// undoInline backs the first undo entries without a heap allocation
	// (most transactions mutate a handful of objects); pushUndo and
	// adoptUndo fall back to growing normally past its capacity.
	undoInline [3]undoEntry

	// selfCtx is the lane-0 Ctx handed to this execution's method body:
	// one per execution, so running a body does not allocate a Ctx
	// (Ctx.Parallel still mints per-lane ones).
	selfCtx Ctx

	// childN allocates message indices (child k is id.Child(k)); laneN
	// numbers intra-execution parallel branches. Both used to live in the
	// recorder behind its mutex; per-execution atomics keep them off the
	// observer entirely.
	childN atomic.Int32
	laneN  atomic.Int32
	// argN counts the argBuf slots reserved by ownArgs past the first
	// argBase, which hold the execution's own arguments. Parallel lanes
	// (and goroutines a body leaks) step concurrently, hence the atomic
	// bump; argBase is written once, before the body runs, and set to
	// len(argBuf) on executions that must never lend inline storage.
	argN    atomic.Int32
	argBase uint8

	// SchedData is scheduler-private per-execution state (e.g. the
	// certifier's access sets). Only the owning scheduler touches it.
	SchedData interface{}

	// recIn is the first engine recorder holding this execution's record
	// (sharded runs only): the lock-free fast path of crossState.record.
	// Executions replicated into further engines are tracked by the
	// crossState map.
	recIn atomic.Pointer[Engine]

	// argBuf backs the arguments of the execution's own invocation and of
	// its first steps (Ctx.Do); idBuf backs the identity of a child at
	// most len(idBuf) levels deep. Slices into them are capacity-limited,
	// so no append can write into the buffers.
	argBuf [2]core.Value
	idBuf  [4]int32
}

// txnState is the state of one transaction tree, allocated once with its
// top-level execution (topExec, shardedExec); every execution of the tree
// points at it.
type txnState struct {
	// readOnly marks a transaction tree that must not issue mutating
	// steps: Ctx.Do classifies every operation against the schema and
	// aborts with ErrReadOnlyWrite on a mutator.
	readOnly bool
	// snapshot switches the tree to snapshot execution: steps are served
	// from committed object versions at snap.seq and neither the scheduler
	// nor the lock manager is ever entered. Implies readOnly. A sharded
	// view routes through cross instead and sets only snap, when it pins
	// its shard.
	snapshot bool
	// finished is set just before the scheduler is told the tree's commit
	// or abort (and when a view attempt ends), and never cleared: from
	// then on no step or message of the tree may run (rule 3 of N2PL past
	// the lock manager's record of the tree, which the top-level finish
	// retires).
	finished atomic.Bool
	// killed marks the tree for cascade abort; killCh, created on first
	// use by KillCh, is closed when it is set. Both guarded by top.mu
	// (killed is also read without it).
	killed atomic.Bool
	snap   viewSnap
	// cross, when non-nil, marks a transaction running against a sharded
	// object space: Do and Call route through the space's directory and
	// the cross-shard protocol (see shard_run.go).
	cross *crossState

	// key caches id.Key() of the top-level execution: under versioning the
	// formatted id is the pending-writer mark of every mutating step, the
	// publication's and every undo's, and formatting it allocates. Guarded
	// by top.mu; read it through topKey.
	key string

	// goctx is the caller's context.Context.
	goctx  context.Context
	killCh chan struct{}

	// touched backs touchedObjects' result for the common transaction,
	// which mutates at most len(touched) objects.
	touched [2]*Object
}

// topExec is the one allocation of an unsharded top-level attempt: the
// execution and its tree's state.
type topExec struct {
	e  Exec
	ts txnState
}

// newTop returns a top-level execution of en with its transaction state.
func (en *Engine) newTop(ctx context.Context, id core.ExecID, name string, args []core.Value, readOnly bool) *Exec {
	t := &topExec{}
	t.e.initTop(en, &t.ts, ctx, id, name, args, readOnly)
	return &t.e
}

// initTop fills in a top-level execution of en and the transaction state
// ts it runs under.
func (e *Exec) initTop(en *Engine, ts *txnState, ctx context.Context, id core.ExecID, name string, args []core.Value, readOnly bool) {
	ts.goctx = ctx
	ts.readOnly = readOnly
	e.id = id
	e.object = core.EnvironmentObject
	e.method = name
	e.args = args
	e.eng = en
	e.top = e
	e.txn = ts
	if !en.lend {
		e.argBase = uint8(len(e.argBuf))
	}
}

// newChild creates the child execution a message of parent runs as, in
// engine home: one allocation holding the child's identity (while it is
// at most len(idBuf) deep) and its copy of the message arguments, so the
// caller's slice is not retained. Under a full history (home.lend unset)
// the identity and the arguments are heap copies instead, the history's
// own. It allocates the message index.
func newChild(home *Engine, parent *Exec, object, method string, args []core.Value) *Exec {
	c := &Exec{
		object: object,
		method: method,
		eng:    home,
		parent: parent,
		top:    parent.top,
		txn:    parent.txn,
	}
	k := parent.childN.Add(1) - 1
	if !home.lend {
		c.id = parent.id.Child(k)
		c.args = cloneArgs(args)
		c.argBase = uint8(len(c.argBuf))
		return c
	}
	if n := len(parent.id) + 1; n <= len(c.idBuf) {
		copy(c.idBuf[:], parent.id)
		c.idBuf[n-1] = k
		c.id = c.idBuf[:n:n]
	} else {
		c.id = parent.id.Child(k)
	}
	if n := len(args); n <= len(c.argBuf) {
		copy(c.argBuf[:], args)
		if n > 0 {
			c.args = c.argBuf[:n:n]
		}
		c.argBase = uint8(n)
	} else {
		c.args = cloneArgs(args)
	}
	return c
}

// ownArgs copies the arguments of a step of e into storage e owns: free
// argBuf slots while they last, else the heap. The history keeps the
// copy, so the caller may reuse its slice.
func (e *Exec) ownArgs(args []core.Value) []core.Value {
	if len(args) == 0 {
		return nil
	}
	n := int32(len(args))
	free := int32(len(e.argBuf)) - int32(e.argBase)
	if n <= free && e.argN.Load()+n <= free {
		if end := e.argN.Add(n); end <= free {
			at := int32(e.argBase) + end - n
			own := e.argBuf[at : at+n : at+n]
			copy(own, args)
			return own
		}
	}
	return cloneArgs(args)
}

// cloneArgs returns a heap copy of args, nil for none. (make and copy
// compile to one makeslicecopy, cheaper than growing a nil slice.)
func cloneArgs(args []core.Value) []core.Value {
	if len(args) == 0 {
		return nil
	}
	own := make([]core.Value, len(args))
	copy(own, args)
	return own
}

type undoEntry struct {
	obj *Object
	fn  core.UndoFunc
}

// ID returns the execution's identity — its path in the invocation forest,
// which doubles as its hierarchical timestamp (Section 5.2).
func (e *Exec) ID() core.ExecID { return e.id }

// ObjectName returns the object whose method this is (the environment for
// top-level executions).
func (e *Exec) ObjectName() string { return e.object }

// Method returns the method name.
func (e *Exec) Method() string { return e.method }

// Engine returns the owning engine.
func (e *Exec) Engine() *Engine { return e.eng }

// Parent returns the parent execution, nil for top-level.
func (e *Exec) Parent() *Exec { return e.parent }

// Top returns the top-level ancestor.
func (e *Exec) Top() *Exec { return e.top }

// topKey returns the formatted id of e's top-level transaction, formatted
// at most once per attempt (parallel lanes may race for the first use).
func (e *Exec) topKey() string {
	t := e.top
	t.mu.Lock()
	if t.txn.key == "" {
		t.txn.key = t.id.Key()
	}
	key := t.txn.key
	t.mu.Unlock()
	return key
}

// nextChildID allocates the identity of e's next child execution on the
// heap (the serial path's pooled children must not lend inline storage):
// the message indices of one parent are assigned in send order.
func (e *Exec) nextChildID() core.ExecID {
	return e.id.Child(e.childN.Add(1) - 1)
}

// nextLane numbers the next internal-parallelism branch (lane 0 is the
// method body itself).
func (e *Exec) nextLane() int { return int(e.laneN.Add(1)) }

// ctx returns the execution's lane-0 Ctx. Call once, before the body
// runs (never concurrently with it).
func (e *Exec) ctx() *Ctx {
	e.selfCtx = Ctx{e: e}
	return &e.selfCtx
}

func (e *Exec) pushUndo(o *Object, fn core.UndoFunc) {
	e.mu.Lock()
	if e.undo == nil {
		e.undo = e.undoInline[:0]
	}
	e.undo = append(e.undo, undoEntry{obj: o, fn: fn})
	e.mu.Unlock()
}

// adoptUndo transfers a committing child's undo log to the parent: the
// child's effects become the parent's provisional effects (they must be
// undone if the parent later aborts — the nested-transaction commit is
// relative to the parent, not durable).
func (e *Exec) adoptUndo(child *Exec) {
	child.mu.Lock()
	entries := child.undo
	child.undo = nil
	child.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	e.mu.Lock()
	if e.undo == nil {
		e.undo = e.undoInline[:0]
	}
	e.undo = append(e.undo, entries...)
	e.mu.Unlock()
}

// runUndo reverses the execution's applied effects, most recent first
// (abort semantics (a)).
func (e *Exec) runUndo() {
	e.mu.Lock()
	entries := e.undo
	e.undo = nil
	e.mu.Unlock()
	if len(entries) == 0 {
		return
	}
	topKey := e.topKey()
	for i := len(entries) - 1; i >= 0; i-- {
		entries[i].obj.applyUndo(topKey, entries[i].fn)
	}
}

// kill marks the top-level execution for cascade abort. Safe to call on
// any exec; it targets the top.
func (e *Exec) kill() {
	t := e.top
	t.mu.Lock()
	if !t.txn.killed.Swap(true) && t.txn.killCh != nil {
		close(t.txn.killCh)
	}
	t.mu.Unlock()
}

// Killed reports whether the transaction tree was marked for cascade
// abort.
func (e *Exec) Killed() bool { return e.txn.killed.Load() }

// Context returns the caller context the transaction tree runs under
// (context.Background when the transaction was started without one).
func (e *Exec) Context() context.Context {
	if c := e.txn.goctx; c != nil {
		return c
	}
	return context.Background()
}

// ctxAbortErr converts an expired caller context into the abort error that
// dooms the transaction tree. Context aborts are not retriable: the caller
// asked for the work to stop.
func (e *Exec) ctxAbortErr() error {
	if c := e.txn.goctx; c != nil && c.Err() != nil {
		return &AbortError{Exec: e.id, Reason: "context", Retriable: false, Err: c.Err()}
	}
	return nil
}

// TxnFinished reports whether e's top-level transaction has reached its
// commit or abort. A scheduler that keeps per-tree state re-checks it
// after serving a request that passed the engine's own check, to clean up
// what a late request (a goroutine leaked by a method body) re-created.
func (e *Exec) TxnFinished() bool { return e.txn.finished.Load() }

// finish marks the top-level transaction as ending; call it before the
// scheduler's top-level Commit or Abort.
func (e *Exec) finish() { e.txn.finished.Store(true) }

// KillCh returns the channel closed when the tree is killed. It is made
// on first use (most transactions never wait on it), already closed if
// the tree was killed before.
func (e *Exec) KillCh() <-chan struct{} {
	t := e.top
	t.mu.Lock()
	ch := t.txn.killCh
	if ch == nil {
		ch = make(chan struct{})
		if t.txn.killed.Load() {
			close(ch)
		}
		t.txn.killCh = ch
	}
	t.mu.Unlock()
	return ch
}

// Ctx is what method bodies receive: the handle through which a method
// execution issues local steps and messages.
type Ctx struct {
	e    *Exec
	lane int
}

// Exec exposes the underlying execution (tests, schedulers).
func (c *Ctx) Exec() *Exec { return c.e }

// Args returns the invocation arguments of this method execution. For an
// execution created by Ctx.Call they are the execution's own copy, taken
// when the message was sent: the sender may reuse its slice.
func (c *Ctx) Args() []core.Value { return c.e.args }

// Arg returns argument i, or nil.
func (c *Ctx) Arg(i int) core.Value {
	if i < 0 || i >= len(c.e.args) {
		return nil
	}
	return c.e.args[i]
}

// checkAlive converts a finished transaction, a pending cascade kill or
// an expired caller context into an abort error. It runs on every step and message boundary, so a
// cancelled transaction aborts at its next interaction with the engine.
func (c *Ctx) checkAlive() error {
	if c.e.TxnFinished() {
		return &AbortError{Exec: c.e.id, Reason: "finished", Retriable: false, Err: ErrTxnFinished}
	}
	if err := c.e.ctxAbortErr(); err != nil {
		return err
	}
	if c.e.Killed() {
		return &AbortError{Exec: c.e.id, Reason: "cascade", Retriable: true, Err: ErrKilled}
	}
	return nil
}

// Do issues a local operation on an object of this execution's object base
// (a local step, Definition 2). The scheduler decides when it runs.
//
// The model restricts local steps of a method to the method's own object
// (Definition 4(a)); the engine enforces the restriction only when the
// execution belongs to a real object — environment methods (top-level
// transactions) have no variables of their own, so idiomatic use is for
// transactions to Call methods, and for methods to Do local steps on their
// own object. Method bodies in examples follow that discipline; tests may
// relax it for brevity on single-object scenarios.
//
// The arguments are copied into storage the execution owns before the
// step is issued, so the caller may reuse its slice once Do returns.
func (c *Ctx) Do(object, op string, args ...core.Value) (core.Value, error) {
	if err := c.checkAlive(); err != nil {
		return nil, err
	}
	inv := core.OpInvocation{Op: op, Args: c.e.ownArgs(args)}
	if c.e.txn.cross != nil {
		// Sharded space: the object's home engine (and scheduler) is the
		// directory's business, not this engine's.
		return crossDo(c.e, object, inv)
	}
	obj := c.e.eng.resolveObject(object)
	if obj == nil {
		return nil, fmt.Errorf("engine: unknown object %q", object)
	}
	if txn := c.e.txn; txn.snapshot {
		// Snapshot mode: serve the step from a committed version, never
		// entering the scheduler or the lock manager.
		return c.e.eng.viewStep(c.e, obj, inv)
	} else if txn.readOnly {
		// Locked read-only fallback: steps still go through the
		// scheduler, but mutators are rejected up front.
		ro, err := obj.schema.ReadOnlyOp(inv.Op)
		if err != nil {
			return nil, err
		}
		if !ro {
			return nil, readOnlyAbort(c.e, obj.name, inv)
		}
	}
	ret, err := c.e.eng.sched.Step(c.e, obj, inv)
	if err != nil {
		return nil, err
	}
	return ret, nil
}

// Call sends a message: it invokes a registered method of an object,
// creating a child method execution, and returns the child's return value.
// A child abort is reported as an error; the parent survives and may retry
// or take an alternative path (Section 3's motivation for semantics (b)).
//
// The child execution owns a copy of the arguments (Ctx.Args), so the
// caller may reuse its slice once Call returns.
func (c *Ctx) Call(object, method string, args ...core.Value) (core.Value, error) {
	if err := c.checkAlive(); err != nil {
		return nil, err
	}
	return c.e.eng.call(c.e, c.lane, object, method, args)
}

// Parallel runs the given bodies concurrently *within* this method
// execution (internal parallelism: "a method should be allowed to send
// messages, invoking other methods, simultaneously"). Each body gets its
// own lane. Parallel returns the first error, after all bodies finished.
func (c *Ctx) Parallel(bodies ...func(*Ctx) error) error {
	if err := c.checkAlive(); err != nil {
		return err
	}
	var wg sync.WaitGroup
	errs := make([]error, len(bodies))
	for i, body := range bodies {
		wg.Add(1)
		lane := c.e.nextLane()
		go func(i int, body func(*Ctx) error, lane int) {
			defer wg.Done()
			errs[i] = body(&Ctx{e: c.e, lane: lane})
		}(i, body, lane)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Abort aborts this method execution voluntarily (the Abort local
// operation of Section 3). The returned error must be propagated out of
// the method body.
func (c *Ctx) Abort(reason string) error {
	return &AbortError{Exec: c.e.id, Reason: "user: " + reason, Retriable: false}
}
