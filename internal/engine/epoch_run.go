// Epoch-based group commit: the batched form of the serial fast path.
//
// The serial fast path (serial_run.go) removed the scheduler, lock
// manager, and dependency tracker from a declared-set transaction's
// cost; what remains is fixed per transaction — one exclusive gate
// round, one publication sequence round, one stats write. Epoch mode
// amortises exactly those costs: declared-set transactions enqueue into
// their home shard's accumulator (internal/shard), whose flat-combining
// flusher drains batches bounded by a time window and a size cap, each
// batch run under one gate acquisition, one publication sequence number
// per engine, and one counter flush — while the requesters it has
// already served form the next batch behind it.
//
// Serialisability is inherited from the serial path unchanged: the
// flusher holds the union of the batch's gate sets exclusively (taken
// in directory order), the batch executes strictly serially inside
// that window, and each member keeps its own Exec, undo log, and
// history identity — an individual abort rolls back only its own
// steps, and the stitched history shows each member as an ordinary
// transaction, so the oracle certifies epoch runs exactly like serial
// ones. Only the publication is shared: the epoch's committed writes
// surface at one sequence number per engine (snapshot views see the
// whole batch or none of it — a coarser, still consistent, snapshot
// grain).
package engine

import (
	"context"
	"errors"
	"sync"

	"objectbase/internal/core"
	"objectbase/internal/obs"
)

// EpochReq is one declared-set transaction parked in an epoch
// accumulator: the attempt's inputs, the done channel its requester
// waits on, and the outcome the flusher deposits before signalling it.
// Requests are pooled: done is a one-buffered channel reused across
// attempts (one send by the flusher, one receive by the requester, per
// attempt), so a parked transaction costs no allocation.
type EpochReq struct {
	ctx      context.Context
	name     string
	fn       MethodFunc
	args     []core.Value
	readOnly bool
	gates    []int // declared shard set, sorted ascending

	done chan struct{} // buffered, capacity 1
	ret  core.Value
	err  error
}

// epochReqPool recycles epoch requests. The flusher's last touch of a
// request is the done send, and the requester only recycles after
// receiving it, so no reference survives into the next attempt.
var epochReqPool = sync.Pool{New: func() any {
	return &EpochReq{done: make(chan struct{}, 1)}
}}

// HomeShard returns the accumulator shard of the request: the lowest
// shard of its declared set. A multi-shard request joins the epoch of
// its lowest home shard, and the flusher's gate union covers the rest.
func (q *EpochReq) HomeShard() int { return q.gates[0] }

// EpochRouter is a Router that also runs per-shard epoch accumulators
// (implemented by shard.Space when epochs are enabled).
type EpochRouter interface {
	Router
	// EpochsEnabled reports whether declared-set transactions should be
	// routed through the epoch accumulators (a window/maxBatch has been
	// configured with a batch size above one).
	EpochsEnabled() bool
	// EpochEnqueue hands a request to the accumulator of its home
	// shard. It returns once the request is queued — or, when the
	// calling goroutine became the shard's flusher, once the queue has
	// drained; either way the requester then waits on the request's
	// done channel.
	EpochEnqueue(req *EpochReq)
}

// runEpochOnce is one attempt of a declared-set transaction in epoch
// mode: park in the home shard's accumulator and wait for the flusher's
// verdict. The attempt's wall time is admit + epoch-wait — the two
// phases partition it, keeping the trace-reconciliation invariant.
func runEpochOnce(ctx context.Context, r EpochRouter, name string, fn MethodFunc, args []core.Value, readOnly bool, gate []int) (core.Value, error) {
	base := r.Base()
	sp := base.tr.StartSpan(obs.PhaseAdmit, base.backoffRing(), "", "")
	req := epochReqPool.Get().(*EpochReq)
	req.ctx = ctx
	req.name = name
	req.fn = fn
	req.args = args
	req.readOnly = readOnly
	req.gates = gate
	sp = sp.Next(obs.PhaseEpochWait)
	r.EpochEnqueue(req)
	// A flusher is always active while the request is queued and answers
	// within a bounded drain; a member whose context expires while parked
	// still runs, and aborts through the per-step liveness checks exactly
	// like a serial attempt, so the wait itself needs no cancellation
	// case.
	//oblint:allow ctxwait -- the flusher answers every queued request within a bounded drain; an expired member context aborts inside execution via the per-step liveness checks
	<-req.done
	ret, err := req.ret, req.err
	req.ctx = nil
	req.fn = nil
	req.args = nil
	req.gates = nil
	req.ret = nil
	req.err = nil
	epochReqPool.Put(req)
	if err != nil {
		sp.EndWith("abort")
		return nil, err
	}
	sp.End()
	return ret, nil
}

// epochGateUnion merges the batch's sorted gate sets into one sorted
// union — the shard set the flusher gates for the whole epoch.
func epochGateUnion(batch []*EpochReq, buf []int) []int {
	union := buf[:0]
	for _, req := range batch {
		for _, s := range req.gates {
			at := len(union)
			dup := false
			for i, have := range union {
				if have == s {
					dup = true
					break
				}
				if s < have {
					at = i
					break
				}
			}
			if dup {
				continue
			}
			union = append(union, 0)
			copy(union[at+1:], union[at:])
			union[at] = s
		}
	}
	return union
}

// acquireEpochGates takes the epoch's gate union exclusively, in
// directory (ascending) order — the sorted input is the ordering
// evidence lockorder blesses this function for, and ordGates asserts
// it. The acquisition deliberately ignores member contexts: the flusher
// serves a whole batch, and one member's cancellation must not abandon
// the others' work (the wait is bounded by other holders' durations,
// like every gate wait).
func acquireEpochGates(r Router, union []int) {
	bg := context.Background()
	for _, s := range union {
		// A background context cannot expire, so lockGateCtx blocks
		// plainly and never fails.
		_ = lockGateCtx(bg, r, s)
	}
	ordGates(union)
}

// epochPub accumulates the epoch's committed publication work: every
// object touched by a committed member, with the member keys whose
// pending marks retire at capture. One publishObjects call per engine
// then publishes the whole epoch at a single sequence number.
type epochPub struct {
	objs []*Object
	keys [][]string // parallel to objs: committed member keys per object
	idx  map[*Object]int
}

func (p *epochPub) add(e *Exec) {
	key := e.topKey()
	for _, o := range e.touchedObjects() {
		if p.idx == nil {
			p.idx = make(map[*Object]int, 8)
		}
		i, ok := p.idx[o]
		if !ok {
			i = len(p.objs)
			p.idx[o] = i
			p.objs = append(p.objs, o)
			p.keys = append(p.keys, nil)
		}
		p.keys[i] = append(p.keys[i], key)
	}
}

// publish sequences the epoch's objects per home engine: one sequence
// number per engine for the whole batch.
func (p *epochPub) publish() {
	if len(p.objs) == 0 {
		return
	}
	byEng := make(map[*Engine][]int, 2)
	for i, o := range p.objs {
		byEng[o.eng] = append(byEng[o.eng], i)
	}
	for en, idxs := range byEng {
		objs := make([]*Object, len(idxs))
		keys := make([][]string, len(idxs))
		for j, i := range idxs {
			objs[j] = p.objs[i]
			keys[j] = p.keys[i]
		}
		en.publishObjects("", objs, keys)
	}
}

// epochCounts batches the epoch's commit/abort counter writes per
// charged engine, flushed once at the end of the batch.
type epochCounts struct {
	ens     []*Engine
	commits []int64
	aborts  []int64
}

func (c *epochCounts) add(en *Engine, commits, aborts int64) {
	for i, have := range c.ens {
		if have == en {
			c.commits[i] += commits
			c.aborts[i] += aborts
			return
		}
	}
	c.ens = append(c.ens, en)
	c.commits = append(c.commits, commits)
	c.aborts = append(c.aborts, aborts)
}

func (c *epochCounts) flush() {
	for i, en := range c.ens {
		if n := c.commits[i]; n > 0 {
			en.commits.Add(n)
			en.epochCommits.Add(n)
		}
		if n := c.aborts[i]; n > 0 {
			en.aborts.Add(n)
		}
	}
}

// ExecuteEpoch flushes one epoch: acquire the batch's gate union once,
// run every member down the serial fast path machinery with its own
// Exec and undo log, publish the epoch's committed writes at one
// sequence number per engine, flush the counters once, release the
// gates, and wake the requesters. Called by the shard accumulator's
// flusher goroutine.
//
// Without versioning a member is woken the moment its own execution
// settles: its state is applied (or undone) under the gates, so the
// requester can start its next transaction — which queues for the next
// epoch and forms it while this one is still flushing. That overlap is
// what makes batching pay; the counter flush still settles before
// ExecuteEpoch returns, i.e. before the flusher's own requester
// resumes. With versioning the wake waits for the epoch's publication,
// so a requester can never miss its own committed write through a
// snapshot view (read-your-writes).
func ExecuteEpoch(r Router, batch []*EpochReq) {
	if len(batch) == 0 {
		return
	}
	base := r.Base()
	fsp := base.tr.StartSpan(obs.PhaseEpochFlush, uint64(batch[0].HomeShard()), "", "")
	var unionBuf [8]int
	union := epochGateUnion(batch, unionBuf[:])
	acquireEpochGates(r, union)
	versioned := base.opts.Versioning
	// One pooled exec state serves the whole batch: members run strictly
	// serially, so the state is re-armed (not re-fetched) between them.
	st := serialExecPool.Get().(*shardedExec)
	var pub epochPub
	var counts epochCounts
	for _, req := range batch {
		base.runEpochTxn(r, st, union, req, &pub, &counts)
		if !versioned {
			//oblint:allow ctxwait -- done is buffered with exactly one send per parked request, so the send cannot block
			req.done <- struct{}{}
		}
	}
	if versioned {
		pub.publish()
	}
	counts.flush()
	base.epochFlushes.Add(1)
	serialExecPool.Put(st)
	for i := len(union) - 1; i >= 0; i-- {
		r.UnlockGate(union[i])
	}
	if versioned {
		for _, req := range batch {
			//oblint:allow ctxwait -- done is buffered with exactly one send per parked request, so the send cannot block
			req.done <- struct{}{}
		}
	}
	fsp.End()
}

// runEpochTxn executes one batch member inside the flusher's gated
// window: the serial fast path's per-transaction machinery (the
// flusher's re-armed exec state, direct steps, per-member undo), minus
// the per-transaction gate round and publication — those are the
// epoch's, paid once. A member abort undoes only that member's steps:
// execution is strictly serial, so later members see exactly the
// committed prefix of the batch.
func (en *Engine) runEpochTxn(r Router, st *shardedExec, union []int, req *EpochReq, pub *epochPub, counts *epochCounts) {
	id := en.allocTop()
	serialExecReset(st, r)
	e, cs := &st.e, &st.cs
	e.id = id
	e.object = core.EnvironmentObject
	e.method = req.name
	e.args = req.args
	e.eng = en
	e.goctx = req.ctx
	e.readOnly = req.readOnly
	e.top = e
	// The membership surface is the whole epoch's union: every gate is
	// genuinely held by the flusher, so a member may touch any shard of
	// the union (joinSerial's holdsGateLocked check passes), and a miss
	// outside it restarts that member alone with its grown set.
	cs.gated = union
	if err := en.rec.AddExec(id, e.object, e.method); err != nil {
		req.err = historyAbort(id, err)
		cs.gated = nil
		en.releaseTop(id)
		return
	}
	e.recIn.Store(en)
	ret, err := req.fn(e.ctx())
	if err == nil {
		err = e.ctxAbortErr()
	}
	need, counted := cs.commitState(en)
	if err == nil && need != nil {
		// The body swallowed a restart error from a Call and finished
		// anyway; the member still cannot commit with an incomplete set.
		err = restartAbort(id, need)
	}
	if err != nil {
		e.runUndo()
		cs.markTopAborted(en, e.id)
		var rs *shardRestartError
		if !errors.As(err, &rs) {
			// Membership restarts are routing, not workload outcomes.
			counts.add(counted, 0, 1)
		}
		req.err = err
	} else {
		if en.opts.Versioning {
			pub.add(e)
		}
		counts.add(counted, 1, 0)
		req.ret = ret
	}
	// The gates are the flusher's, not this member's: detach them so the
	// shared state's releaseGates path cannot drop them.
	cs.gated = nil
	en.releaseTop(id)
}
