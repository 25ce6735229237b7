package engine

import (
	"fmt"
	"sort"
	"sync"

	"objectbase/internal/core"
)

// depTracker provides recoverability for schedulers that allow access to
// uncommitted effects (nested timestamp ordering, optimistic
// certification). Lock-based schedulers never create such access (rule 2
// blocks conflicting non-ancestors), so they run with tracking disabled.
//
// The mechanism: every effectful local step registers a "touch" of its
// conflict scope. A step that conflicts with an earlier touch by a live,
// incomparable top-level transaction records a commit dependency: the
// toucher must commit before the dependent may. If the toucher aborts, the
// dependent is cascade-aborted. Undo ordering is honoured by aborting
// dependents *before* the transaction they depend on undoes its own
// effects; because under timestamp ordering dependencies always point from
// a younger to an older top-level transaction, the dependency graph is
// acyclic and cascades terminate.
//
// Index invariants. log (a core.AccessLog) holds exactly the mutating
// touches of transactions that have neither committed nor finished
// aborting, each chained on its toucher's topState. Read-only steps are
// tested against it but never filed: an uncommitted read leaves nothing
// another transaction could observe or overwrite, so nothing depends on
// it. A step thus tests only the live writes its relation's operation
// table cannot rule out.
//
// Pruning rule. A touch matters only while its effect is uncommitted, so
// commitTop and finishAbort drop the transaction's own touches — nothing
// else is visited — which is Section 5.2's discard rule at its sharpest: a
// finished execution is no source of dirty data for any active one. forget
// then removes the topState; nothing stays tracked once nothing is live.
//
// The committed history that remains after cascades contains no dirty
// reads, which is exactly what core.History.CheckLegal's effective-steps
// replay verifies.
type depTracker struct {
	enabled bool

	mu   sync.Mutex
	log  core.AccessLog[*topState]
	tops map[int32]*topState
}

type topStatus int

const (
	topRunning topStatus = iota
	topCommitted
	topAborting
	topAborted
)

type topState struct {
	status topStatus
	deps   map[int32]bool            // transactions this one observed uncommitted; nil until the first
	fp     core.Footprint[*topState] // this transaction's touches in depTracker.log
	exec   *Exec
	done   chan struct{} // closed at commit or full abort
	// committing marks a transaction blocked in the commit barrier; used
	// to detect barrier deadlocks (mutual observation of uncommitted
	// effects, possible under certification where no timestamp order
	// constrains dependency direction).
	committing bool
}

func newDepTracker(enabled bool) *depTracker {
	return &depTracker{enabled: enabled, log: core.AccessLog[*topState]{Either: true}, tops: make(map[int32]*topState)}
}

func (d *depTracker) beginTop(e *Exec) {
	if !d.enabled {
		return
	}
	d.mu.Lock()
	d.tops[e.id[0]] = &topState{status: topRunning, exec: e, done: make(chan struct{})}
	d.mu.Unlock()
}

// touch registers a prospective step of execution e (top-level root n) in
// the given conflict scope. It must be called before the step is applied,
// under the object's latch. It fails when the step conflicts with the
// uncommitted effects of a transaction that is currently aborting — the
// step's execution must abort (retriably) rather than observe state
// mid-undo.
func (d *depTracker) touch(e *Exec, scope string, rel core.ConflictRelation, inv core.OpInvocation, readOnly bool) error {
	n := e.id[0]
	d.mu.Lock()
	defer d.mu.Unlock()
	self := d.tops[n]
	if self == nil || self.status != topRunning {
		return &AbortError{Exec: e.id, Reason: "cascade (self not running)", Retriable: true, Err: ErrKilled}
	}
	var err error
	d.log.Scan(scope, rel, self, inv.Op, func(t *core.Access[*topState]) bool {
		err = d.observeLocked(e, self, scope, rel, t, inv)
		return err == nil
	})
	if err == nil && !readOnly {
		d.log.Add(scope, &self.fp, self, core.StepInfo{Op: inv.Op, Args: inv.Args})
	}
	return err
}

// observeLocked decides what the earlier uncommitted write t means for the
// step inv of e: nothing, a commit dependency, or an abort of e.
func (d *depTracker) observeLocked(e *Exec, self *topState, scope string, rel core.ConflictRelation, t *core.Access[*topState], inv core.OpInvocation) error {
	other, m := t.Owner, t.Owner.exec.id[0]
	if other.status == topCommitted {
		return nil
	}
	// Conflict in either order matters for recoverability: observing
	// (read-after-write) or overwriting (write-after-write) dirty effects
	// both require the toucher to commit first. The test is deliberately
	// conservative (operation granularity): touches carry no return
	// values — they are registered before execution — and a missed
	// dependency breaks recoverability, while a surplus one merely costs
	// a wait or a retry.
	if !rel.OpConflicts(t.Step.Invocation(), inv) && !rel.OpConflicts(inv, t.Step.Invocation()) {
		return nil
	}
	if other.status == topAborting || other.status == topAborted {
		return &AbortError{Exec: e.id, Reason: fmt.Sprintf("cascade: scope %q mid-undo of T%d", scope, m), Retriable: true, Err: ErrKilled}
	}
	if self.deps[m] {
		return nil
	}
	// Keep the dependency graph acyclic: mutual observation of
	// uncommitted effects would deadlock the commit barrier, entangle
	// abort ordering (undo closures of conflicting steps must run in
	// reverse step order, which only a consistent dependency direction
	// guarantees), and could never certify anyway. The toucher that would
	// close a cycle aborts and retries. Under timestamp ordering
	// dependencies always point young->old, so this never fires for NTO.
	if d.reachableLocked(m, e.id[0]) {
		return &AbortError{Exec: e.id, Reason: fmt.Sprintf("mutual observation with T%d at scope %q", m, scope), Retriable: true, Err: ErrKilled}
	}
	if self.deps == nil {
		self.deps = make(map[int32]bool)
	}
	self.deps[m] = true
	return nil
}

// reachableLocked reports whether `to` is reachable from `from` along
// unresolved dependency edges. Caller holds d.mu.
func (d *depTracker) reachableLocked(from, to int32) bool {
	if from == to {
		return true
	}
	seen := map[int32]bool{from: true}
	stack := []int32{from}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st := d.tops[x]
		if st == nil || st.status == topCommitted {
			continue
		}
		for m := range st.deps {
			if m == to {
				return true
			}
			if other := d.tops[m]; other != nil && other.status == topCommitted {
				continue
			}
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

// commitBarrier blocks a finishing top-level transaction until every
// transaction whose uncommitted effects it observed has resolved; if any of
// them aborted (or this transaction was killed meanwhile), it returns a
// retriable abort.
func (d *depTracker) commitBarrier(e *Exec) error {
	if !d.enabled {
		return nil
	}
	n := e.id[0]
	defer func() {
		d.mu.Lock()
		if self := d.tops[n]; self != nil {
			self.committing = false
		}
		d.mu.Unlock()
	}()
	for {
		d.mu.Lock()
		self := d.tops[n]
		if self == nil {
			d.mu.Unlock()
			return nil
		}
		self.committing = true
		var wait *topState
		var waitN int32
		for m := range self.deps {
			other := d.tops[m]
			if other == nil || other.status == topCommitted {
				delete(self.deps, m)
				continue
			}
			if other.status == topAborting || other.status == topAborted {
				d.mu.Unlock()
				return &AbortError{Exec: e.id, Reason: fmt.Sprintf("cascade: dependency T%d aborted", m), Retriable: true, Err: ErrKilled}
			}
			wait, waitN = other, m
			break
		}
		if wait == nil {
			d.mu.Unlock()
			return nil // all dependencies committed
		}
		// Barrier deadlock: if our unresolved dependencies lead, through
		// transactions that are themselves blocked in the barrier, back to
		// us, nobody will progress. Detected by the transaction that
		// closes the cycle; it aborts (retriably), releasing the others.
		if d.barrierCycleLocked(n) {
			d.mu.Unlock()
			return &AbortError{Exec: e.id, Reason: "commit-barrier deadlock (mutual observation)", Retriable: true, Err: ErrKilled}
		}
		ch := wait.done
		d.mu.Unlock()
		select {
		case <-ch:
			// resolved; loop to re-examine
		case <-e.KillCh():
			return &AbortError{Exec: e.id, Reason: fmt.Sprintf("cascade: killed while awaiting T%d", waitN), Retriable: true, Err: ErrKilled}
		case <-e.Context().Done():
			// The caller gave up: RunCtx promises cancellation is honoured
			// at the commit boundary, and the kill channel above only fires
			// for wound-wait aborts, not for context cancellation.
			return &AbortError{Exec: e.id, Reason: fmt.Sprintf("cancelled while awaiting T%d: %v", waitN, e.Context().Err()), Retriable: false, Err: e.Context().Err()}
		}
	}
}

// barrierCycleLocked reports whether n's unresolved dependencies reach back
// to n through transactions blocked in the commit barrier. Caller holds
// d.mu.
func (d *depTracker) barrierCycleLocked(n int32) bool {
	seen := map[int32]bool{}
	var visit func(m int32) bool
	visit = func(m int32) bool {
		if m == n {
			return true
		}
		if seen[m] {
			return false
		}
		seen[m] = true
		st := d.tops[m]
		if st == nil || !st.committing {
			// Not blocked in the barrier: it can still make progress on
			// its own, so it does not propagate the wait.
			return false
		}
		for k := range st.deps {
			if other := d.tops[k]; other != nil && other.status == topCommitted {
				continue
			}
			if visit(k) {
				return true
			}
		}
		return false
	}
	self := d.tops[n]
	for m := range self.deps {
		if other := d.tops[m]; other != nil && other.status == topCommitted {
			continue
		}
		if visit(m) {
			return true
		}
	}
	return false
}

// commitTop finalises a top-level commit: drops its touches and wakes
// dependents.
func (d *depTracker) commitTop(e *Exec) {
	if !d.enabled {
		return
	}
	n := e.id[0]
	d.mu.Lock()
	if self := d.tops[n]; self != nil {
		self.status = topCommitted
		close(self.done)
		d.log.Drop(&self.fp)
	}
	d.mu.Unlock()
}

// beginAbort transitions the transaction to aborting and returns the live
// dependents that must be cascade-aborted first, youngest first.
func (d *depTracker) beginAbort(e *Exec) []*topState {
	if !d.enabled {
		return nil
	}
	n := e.id[0]
	d.mu.Lock()
	self := d.tops[n]
	if self == nil || self.status == topAborting || self.status == topAborted {
		d.mu.Unlock()
		return nil
	}
	self.status = topAborting
	var ids []int32
	for m, st := range d.tops {
		if m == n || !st.deps[n] {
			continue
		}
		// Running dependents must be killed; ones already aborting must
		// still be awaited so their undo completes before ours starts.
		if st.status == topRunning || st.status == topAborting {
			ids = append(ids, m)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] > ids[j] }) // youngest first
	dependents := make([]*topState, 0, len(ids))
	for _, m := range ids {
		dependents = append(dependents, d.tops[m])
	}
	d.mu.Unlock()
	return dependents
}

// finishAbort marks the abort complete (effects undone) and wakes waiters.
func (d *depTracker) finishAbort(e *Exec) {
	if !d.enabled {
		return
	}
	n := e.id[0]
	d.mu.Lock()
	if self := d.tops[n]; self != nil {
		if self.status != topAborted {
			self.status = topAborted
			close(self.done)
		}
		d.log.Drop(&self.fp)
	}
	d.mu.Unlock()
}

// forget drops the transaction's registration entirely (after its Run
// attempt fully ended) to keep the tracker bounded.
func (d *depTracker) forget(e *Exec) {
	if !d.enabled {
		return
	}
	d.mu.Lock()
	delete(d.tops, e.id[0])
	d.mu.Unlock()
}
