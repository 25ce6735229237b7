package engine

import (
	"errors"
	"sync/atomic"

	"objectbase/internal/core"
)

// RecordingMode selects how much of the history h = (E, <, B, S) the
// engine retains. The history is an analysis artifact — the oracle's
// input — not something any scheduler needs to operate, so load runs can
// turn it off and keep only counters.
type RecordingMode int

const (
	// RecordFull retains the complete history; History() returns it and
	// the oracle (graph.Check, CheckLegal, CheckTheorem5) can verify the
	// run. Memory grows with the run unless Options.HistoryLimit caps it.
	RecordFull RecordingMode = iota
	// RecordStats retains nothing but atomic event counters (bounded
	// memory, near-zero cost per event). History() is unavailable.
	RecordStats
)

func (m RecordingMode) String() string {
	if m == RecordStats {
		return "off"
	}
	return "full"
}

// ErrHistoryDisabled is returned by history accessors when the engine
// runs with RecordStats: there is no history to return.
var ErrHistoryDisabled = errors.New("engine: history recording disabled")

// ErrHistoryLimit is returned once a full-mode run exceeds
// Options.HistoryLimit recorded events. Recording fails fast — the
// transaction that overflows aborts non-retriably — instead of growing
// without bound; the history is then incomplete, so snapshots fail too.
var ErrHistoryLimit = errors.New("engine: history limit exceeded")

// HistoryObserver consumes the engine's execution events. The engine
// calls it from every hot path (each local step, message, and
// commit/abort of every transaction), so implementations must be safe
// for concurrent use and should be cheap; the full recorder retains
// everything for the oracle, the stats observer only counts.
//
// AddExec, StartMessage and AddStep may refuse the event (a full
// recorder past its configured limit); the engine converts the error
// into a non-retriable abort of the issuing transaction.
type HistoryObserver interface {
	// AddObject registers an object's schema and initial state
	// (registration time, not a hot path).
	AddObject(name string, sc *core.Schema, initial core.State)
	// AddExec records the creation of a method execution. The parent, if
	// any, was recorded before (the engine creates parents first).
	AddExec(id core.ExecID, object, method string) error
	// StartMessage records the opening of the message that created child
	// (child = parent.Child(k); the engine allocates k). The returned
	// MessageStep is the token handed back to EndMessage; observers that
	// do not retain messages return nil.
	StartMessage(parent, child core.ExecID, lane int, object, method string, args []core.Value) (*core.MessageStep, error)
	// EndMessage closes a message step previously opened by
	// StartMessage. m may be nil (non-retaining observer).
	EndMessage(m *core.MessageStep, ret core.Value, aborted bool)
	// AddStep records a local step. The caller holds the object's latch,
	// so consecutive calls for one object arrive in apply (ObjSeq) order.
	AddStep(exec core.ExecID, object string, info core.StepInfo, objSeq int) error
	// AddViewStep records a read-only step served from a committed
	// snapshot (the MVCC fast path). objSeq is the version's publication
	// watermark — the position in the object's linearisation *before*
	// which the step logically occurred — and snapSeq the snapshot's
	// global commit sequence number. The caller holds no latch; the full
	// recorder re-sorts per-object steps at snapshot time (see
	// core.StepLess).
	AddViewStep(exec core.ExecID, object string, info core.StepInfo, objSeq int, snapSeq uint64) error
	// MarkAborted marks the execution and all recorded descendants
	// aborted (abort semantics (b)).
	MarkAborted(id core.ExecID)
	// Snapshot returns a safe-to-read copy of the recorded history with
	// the given final states folded in, or ErrHistoryDisabled /
	// ErrHistoryLimit when no (complete) history exists.
	Snapshot(finals map[string]core.State) (*core.History, error)
	// EventStats returns the observer's event counters.
	EventStats() ObserverStats
}

// ObserverStats counts the events an observer saw; both observers
// maintain it, so harnesses can sanity-check a run in either mode.
type ObserverStats struct {
	Execs    int64 // method executions created
	Steps    int64 // local steps applied
	Messages int64 // messages sent
	Aborts   int64 // MarkAborted calls (aborted executions, not subtrees)
}

// statsObserver is the RecordStats implementation: event counters, no
// allocation on any path, memory O(1) regardless of run length. The
// counters are striped by top-level transaction number, one cache line
// per stripe, so concurrent transactions (which hold distinct, mostly
// consecutive numbers) count on distinct lines instead of all bumping one
// shared word per event; EventStats sums the stripes. Every event still
// lands in exactly one counter, so the sums are exact.
type statsObserver struct {
	stripes [statsStripes]statsStripe
}

// statsStripes is a power of two, well above the number of transactions
// that run at once on a few cores.
const statsStripes = 8

// statsStripe is one stripe's counters, padded to a 128-byte line pair
// so that adjacent-line prefetch does not couple neighbours either.
type statsStripe struct {
	execs    atomic.Int64
	steps    atomic.Int64
	messages atomic.Int64
	aborts   atomic.Int64
	_        [128 - 4*8]byte
}

func newStatsObserver() *statsObserver { return &statsObserver{} }

// stripe returns the counters of id's top-level transaction.
func (s *statsObserver) stripe(id core.ExecID) *statsStripe {
	return &s.stripes[uint32(id[0])%statsStripes]
}

func (s *statsObserver) AddObject(string, *core.Schema, core.State) {}

func (s *statsObserver) AddExec(id core.ExecID, _, _ string) error {
	s.stripe(id).execs.Add(1)
	return nil
}

func (s *statsObserver) StartMessage(parent, _ core.ExecID, _ int, _, _ string, _ []core.Value) (*core.MessageStep, error) {
	s.stripe(parent).messages.Add(1)
	return nil, nil
}

func (s *statsObserver) EndMessage(*core.MessageStep, core.Value, bool) {}

func (s *statsObserver) AddStep(id core.ExecID, _ string, _ core.StepInfo, _ int) error {
	s.stripe(id).steps.Add(1)
	return nil
}

func (s *statsObserver) AddViewStep(id core.ExecID, _ string, _ core.StepInfo, _ int, _ uint64) error {
	s.stripe(id).steps.Add(1)
	return nil
}

func (s *statsObserver) MarkAborted(id core.ExecID) { s.stripe(id).aborts.Add(1) }

func (s *statsObserver) Snapshot(map[string]core.State) (*core.History, error) {
	return nil, ErrHistoryDisabled
}

func (s *statsObserver) EventStats() ObserverStats {
	var st ObserverStats
	for i := range s.stripes {
		p := &s.stripes[i]
		st.Execs += p.execs.Load()
		st.Steps += p.steps.Load()
		st.Messages += p.messages.Load()
		st.Aborts += p.aborts.Load()
	}
	return st
}
