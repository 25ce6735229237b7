// Package obs is the zero-dependency observability layer: a flight
// recorder of per-exec phase spans in lock-free per-client ring buffers,
// a metrics registry (atomic counters/gauges plus phase-latency
// histograms) with a Prometheus text exposition, and an opt-in debug
// HTTP server (/metrics, /waitsfor, net/http/pprof).
//
// Everything follows the engine's observer convention: a nil *Tracer is
// fully operational as a no-op, so instrumented hot paths pay a single
// pointer check when tracing is disabled and never branch on a separate
// "enabled" flag.
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Phase identifies where a span's time went. The top-level phases
// (admit, schedule-wait, execute, commit-barrier, publish,
// retry-backoff) are mutually exclusive and partition a transaction
// attempt's wall time; lock-wait and gate-wait nest inside execute (and
// inside the serial path's setup) and are excluded from the partition;
// the restart/fallback phases are instant events marking control-flow
// transitions.
type Phase uint8

const (
	// PhaseAdmit covers per-attempt setup: exec allocation, history
	// admission and dependency registration.
	PhaseAdmit Phase = iota
	// PhaseScheduleWait covers the scheduler's Begin admission gate.
	PhaseScheduleWait
	// PhaseLockWait covers one blocked lock acquisition (nested inside
	// execute; Object carries the object key).
	PhaseLockWait
	// PhaseExecute covers the transaction body.
	PhaseExecute
	// PhaseCommitBarrier covers waiting out commit dependencies and the
	// scheduler's Commit.
	PhaseCommitBarrier
	// PhasePublish covers version publication and history sealing.
	PhasePublish
	// PhaseRetryBackoff covers the backoff sleep between attempts.
	PhaseRetryBackoff
	// PhaseViewFallback marks a read-only view giving up on the
	// snapshot path and falling back to the locked path (instant).
	PhaseViewFallback
	// PhaseGateWait covers one blocked shard-gate acquisition on the
	// serial/2PC paths (Object carries the gate index).
	PhaseGateWait
	// PhaseSerialRestart marks a serial fast-path attempt restarting
	// because the declared set proved incomplete (instant).
	PhaseSerialRestart
	// PhaseTwoPCRestart marks a cross-shard attempt restarting 2PC
	// after discovering new shards (instant).
	PhaseTwoPCRestart

	// NumPhases is the number of phases (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"admit",
	"schedule-wait",
	"lock-wait",
	"execute",
	"commit-barrier",
	"publish",
	"retry-backoff",
	"view-fallback",
	"gate-wait",
	"serial-restart",
	"2pc-restart",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// PhaseByName returns the phase with the given String() name.
func PhaseByName(name string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == name {
			return Phase(i), true
		}
	}
	return 0, false
}

// Exclusive reports whether the phase is part of the mutually-exclusive
// partition of a transaction attempt's wall time (the reconciliation
// set). Nested waits and instant events are excluded.
func (p Phase) Exclusive() bool {
	switch p {
	case PhaseAdmit, PhaseScheduleWait, PhaseExecute, PhaseCommitBarrier,
		PhasePublish, PhaseRetryBackoff:
		return true
	}
	return false
}

// SpanRecord is one completed span (or instant event, Dur == 0 and
// Instant set) as drained from the flight recorder. Start is relative
// to the tracer's epoch.
type SpanRecord struct {
	Phase   Phase
	Exec    string
	Object  string
	Outcome string
	Ring    int
	Instant bool
	Start   time.Duration
	Dur     time.Duration
}

const (
	numRings = 64
	// ringSize bounds each ring to the most recent spans; older entries
	// are overwritten (flight-recorder semantics). Power of two.
	ringSize = 1 << 12
)

// ring is a lock-free overwrite-on-wrap span buffer. Writers reserve a
// slot with an atomic increment and store an immutable record pointer;
// readers load pointers without coordination. A reader racing a wrap
// may see the new record instead of the old — acceptable for a flight
// recorder, and race-detector clean.
type ring struct {
	next  atomic.Uint64
	slots [ringSize]atomic.Pointer[SpanRecord]
}

func (r *ring) put(rec *SpanRecord) {
	i := r.next.Add(1) - 1
	r.slots[i&(ringSize-1)].Store(rec)
}

// Tracer is the flight recorder. The zero of concern is nil: every
// method no-ops on a nil receiver, and StartSpan returns a Span whose
// End is equally free, so disabled tracing costs one pointer check at
// each instrumentation site.
type Tracer struct {
	epoch time.Time // monotonic base for span timestamps
	rings [numRings]ring
	hists [NumPhases]Hist
}

// NewTracer returns an enabled flight recorder.
func NewTracer() *Tracer {
	t := &Tracer{epoch: time.Now()}
	for i := range t.hists {
		t.hists[i].reset()
	}
	return t
}

// Enabled reports whether the tracer records anything.
func (t *Tracer) Enabled() bool { return t != nil }

// Epoch returns the wall-clock instant span Starts are relative to
// (zero for a nil tracer).
func (t *Tracer) Epoch() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Span is an in-flight phase measurement. The zero Span (from a nil
// tracer) is valid and End is a no-op on it.
type Span struct {
	t      *Tracer
	phase  Phase
	ring   uint32
	start  time.Duration
	exec   string
	object string
}

// StartSpan opens a span for phase p. client selects the ring (callers
// pass a stable per-client or per-exec number); exec and object label
// the span and may be empty.
func (t *Tracer) StartSpan(p Phase, client uint64, exec, object string) Span {
	if t == nil {
		return Span{}
	}
	return Span{
		t:      t,
		phase:  p,
		ring:   uint32(client % numRings),
		start:  time.Since(t.epoch),
		exec:   exec,
		object: object,
	}
}

// End closes the span with no outcome label.
func (s Span) End() { s.end("") }

// EndWith closes the span with an outcome label (e.g. "grant",
// "timeout", "cancel", "abort").
func (s Span) EndWith(outcome string) { s.end(outcome) }

// Next ends the span and opens its successor phase at one shared
// instant, carrying the ring and labels over. Consecutive phases handed
// off this way partition the wall time exactly — no unmeasured gap
// between them; the recording cost of the handoff itself is charged to
// the successor. The reconciliation invariant (exclusive phase sums ≈
// attempt latency) depends on every boundary using Next rather than an
// End/StartSpan pair.
func (s Span) Next(p Phase) Span {
	if s.t == nil {
		return Span{}
	}
	now := time.Since(s.t.epoch)
	s.endAt(now, "")
	return Span{t: s.t, phase: p, ring: s.ring, start: now, exec: s.exec, object: s.object}
}

// WithExec returns the span relabelled with exec. Callers that format
// the exec key after opening the span use it so the formatting cost
// lands inside the measured phase instead of in an unmeasured gap
// before it; Next propagates the label to successor phases.
func (s Span) WithExec(exec string) Span {
	if s.t == nil {
		return s
	}
	s.exec = exec
	return s
}

// WithExecRing is WithExec plus a ring re-home: the hand-off used when
// a span must open before the attempt's identity exists (the engine's
// retry loop opens admit before allocating the transaction ID, so the
// allocation itself is measured) and is labelled once it does.
func (s Span) WithExecRing(exec string, client uint64) Span {
	if s.t == nil {
		return s
	}
	s.exec = exec
	s.ring = uint32(client % numRings)
	return s
}

func (s Span) end(outcome string) {
	if s.t == nil {
		return
	}
	// The record is allocated before the closing timestamp, so the
	// allocation — the expensive part of recording — lands inside the
	// measured span rather than in the unmeasured gap after a final End.
	// Only the histogram update and ring store run post-stamp. (Next uses
	// endAt directly: its handoff cost is charged to the successor span.)
	rec := &SpanRecord{
		Phase:   s.phase,
		Exec:    s.exec,
		Object:  s.object,
		Outcome: outcome,
		Ring:    int(s.ring),
		Start:   s.start,
	}
	rec.Dur = time.Since(s.t.epoch) - s.start
	s.t.hists[s.phase].Record(rec.Dur)
	s.t.rings[s.ring].put(rec)
}

func (s Span) endAt(now time.Duration, outcome string) {
	d := now - s.start
	s.t.hists[s.phase].Record(d)
	s.t.rings[s.ring].put(&SpanRecord{
		Phase:   s.phase,
		Exec:    s.exec,
		Object:  s.object,
		Outcome: outcome,
		Ring:    int(s.ring),
		Start:   s.start,
		Dur:     d,
	})
}

// Event records an instant event (no duration, no histogram entry):
// restarts, fallbacks, deadlock denials.
func (t *Tracer) Event(p Phase, client uint64, exec, object, outcome string) {
	if t == nil {
		return
	}
	ri := uint32(client % numRings)
	t.rings[ri].put(&SpanRecord{
		Phase:   p,
		Exec:    exec,
		Object:  object,
		Outcome: outcome,
		Ring:    int(ri),
		Instant: true,
		Start:   time.Since(t.epoch),
	})
}

// PhaseHist returns the cumulative latency histogram for a phase.
// Histograms survive ring wraparound: every span is recorded even when
// its ring slot has been overwritten.
func (t *Tracer) PhaseHist(p Phase) *Hist {
	if t == nil {
		return nil
	}
	return &t.hists[p]
}

// Snapshot drains a copy of every ring, sorted by start time. Spans
// overwritten by wraparound are gone (see Dropped); histograms keep
// their latencies regardless.
func (t *Tracer) Snapshot() []SpanRecord {
	if t == nil {
		return nil
	}
	var out []SpanRecord
	for ri := range t.rings {
		r := &t.rings[ri]
		n := r.next.Load()
		if n > ringSize {
			n = ringSize
		}
		for i := uint64(0); i < n; i++ {
			if p := r.slots[i].Load(); p != nil {
				out = append(out, *p)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Dropped returns how many spans have been overwritten by ring
// wraparound since the tracer was created.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var dropped uint64
	for ri := range t.rings {
		if n := t.rings[ri].next.Load(); n > ringSize {
			dropped += n - ringSize
		}
	}
	return dropped
}
