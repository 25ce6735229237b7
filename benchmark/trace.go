package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"time"

	"objectbase"
)

// spanKind names a layer boundary the benchmark's own code can see: it
// owns the client loop, every transaction body and every method body, so
// it can bracket the façade call, each body attempt, each message and
// each local step without touching the engine.
type spanKind uint8

const (
	spanOpgen spanKind = iota
	spanExec
	spanExecTouching
	spanView
	spanBody
	spanCall
	spanStep
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"bench.opgen", "facade.exec", "facade.exec_touching", "facade.view",
	"engine.body", "engine.call", "engine.step",
}

// span is one recorded interval. Times are nanoseconds since the trace's
// base; parent indexes the same client's buffer (-1 for a root); txn is
// the transaction's index in the client's op stream, so (client, txn)
// identifies the transaction every span of it shares.
type span struct {
	start, end int64
	parent     int32
	txn        int32
	kind       spanKind
}

// maxSpansPerTxn bounds the spans one transaction records without
// retries (a scan: opgen + façade + body + 9 calls + 9 steps). The
// client stops a traced round while at least four times this much room
// is left, so only a transaction retried more than three times can
// overflow — and then its spans are dropped and counted, not corrupted.
const maxSpansPerTxn = 21

// clientTrace is one client's span buffer. All of a client's spans are
// recorded by the client's own goroutine (the engine runs bodies and
// methods on the caller's goroutine), so there is no synchronisation and
// the open spans form a stack.
type clientTrace struct {
	base    time.Time
	client  int
	spans   []span // len grows towards cap, never beyond: no allocation while recording
	open    int32  // innermost open span, -1 when none
	txn     int32
	dropped int
}

func newClientTrace(base time.Time, client, capacity int) *clientTrace {
	return &clientTrace{base: base, client: client, spans: make([]span, 0, capacity), open: -1}
}

func (tc *clientTrace) now() int64 { return int64(time.Since(tc.base)) }

// room reports whether another whole transaction fits.
func (tc *clientTrace) room() bool { return cap(tc.spans)-len(tc.spans) >= 4*maxSpansPerTxn }

func (tc *clientTrace) begin(k spanKind) int32 { return tc.beginAt(k, tc.now()) }

// beginAt opens a span at time t under the innermost open span and
// returns its index, or -1 when the buffer is full.
func (tc *clientTrace) beginAt(k spanKind, t int64) int32 {
	if len(tc.spans) == cap(tc.spans) {
		tc.dropped++
		return -1
	}
	i := int32(len(tc.spans))
	tc.spans = append(tc.spans, span{start: t, parent: tc.open, txn: tc.txn, kind: k})
	tc.open = i
	return i
}

func (tc *clientTrace) end(i int32) { tc.endAt(i, tc.now()) }

// endAt closes span i (a no-op for a dropped span's -1).
func (tc *clientTrace) endAt(i int32, t int64) {
	if i < 0 {
		return
	}
	tc.spans[i].end = t
	tc.open = tc.spans[i].parent
}

// body wraps a transaction body so every invocation — one per attempt —
// is an engine.body span.
func (tc *clientTrace) body(fn objectbase.MethodFunc) objectbase.MethodFunc {
	return func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		s := tc.begin(spanBody)
		v, err := fn(ctx)
		tc.end(s)
		return v, err
	}
}

// traceOf returns the trace buffer a traced caller appended after a
// method's n real arguments, or nil in an untraced round.
func traceOf(ctx *objectbase.Ctx, n int) *clientTrace {
	if args := ctx.Args(); len(args) > n {
		tc, _ := args[n].(*clientTrace)
		return tc
	}
	return nil
}

// call sends one message from a transaction body. Traced, it is an
// engine.call span and hands the trace buffer to the method as a
// trailing argument, which is how a method registered once reaches the
// buffer of whichever client invoked it.
func call(tc *clientTrace, ctx *objectbase.Ctx, object, method string, args ...objectbase.Value) (objectbase.Value, error) {
	if tc == nil {
		return ctx.Call(object, method, args...)
	}
	s := tc.begin(spanCall)
	v, err := ctx.Call(object, method, append(args, tc)...)
	tc.end(s)
	return v, err
}

// do issues one local step from a method body that takes n real
// arguments; traced, it is an engine.step span.
func do(ctx *objectbase.Ctx, n int, object, op string, args ...objectbase.Value) (objectbase.Value, error) {
	tc := traceOf(ctx, n)
	if tc == nil {
		return ctx.Do(object, op, args...)
	}
	s := tc.begin(spanStep)
	v, err := ctx.Do(object, op, args...)
	tc.end(s)
	return v, err
}

// selfTimes returns, per span kind, the summed self time (duration minus
// the part covered by child spans) and the span count of one client's
// buffer. Children of a span never overlap each other — the open spans
// are a stack — so the covered part is the sum of the children's
// durations, and the self times of a tree sum to its root's duration.
func selfTimes(spans []span) (self, count [numSpanKinds]int64) {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	for i, s := range spans {
		self[s.kind] += s.end - s.start - covered[i]
		count[s.kind]++
	}
	return self, count
}

// traceSummary is what a traced round contributes to the per-layer
// ledger. The five *_us_per_txn self times partition the client's wall
// clock, so they sum to MeanTxnUs up to dropped spans.
type traceSummary struct {
	Txns          int     `json:"txns"`
	Spans         int     `json:"spans"`
	Dropped       int     `json:"dropped_spans"`
	MeanTxnUs     float64 `json:"mean_txn_us"`
	OpgenUs       float64 `json:"opgen_us_per_txn"`
	EnvelopeUs    float64 `json:"envelope_us_per_txn"`
	BodySelfUs    float64 `json:"body_self_us_per_txn"`
	CallSelfUs    float64 `json:"call_self_us_per_txn"`
	StepUs        float64 `json:"step_us_per_txn"`
	ReconcileFrac float64 `json:"reconcile_frac"` // |1 - sum of the five / MeanTxnUs|
	StepP50Us     float64 `json:"step_p50_us"`
	StepP99Us     float64 `json:"step_p99_us"`
	StepSamples   int     `json:"step_samples"`
	StepsPerTxn   float64 `json:"steps_per_txn"`
	CallsPerTxn   float64 `json:"calls_per_txn"`
	AttemptsPer   float64 `json:"attempts_per_txn"`
}

// countTxns is how many transactions per client, from the start of the
// window, the per-transaction span counts are taken over. Every workload
// gets that far in a traced round, so the counts are those of one fixed
// piece of the op stream: they repeat exactly for a seed unless a retry
// or a data-dependent branch falls inside it.
const countTxns = 2000

// summarise folds the clients' buffers into the traced round's ledger
// lines. A client's transactions tile its wall clock (each root span
// starts where the previous one ended), so the traced mean transaction
// time is wall time over transactions.
func summarise(traces []*clientTrace) traceSummary {
	var sum traceSummary
	var self, count, head [numSpanKinds]int64
	var wall int64
	var steps []int64
	for _, tc := range traces {
		s, c := selfTimes(tc.spans)
		for k := range s {
			self[k] += s[k]
			count[k] += c[k]
		}
		if n := len(tc.spans); n > 0 {
			// The last root span is the last façade call; its end is the
			// client's final timestamp.
			last := tc.spans[n-1]
			for last.parent >= 0 {
				last = tc.spans[last.parent]
			}
			wall += last.end - tc.spans[0].start
		}
		for _, s := range tc.spans {
			if s.kind == spanStep {
				steps = append(steps, s.end-s.start)
			}
			if s.txn < windowStart+countTxns {
				head[s.kind]++
			}
		}
		sum.Spans += len(tc.spans)
		sum.Dropped += tc.dropped
	}
	txns := count[spanOpgen]
	if txns == 0 {
		return sum
	}
	per := func(ns int64) float64 { return float64(ns) / float64(txns) / 1e3 }
	sum.Txns = int(txns)
	sum.MeanTxnUs = per(wall)
	sum.OpgenUs = per(self[spanOpgen])
	sum.EnvelopeUs = per(self[spanExec] + self[spanExecTouching] + self[spanView])
	sum.BodySelfUs = per(self[spanBody])
	sum.CallSelfUs = per(self[spanCall])
	sum.StepUs = per(self[spanStep])
	total := sum.OpgenUs + sum.EnvelopeUs + sum.BodySelfUs + sum.CallSelfUs + sum.StepUs
	sum.ReconcileFrac = math.Abs(1 - total/sum.MeanTxnUs)
	slices.Sort(steps)
	sum.StepP50Us = float64(percentile(steps, 50)) / 1e3
	sum.StepP99Us = float64(percentile(steps, 99)) / 1e3
	sum.StepSamples = len(steps)
	sum.StepsPerTxn = float64(head[spanStep]) / float64(head[spanOpgen])
	sum.CallsPerTxn = float64(head[spanCall]) / float64(head[spanOpgen])
	sum.AttemptsPer = float64(count[spanBody]) / float64(txns)
	return sum
}

// spanJSON is the written form of a span: name, start, end, the span
// that caused it, and the transaction id its whole tree shares.
type spanJSON struct {
	ID     string `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent,omitempty"`
	Txn    string `json:"txn"`
}

// writeTrace writes the first perClient spans of every client as JSON.
// The ledger is computed from every recorded span; the file is a sample
// because a 3 s round records millions.
func writeTrace(path string, traces []*clientTrace, perClient int) error {
	var out []spanJSON
	for _, tc := range traces {
		id := func(i int32) string { return fmt.Sprintf("%d.%d", tc.client, i) }
		n := len(tc.spans)
		if n > perClient {
			n = perClient
		}
		for i, s := range tc.spans[:n] {
			j := spanJSON{
				ID: id(int32(i)), Name: spanNames[s.kind], Start: s.start, End: s.end,
				Txn: fmt.Sprintf("%d:%d", tc.client, s.txn),
			}
			if s.parent >= 0 {
				j.Parent = id(s.parent)
			}
			out = append(out, j)
		}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
