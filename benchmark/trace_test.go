package main

import (
	"math"
	"testing"
	"time"
)

// One transaction: opgen [0,10]; façade [10,110] containing a body
// [20,100] containing two calls [30,50] and [60,90], each containing one
// step [35,45] and [65,85].
func tracedTxn(tc *clientTrace, base int64) {
	s := tc.beginAt(spanOpgen, base)
	tc.endAt(s, base+10)
	f := tc.beginAt(spanExec, base+10)
	b := tc.beginAt(spanBody, base+20)
	for _, at := range [][4]int64{{30, 35, 45, 50}, {60, 65, 85, 90}} {
		c := tc.beginAt(spanCall, base+at[0])
		st := tc.beginAt(spanStep, base+at[1])
		tc.endAt(st, base+at[2])
		tc.endAt(c, base+at[3])
	}
	tc.endAt(b, base+100)
	tc.endAt(f, base+110)
}

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	tc := newClientTrace(time.Now(), 0, 64)
	tracedTxn(tc, 0)
	self, count := selfTimes(tc.spans)
	want := map[spanKind][2]int64{
		spanOpgen: {10, 1},
		spanExec:  {20, 1}, // 100 - body 80
		spanBody:  {30, 1}, // 80 - calls 20+30
		spanCall:  {20, 2}, // (20-10) + (30-20)
		spanStep:  {30, 2},
	}
	var total int64
	for k, w := range want {
		if self[k] != w[0] || count[k] != w[1] {
			t.Errorf("%s: self %d count %d, want %d %d", spanNames[k], self[k], count[k], w[0], w[1])
		}
		total += self[k]
	}
	if total != 110 {
		t.Errorf("self times sum to %d, want the 110 the two root spans cover", total)
	}
	if tc.open != -1 {
		t.Errorf("open span stack not empty: %d", tc.open)
	}
	if p := tc.spans[4].parent; tc.spans[p].kind != spanCall {
		t.Errorf("step's parent is %s, want engine.call", spanNames[tc.spans[p].kind])
	}
}

func TestSummaryReconcilesWithWallClock(t *testing.T) {
	a, b := newClientTrace(time.Now(), 0, 64), newClientTrace(time.Now(), 1, 64)
	tracedTxn(a, 0)
	tracedTxn(a, 110) // root spans tile the client's wall clock
	tracedTxn(b, 5)
	sum := summarise([]*clientTrace{a, b})
	if sum.Txns != 3 || sum.Spans != 21 {
		t.Fatalf("txns %d spans %d, want 3 and 21", sum.Txns, sum.Spans)
	}
	if math.Abs(sum.MeanTxnUs-0.110) > 1e-12 {
		t.Errorf("mean txn %.4f us, want 0.110", sum.MeanTxnUs)
	}
	if sum.ReconcileFrac > 1e-9 {
		t.Errorf("self times miss the mean by %v", sum.ReconcileFrac)
	}
	if sum.StepsPerTxn != 2 || sum.CallsPerTxn != 2 || sum.AttemptsPer != 1 {
		t.Errorf("counts per txn: steps %v calls %v attempts %v", sum.StepsPerTxn, sum.CallsPerTxn, sum.AttemptsPer)
	}
	if sum.StepP50Us != 0.010 || sum.StepP99Us != 0.020 || sum.StepSamples != 6 {
		t.Errorf("step percentiles %v %v over %d samples", sum.StepP50Us, sum.StepP99Us, sum.StepSamples)
	}
}

func TestFullBufferDropsWholeSpans(t *testing.T) {
	tc := newClientTrace(time.Now(), 0, 2)
	a := tc.beginAt(spanExec, 0)
	b := tc.beginAt(spanBody, 1)
	c := tc.beginAt(spanCall, 2) // no room
	if c != -1 || tc.dropped != 1 {
		t.Fatalf("third span: index %d, dropped %d", c, tc.dropped)
	}
	tc.endAt(c, 3)
	tc.endAt(b, 4)
	tc.endAt(a, 5)
	if tc.spans[0].end != 5 || tc.spans[1].end != 4 || tc.open != -1 {
		t.Errorf("recorded spans corrupted by the dropped one: %+v", tc.spans)
	}
	if tc.room() {
		t.Error("a full buffer reports room for another transaction")
	}
}
