package engine

// One allocation per method execution. A child execution is a single
// never-reused allocation that owns its identity and the arguments of
// its message and of its first steps, and a top-level attempt allocates
// its execution and the tree's per-transaction state together. These pins
// hold the engine to that: the Exec's size class, arguments passed
// through a variadic helper costing nothing extra, and exact counts for
// whole transactions on the scheduled and snapshot-view paths.

import (
	"context"
	"runtime"
	"testing"
	"unsafe"

	"objectbase/internal/core"
	"objectbase/internal/objects"
)

// TestExecSizeClass: the inline id and argument buffers fit in the size
// class the Exec had without them (320 B). Per-transaction state lives in
// txnState, once per tree, so it does not grow every child.
func TestExecSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Exec{}); n > 320 {
		t.Errorf("Exec is %d B, want <= 320 (one 320 B size class)", n)
	}
}

// newAllocEngine returns an engine under the trivial scheduler with
// counters a and b. The counters start far from zero so every Add boxes
// its new value (small integers are boxed without allocating), which
// keeps the per-transaction count constant. Method get does a Get with
// its own arguments (Get ignores them); method add does an Add of them.
// History is off: a full history takes heap copies of every id and
// argument (TestFullHistoryRetainsNoExec), so the pins would not hold.
func newAllocEngine(opts Options) *Engine {
	opts.Recording = RecordStats
	en := New(None{}, opts)
	for _, name := range []string{"a", "b"} {
		name := name
		en.AddObject(name, objects.Counter(), core.State{"n": int64(1 << 20)})
		en.Register(name, "get", func(x *Ctx) (core.Value, error) {
			return x.Do(name, "Get", x.Args()...)
		})
		en.Register(name, "add", func(x *Ctx) (core.Value, error) {
			return x.Do(name, "Add", x.Args()...)
		})
	}
	return en
}

// wholeTxnPinsApply reports whether exact whole-transaction counts can be
// pinned: the ordercheck witness allocates per latch.
func wholeTxnPinsApply() bool {
	return testing.AllocsPerRun(10, func() { ordAcquire(ordRankObject, "probe"); ordRelease(ordRankObject, "probe") }) == 0
}

// getVia sends get to object and then does a Get there itself, passing
// its variadic arguments on to Ctx.Call and Ctx.Do.
func getVia(x *Ctx, object string, args ...core.Value) (core.Value, error) {
	if _, err := x.Call(object, "get", args...); err != nil {
		return nil, err
	}
	return x.Do(object, "Get", args...)
}

// TestVariadicArgsDoNotEscape: a one-argument Call and Do reached through
// a variadic helper allocate no more than the zero-argument form. Ctx.Do
// and Ctx.Call copy their arguments, so the helper's slice stays on the
// caller's stack. (When the history kept the caller's slice, the
// helper's slice escaped: the one-argument form cost one allocation
// more.)
func TestVariadicArgsDoNotEscape(t *testing.T) {
	en := newAllocEngine(Options{})
	run := func(body MethodFunc) func() {
		return func() {
			if _, err := en.Run("t", body); err != nil {
				t.Fatal(err)
			}
		}
	}
	zero := testing.AllocsPerRun(200, run(func(x *Ctx) (core.Value, error) {
		return getVia(x, "a")
	}))
	one := testing.AllocsPerRun(200, run(func(x *Ctx) (core.Value, error) {
		return getVia(x, "a", int64(7))
	}))
	if one > zero {
		t.Errorf("one-argument Call and Do allocate %v per transaction, the zero-argument form %v", one, zero)
	}
}

// TestScheduledTransferAllocs pins a whole two-Call transfer on the
// scheduled path: the top-level attempt (its identity, and its execution
// with the transaction state), and per Call one child execution plus the
// counter's Add (its undo closure and the boxed new value) — 8. It was
// 13: the kill channel besides the top-level Exec, and per Call a child
// id besides the child Exec and the escaped message arguments.
func TestScheduledTransferAllocs(t *testing.T) {
	if !wholeTxnPinsApply() {
		t.Skip("the ordercheck witness allocates per latch; whole-transaction pins need the plain build")
	}
	en := newAllocEngine(Options{})
	const want = 8
	got := testing.AllocsPerRun(200, func() {
		if _, err := en.Run("transfer", func(x *Ctx) (core.Value, error) {
			if _, err := x.Call("a", "add", int64(-5)); err != nil {
				return nil, err
			}
			return x.Call("b", "add", int64(5))
		}); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Errorf("a two-Call transfer allocates %v, want %v", got, want)
	}
}

// TestViewScanAllocs pins a whole snapshot view of 8 one-argument Calls,
// each doing one Get: the top-level attempt (identity, and execution with
// transaction state), and per Call one child execution plus the boxed
// value Get returns — 18. It was 36: the kill channel and the snapshot
// handle besides the top-level Exec, and per Call a child id besides the
// child Exec and the escaped message arguments.
func TestViewScanAllocs(t *testing.T) {
	if !wholeTxnPinsApply() {
		t.Skip("the ordercheck witness allocates per latch; whole-transaction pins need the plain build")
	}
	en := newAllocEngine(Options{Versioning: true})
	const want = 18
	ctx := context.Background()
	got := testing.AllocsPerRun(200, func() {
		if _, err := en.RunView(ctx, "scan", func(x *Ctx) (core.Value, error) {
			for k := 0; k < 8; k++ {
				if _, err := x.Call("a", "get", int64(k)); err != nil {
					return nil, err
				}
			}
			return nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	if got != want {
		t.Errorf("a view of 8 Calls allocates %v, want %v", got, want)
	}
}

// TestFullHistoryRetainsNoExec: the full history keeps the identities and
// arguments of every execution, step and message, so it must keep heap
// copies of them and not the Exec buffers they could point into — a
// retained buffer would keep its Exec, and through parent and top the
// whole tree with its caller context, alive for as long as the history.
// Measured on two-Call transfers (amd64, Go 1.24): 1584 B per
// transaction stays reachable after GC (1625 under -race); lending the
// buffers to the history kept 2560 (2584).
func TestFullHistoryRetainsNoExec(t *testing.T) {
	en := New(None{}, Options{Recording: RecordFull})
	for _, name := range []string{"a", "b"} {
		name := name
		en.AddObject(name, objects.Counter(), core.State{"n": int64(1 << 20)})
		en.Register(name, "add", func(x *Ctx) (core.Value, error) {
			return x.Do(name, "Add", x.Args()...)
		})
	}
	const n = 4000
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	for i := 0; i < n; i++ {
		if _, err := en.Run("transfer", func(x *Ctx) (core.Value, error) {
			if _, err := x.Call("a", "add", int64(-5)); err != nil {
				return nil, err
			}
			return x.Call("b", "add", int64(5))
		}); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := float64(int64(ms.HeapAlloc)-int64(before)) / n
	runtime.KeepAlive(en)
	const bound = 2000
	if per > bound {
		t.Errorf("the full history keeps %.0f B per transaction, want <= %d", per, bound)
	}
}
