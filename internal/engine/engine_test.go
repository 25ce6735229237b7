package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"objectbase/internal/core"
	"objectbase/internal/graph"
	"objectbase/internal/objects"
)

func newTestEngine(sched Scheduler, opts Options) *Engine {
	en := New(sched, opts)
	en.AddObject("A", objects.Register(), core.State{"x": int64(0), "y": int64(0)})
	en.AddObject("C", objects.Counter(), nil)
	return en
}

// registerBump registers a read-modify-write method on object A.
func registerBump(en *Engine) {
	en.Register("A", "bump", func(ctx *Ctx) (core.Value, error) {
		v, err := ctx.Do("A", "Read", "x")
		if err != nil {
			return nil, err
		}
		if _, err := ctx.Do("A", "Write", "x", v.(int64)+1); err != nil {
			return nil, err
		}
		return v.(int64) + 1, nil
	})
}

func TestSingleTransaction(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	registerBump(en)
	ret, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Call("A", "bump")
	})
	if err != nil {
		t.Fatal(err)
	}
	if ret != int64(1) {
		t.Fatalf("ret = %v", ret)
	}
	if en.Commits() != 1 || en.Aborts() != 0 {
		t.Fatalf("commits=%d aborts=%d", en.Commits(), en.Aborts())
	}
	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
	if got := h.FinalStates["A"]["x"]; got != int64(1) {
		t.Fatalf("x = %v", got)
	}
	v := graph.Check(h)
	if !v.Serialisable {
		t.Fatalf("verdict: %v", v)
	}
}

func TestNestedCalls(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	en.Register("A", "inner", func(ctx *Ctx) (core.Value, error) {
		return ctx.Do("A", "Read", "x")
	})
	en.Register("A", "outer", func(ctx *Ctx) (core.Value, error) {
		if _, err := ctx.Do("A", "Write", "x", int64(5)); err != nil {
			return nil, err
		}
		return ctx.Call("A", "inner")
	})
	ret, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Call("A", "outer")
	})
	if err != nil || ret != int64(5) {
		t.Fatalf("ret=%v err=%v", ret, err)
	}
	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
	// Forest: T -> outer -> inner.
	top := core.RootID(0)
	outer := top.Child(0)
	inner := outer.Child(0)
	if h.Exec(inner) == nil || h.Exec(inner).Method != "inner" {
		t.Fatalf("missing inner exec")
	}
	m, _, err := h.MessageTo(inner)
	if err != nil || m.Object != "A" {
		t.Fatalf("MessageTo(inner): %v %v", m, err)
	}
}

func TestMethodArgs(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	en.Register("C", "addN", func(ctx *Ctx) (core.Value, error) {
		n := ctx.Arg(0).(int64)
		if _, err := ctx.Do("C", "Add", n); err != nil {
			return nil, err
		}
		return ctx.Do("C", "Get")
	})
	ret, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Call("C", "addN", int64(7))
	})
	if err != nil || ret != int64(7) {
		t.Fatalf("ret=%v err=%v", ret, err)
	}
	// Out-of-range arg.
	en.Register("C", "noArg", func(ctx *Ctx) (core.Value, error) {
		if ctx.Arg(3) != nil {
			return nil, fmt.Errorf("expected nil out-of-range arg")
		}
		return nil, nil
	})
	if _, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Call("C", "noArg")
	}); err != nil {
		t.Fatal(err)
	}
}

func TestChildAbortParentSurvives(t *testing.T) {
	// The paper's Section 3 scenario: M invokes M' which fails; M tries an
	// alternative way and succeeds.
	en := newTestEngine(None{}, Options{})
	en.Register("A", "failing", func(ctx *Ctx) (core.Value, error) {
		if _, err := ctx.Do("A", "Write", "x", int64(99)); err != nil {
			return nil, err
		}
		return nil, ctx.Abort("simulated failure")
	})
	en.Register("A", "fallback", func(ctx *Ctx) (core.Value, error) {
		return ctx.Do("A", "Write", "y", int64(1))
	})
	_, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		if _, err := ctx.Call("A", "failing"); err == nil {
			t.Errorf("failing child should report abort")
		}
		return ctx.Call("A", "fallback")
	})
	if err != nil {
		t.Fatalf("parent must survive child abort: %v", err)
	}
	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
	// Abort semantics (a): the failed write left no trace.
	if got := h.FinalStates["A"]["x"]; got != int64(0) {
		t.Fatalf("aborted write visible: x = %v", got)
	}
	if got := h.FinalStates["A"]["y"]; got != int64(1) {
		t.Fatalf("fallback lost: y = %v", got)
	}
	// The failing child and its message are recorded as aborted.
	failing := core.RootID(0).Child(0)
	if !h.Aborted(failing) {
		t.Fatalf("failing exec not marked aborted")
	}
	msg, _, _ := h.MessageTo(failing)
	if msg == nil || !msg.ChildAborted {
		t.Fatalf("message must reflect the child abort (Section 3)")
	}
	if h.Aborted(core.RootID(0)) {
		t.Fatalf("parent wrongly aborted")
	}
}

func TestUserAbortTopLevelNotRetried(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	attempts := 0
	_, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		attempts++
		if _, err := ctx.Do("A", "Write", "x", int64(1)); err != nil {
			return nil, err
		}
		return nil, ctx.Abort("user says no")
	})
	var ae *AbortError
	if !errors.As(err, &ae) || ae.Retriable {
		t.Fatalf("want non-retriable AbortError, got %v", err)
	}
	if attempts != 1 {
		t.Fatalf("user abort retried %d times", attempts)
	}
	h := en.History()
	if got := h.FinalStates["A"]["x"]; got != int64(0) {
		t.Fatalf("aborted top-level write visible: %v", got)
	}
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
}

func TestInternalParallelism(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	en.Register("C", "add", func(ctx *Ctx) (core.Value, error) {
		return ctx.Do("C", "Add", ctx.Arg(0))
	})
	_, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		err := ctx.Parallel(
			func(c *Ctx) error { _, e := c.Call("C", "add", int64(1)); return e },
			func(c *Ctx) error { _, e := c.Call("C", "add", int64(2)); return e },
			func(c *Ctx) error { _, e := c.Call("C", "add", int64(4)); return e },
		)
		return nil, err
	})
	if err != nil {
		t.Fatal(err)
	}
	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
	if got := h.FinalStates["C"]["n"]; got != int64(7) {
		t.Fatalf("n = %v, want 7", got)
	}
	// Three children with distinct IDs must exist.
	top := core.RootID(0)
	for k := int32(0); k < 3; k++ {
		if h.Exec(top.Child(k)) == nil {
			t.Fatalf("missing child %d", k)
		}
	}
	v := graph.Check(h)
	if !v.Serialisable {
		t.Fatalf("verdict: %v", v)
	}
	if err := graph.CheckTheorem5(h); err != nil {
		t.Fatalf("theorem 5: %v", err)
	}
}

// TestNoneSchedulerAdmitsAnomaly forces the lost-update interleaving under
// the None scheduler and checks the oracle rejects the history — the
// engine records faithfully, and without concurrency control the anomaly
// is real.
func TestNoneSchedulerAdmitsAnomaly(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	readDone := make(chan struct{})
	writeDone := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, err := en.Run("T1", func(ctx *Ctx) (core.Value, error) {
			v, err := ctx.Do("A", "Read", "x")
			if err != nil {
				return nil, err
			}
			readDone <- struct{}{} // let T2 read now
			<-writeDone            // wait for T2's read
			return ctx.Do("A", "Write", "x", v.(int64)+1)
		})
		if err != nil {
			t.Errorf("T1: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		_, err := en.Run("T2", func(ctx *Ctx) (core.Value, error) {
			<-readDone
			v, err := ctx.Do("A", "Read", "x")
			if err != nil {
				return nil, err
			}
			writeDone <- struct{}{}
			return ctx.Do("A", "Write", "x", v.(int64)+1)
		})
		if err != nil {
			t.Errorf("T2: %v", err)
		}
	}()
	wg.Wait()

	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history must be legal (merely not serialisable): %v", err)
	}
	if got := h.FinalStates["A"]["x"]; got != int64(1) {
		t.Fatalf("lost update should leave x=1, got %v", got)
	}
	v := graph.Check(h)
	if v.Serialisable {
		t.Fatalf("oracle certified a lost update: %v", v)
	}
}

func TestRunManySmoke(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	en.Register("C", "add", func(ctx *Ctx) (core.Value, error) {
		return ctx.Do("C", "Add", int64(1))
	})
	err := en.RunMany(4, 40, func(i int) (string, MethodFunc, []core.Value) {
		return "T", func(ctx *Ctx) (core.Value, error) {
			return ctx.Call("C", "add")
		}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	h := en.History()
	if got := h.FinalStates["C"]["n"]; got != int64(40) {
		t.Fatalf("n = %v, want 40 (Adds commute, None is enough)", got)
	}
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
	if v := graph.Check(h); !v.Serialisable {
		t.Fatalf("commuting adds must be serialisable: %v", v)
	}
}

func TestUnknownObjectAndMethod(t *testing.T) {
	en := newTestEngine(None{}, Options{})
	if _, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Call("nosuch", "m")
	}); err == nil {
		t.Fatalf("unknown object must fail")
	}
	if _, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Call("A", "nosuch")
	}); err == nil {
		t.Fatalf("unknown method must fail")
	}
	if _, err := en.Run("T", func(ctx *Ctx) (core.Value, error) {
		return ctx.Do("nosuch", "Read", "x")
	}); err == nil {
		t.Fatalf("unknown object in Do must fail")
	}
}

// trackingScheduler is None plus dependency registration: the minimal
// scheduler exposing uncommitted state, used to unit-test cascades.
type trackingScheduler struct{ None }

func (trackingScheduler) Name() string { return "tracking-none" }

func (trackingScheduler) Step(e *Exec, obj *Object, inv core.OpInvocation) (core.Value, error) {
	obj.Latch()
	defer obj.Unlatch()
	scope := core.ScopeOf(obj.Name(), obj.Schema().Conflicts, inv)
	if err := e.Engine().TrackTouch(e, obj, scope, inv); err != nil {
		return nil, err
	}
	applied, err := obj.ApplyForLocked(e, inv)
	if err != nil {
		return nil, err
	}
	return applied.Ret, nil
}

func TestCascadingAbort(t *testing.T) {
	en := New(trackingScheduler{}, Options{TrackDependencies: true, MaxRetries: NoRetry})
	en.AddObject("A", objects.Register(), core.State{"x": int64(0)})

	wrote := make(chan struct{})
	readDone := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(2)
	var err1, err2 error
	go func() {
		defer wg.Done()
		_, err1 = en.Run("W", func(ctx *Ctx) (core.Value, error) {
			if _, err := ctx.Do("A", "Write", "x", int64(5)); err != nil {
				return nil, err
			}
			close(wrote)
			<-readDone // ensure the reader saw the dirty value
			return nil, ctx.Abort("writer gives up")
		})
	}()
	go func() {
		defer wg.Done()
		<-wrote
		_, err2 = en.Run("R", func(ctx *Ctx) (core.Value, error) {
			v, err := ctx.Do("A", "Read", "x")
			if err != nil {
				return nil, err
			}
			if v != int64(5) {
				t.Errorf("reader should see the dirty 5, got %v", v)
			}
			close(readDone)
			return v, nil
		})
	}()
	wg.Wait()

	if err1 == nil {
		t.Fatalf("writer must abort")
	}
	if err2 == nil {
		t.Fatalf("reader must be cascade-aborted (MaxRetries=0)")
	}
	if !Retriable(err2) {
		t.Fatalf("cascade must be retriable, got %v", err2)
	}
	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history after cascade: %v", err)
	}
	if got := h.FinalStates["A"]["x"]; got != int64(0) {
		t.Fatalf("x = %v after aborts, want 0", got)
	}
}

func TestCascadeRetrySucceeds(t *testing.T) {
	// Same as above but the reader is allowed to retry: its second attempt
	// reads the clean value and commits.
	en := New(trackingScheduler{}, Options{TrackDependencies: true, MaxRetries: 10})
	en.AddObject("A", objects.Register(), core.State{"x": int64(0)})

	wrote := make(chan struct{})
	readDone := make(chan struct{})
	var readerSaw []core.Value
	var mu sync.Mutex

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _ = en.Run("W", func(ctx *Ctx) (core.Value, error) {
			if _, err := ctx.Do("A", "Write", "x", int64(5)); err != nil {
				return nil, err
			}
			select {
			case <-wrote:
			default:
				close(wrote)
			}
			select {
			case <-readDone:
			default:
			}
			<-readDone
			return nil, ctx.Abort("writer gives up")
		})
	}()
	go func() {
		defer wg.Done()
		<-wrote
		first := true
		ret, err := en.Run("R", func(ctx *Ctx) (core.Value, error) {
			v, err := ctx.Do("A", "Read", "x")
			if err != nil {
				return nil, err
			}
			mu.Lock()
			readerSaw = append(readerSaw, v)
			mu.Unlock()
			if first {
				first = false
				select {
				case <-readDone:
				default:
					close(readDone)
				}
			}
			return v, nil
		})
		if err != nil {
			t.Errorf("reader should eventually commit: %v", err)
		}
		if ret != int64(0) {
			t.Errorf("reader's committed value = %v, want clean 0", ret)
		}
	}()
	wg.Wait()

	h := en.History()
	if err := h.CheckLegal(); err != nil {
		t.Fatalf("history: %v", err)
	}
	if v := graph.Check(h); !v.Serialisable {
		t.Fatalf("verdict: %v", v)
	}
}
