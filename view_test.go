package objectbase_test

// Tests for the snapshot read-only fast path: DB.View over a DB opened
// with WithReadOnly. Coverage: the typed failure modes (ErrViewDisabled,
// ErrReadOnlyWrite), snapshot semantics (committed prefix, no torn reads
// across objects), the locked fallback when publication gaps pile up, and
// — the paper's bar — view transactions interleaved with writers across
// every registered scheduler passing the full-history oracle (DB.Verify).
// Everything goes through the public API.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"objectbase"
)

func bg() context.Context { return context.Background() }

// openViewCounter is openCounter plus WithReadOnly.
func openViewCounter(t *testing.T, opts ...objectbase.Option) *objectbase.DB {
	t.Helper()
	return openCounter(t, append([]objectbase.Option{objectbase.WithReadOnly()}, opts...)...)
}

func TestViewDisabledWithoutOption(t *testing.T) {
	db := openCounter(t)
	_, err := db.View(bg(), "peek", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "get")
	})
	if !errors.Is(err, objectbase.ErrViewDisabled) {
		t.Fatalf("View without WithReadOnly: err = %v, want ErrViewDisabled", err)
	}
}

func TestViewReadOnlyWrite(t *testing.T) {
	db := openViewCounter(t)
	_, err := db.View(bg(), "sneaky", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "bump")
	})
	if !errors.Is(err, objectbase.ErrReadOnlyWrite) {
		t.Fatalf("mutating View: err = %v, want ErrReadOnlyWrite", err)
	}
	if got := counterValue(t, db); got != 0 {
		t.Fatalf("counter mutated by rejected View: %d", got)
	}
	// The read-only enforcement also holds for direct local steps.
	_, err = db.View(bg(), "sneaky-do", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Do("c", "Add", int64(5))
	})
	if !errors.Is(err, objectbase.ErrReadOnlyWrite) {
		t.Fatalf("mutating Do in View: err = %v, want ErrReadOnlyWrite", err)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatalf("Verify after rejected views: %v", err)
	}
}

func TestViewSeesCommittedPrefix(t *testing.T) {
	db := openViewCounter(t)
	// Before any commit, a view reads the initial state.
	v, err := db.View(bg(), "peek0", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "get")
	})
	if err != nil || v.(int64) != 0 {
		t.Fatalf("initial view = %v, %v", v, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Exec(bg(), "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Call("c", "bump")
		}); err != nil {
			t.Fatal(err)
		}
	}
	v, err = db.View(bg(), "peek3", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "get")
	})
	if err != nil || v.(int64) != 3 {
		t.Fatalf("view after 3 bumps = %v, %v", v, err)
	}
	st := db.Stats()
	if st.ViewCommits != 2 {
		t.Fatalf("ViewCommits = %d, want 2", st.ViewCommits)
	}
	if st.Commits != 5 { // 3 writers + 2 views
		t.Fatalf("Commits = %d, want 5", st.Commits)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// openBankPair registers two accounts with transfer/audit methods; the
// invariant is a constant total of 2000.
func openBankPair(t *testing.T, opts ...objectbase.Option) *objectbase.DB {
	t.Helper()
	db, err := objectbase.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		if err := db.RegisterObject(name, objectbase.Account(), objectbase.State{"balance": int64(1000)}); err != nil {
			t.Fatal(err)
		}
		n := name
		if err := db.RegisterMethod(n, "balance", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Do(n, "Balance")
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterMethod(n, "deposit", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Do(n, "Deposit", ctx.Arg(0))
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterMethod(n, "withdraw", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Do(n, "Withdraw", ctx.Arg(0))
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestViewNoTornReads hammers a two-account invariant with concurrent
// transfers while views audit the total from a snapshot: any torn read —
// one account from before a transfer, the other from after — breaks the
// constant sum. The full-history oracle re-checks the run at the end.
func TestViewNoTornReads(t *testing.T) {
	for _, sched := range []string{"n2pl-op", "n2pl-step", "modular"} {
		t.Run(sched, func(t *testing.T) {
			db := openBankPair(t, objectbase.WithScheduler(sched), objectbase.WithReadOnly())
			const writers, transfers, audits = 4, 40, 80
			var wg sync.WaitGroup
			var torn atomic.Int64
			wg.Add(writers + 1)
			for w := 0; w < writers; w++ {
				go func(w int) {
					defer wg.Done()
					from, to := "a", "b"
					if w%2 == 1 {
						from, to = "b", "a"
					}
					for i := 0; i < transfers; i++ {
						if _, err := db.Exec(bg(), "transfer", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
							ok, err := ctx.Call(from, "withdraw", int64(1))
							if err != nil {
								return nil, err
							}
							if ok != true {
								return false, nil
							}
							return ctx.Call(to, "deposit", int64(1))
						}); err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(w)
			}
			go func() {
				defer wg.Done()
				for i := 0; i < audits; i++ {
					v, err := db.View(bg(), "audit", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
						a, err := ctx.Call("a", "balance")
						if err != nil {
							return nil, err
						}
						b, err := ctx.Call("b", "balance")
						if err != nil {
							return nil, err
						}
						return a.(int64) + b.(int64), nil
					})
					if err != nil {
						t.Errorf("audit: %v", err)
						return
					}
					if v.(int64) != 2000 {
						torn.Add(1)
					}
				}
			}()
			wg.Wait()
			if n := torn.Load(); n != 0 {
				t.Fatalf("%d torn snapshot reads (total != 2000)", n)
			}
			if _, err := db.Verify(); err != nil {
				t.Fatalf("Verify: %v", err)
			}
		})
	}
}

// TestViewAcrossSchedulers runs view audits interleaved with writers
// under every registered scheduler and verifies the full history with the
// oracle. The writers touch disjoint counters so the committed history is
// serialisable even under the empty scheduler — what the cell then proves
// is that the snapshot reads slot consistently into every scheduler's
// commit order.
func TestViewAcrossSchedulers(t *testing.T) {
	const counters = 4
	for _, sched := range objectbase.Schedulers() {
		t.Run(sched, func(t *testing.T) {
			db, err := objectbase.Open(objectbase.WithScheduler(sched), objectbase.WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < counters; i++ {
				c := fmt.Sprintf("c%d", i)
				if err := db.RegisterObject(c, objectbase.Counter(), nil); err != nil {
					t.Fatal(err)
				}
				if err := db.RegisterMethod(c, "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
					return ctx.Do(c, "Add", int64(1))
				}); err != nil {
					t.Fatal(err)
				}
				if err := db.RegisterMethod(c, "get", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
					return ctx.Do(c, "Get")
				}); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			wg.Add(counters + 1)
			for w := 0; w < counters; w++ {
				go func(w int) {
					defer wg.Done()
					c := fmt.Sprintf("c%d", w)
					for i := 0; i < 25; i++ {
						if _, err := db.Exec(bg(), "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
							return ctx.Call(c, "bump")
						}); err != nil {
							t.Errorf("bump: %v", err)
							return
						}
					}
				}(w)
			}
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					if _, err := db.View(bg(), "sum", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
						total := int64(0)
						for j := 0; j < counters; j++ {
							v, err := ctx.Call(fmt.Sprintf("c%d", j), "get")
							if err != nil {
								return nil, err
							}
							total += v.(int64)
						}
						return total, nil
					}); err != nil {
						t.Errorf("view: %v", err)
						return
					}
				}
			}()
			wg.Wait()
			if _, err := db.Verify(); err != nil {
				t.Fatalf("Verify under %s: %v", sched, err)
			}
			st := db.Stats()
			if st.ViewCommits == 0 {
				t.Fatal("no view commits recorded")
			}
		})
	}
}

// TestViewFallback engineers a publication gap at the head of the ring —
// a commuting writer commits while another still holds uncommitted
// effects — and checks that View falls back to the locked read-only path
// instead of failing or spinning.
func TestViewFallback(t *testing.T) {
	db := openViewCounter(t) // n2pl-op: Add/Add commute, Get conflicts Add
	hold := make(chan struct{})
	inTxn := make(chan struct{})
	writerDone := make(chan error, 1)
	go func() {
		_, err := db.Exec(bg(), "slow-bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			if _, err := ctx.Call("c", "bump"); err != nil {
				return nil, err
			}
			close(inTxn)
			<-hold // keep the Add uncommitted
			return nil, nil
		})
		writerDone <- err
	}()
	<-inTxn
	// A second, fast bump commits while the first is still pending: its
	// publication must be a gap (the state holds uncommitted effects).
	if _, err := db.Exec(bg(), "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "bump")
	}); err != nil {
		t.Fatal(err)
	}
	// The view cannot resolve a snapshot at the gap; it must fall back to
	// the locked path, which waits for the slow writer's Add lock.
	viewDone := make(chan struct{})
	var got objectbase.Value
	var viewErr error
	go func() {
		got, viewErr = db.View(bg(), "read", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Call("c", "get")
		})
		close(viewDone)
	}()
	// The gap cannot clear until the slow writer commits, and the slow
	// writer is held until the view has fallen back — wait for the
	// fallback to be recorded before releasing it.
	for deadline := time.Now().Add(5 * time.Second); db.Stats().ViewFallbacks == 0; {
		if time.Now().After(deadline) {
			t.Fatal("view never fell back to the locked path")
		}
		time.Sleep(time.Millisecond)
	}
	// Let the slow writer finish so the fallback's lock wait resolves.
	close(hold)
	if err := <-writerDone; err != nil {
		t.Fatal(err)
	}
	<-viewDone
	if viewErr != nil {
		t.Fatalf("view fallback: %v", viewErr)
	}
	if got.(int64) != 2 {
		t.Fatalf("fallback read = %v, want 2", got)
	}
	st := db.Stats()
	if st.ViewFallbacks == 0 {
		t.Fatal("expected a recorded view fallback")
	}
	if _, err := db.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestViewStatsSub checks the new counters flow through Stats.Sub.
func TestViewStatsSub(t *testing.T) {
	db := openViewCounter(t)
	base := db.Stats()
	if _, err := db.View(bg(), "peek", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "get")
	}); err != nil {
		t.Fatal(err)
	}
	d := db.Stats().Sub(base)
	if d.ViewCommits != 1 || d.Commits != 1 {
		t.Fatalf("delta = %+v, want ViewCommits=1 Commits=1", d)
	}
}

// TestViewPublicationCostFlat: publishing a version of the dictionary no
// longer rebuilds its tree, so what one committed write costs under
// WithReadOnly — a path copy and an O(1) clone — grows with the tree's
// height, not its size: allocations and bytes of a write to a 16 384-key
// dictionary stay within 2× of a 128-key one (the deep clone made it
// ~100×).
func TestViewPublicationCostFlat(t *testing.T) {
	cost := func(keys int64) (allocs, bytes float64) {
		db, err := objectbase.Open(objectbase.WithReadOnly(), objectbase.WithHistory(objectbase.HistoryOff))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterObject("d", objectbase.Dictionary(), nil); err != nil {
			t.Fatal(err)
		}
		write := func(k int64) {
			if _, err := db.Exec(bg(), "w", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				return ctx.Do("d", "Insert", k, k)
			}); err != nil {
				t.Fatal(err)
			}
		}
		for k := int64(0); k < keys; k++ {
			write(k)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, func() { write(keys / 2) })
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / (runs + 1)
	}
	smallAllocs, smallBytes := cost(128)
	bigAllocs, bigBytes := cost(16384)
	if bigAllocs >= 2*smallAllocs || bigBytes >= 2*smallBytes {
		t.Errorf("one committed write: %v allocs / %.0f B at 128 keys, %v allocs / %.0f B at 16384 — want < 2× apart",
			smallAllocs, smallBytes, bigAllocs, bigBytes)
	}
}
