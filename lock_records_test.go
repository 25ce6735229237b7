package objectbase_test

// The lock table keeps nothing of a finished transaction. Through the
// façade, after every way a transaction can end under the lock-based
// schedulers, the lock managers hold no lock and no transaction record;
// and a goroutine a method body leaves running cannot step once its
// transaction has ended.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"objectbase"
)

// lockConfigs are the façade configurations whose transactions run
// through a lock manager: both N2PL granularities, and N2PL per shard.
var lockConfigs = []struct {
	name    string
	sharded bool
	opts    []objectbase.Option
}{
	{"n2pl-op", false, []objectbase.Option{objectbase.WithLockTimeout(50 * time.Millisecond)}},
	{"n2pl-step", false, []objectbase.Option{objectbase.WithScheduler("n2pl-step"), objectbase.WithLockTimeout(50 * time.Millisecond)}},
	{"sharded", true, []objectbase.Option{objectbase.WithShards(2), objectbase.WithLockTimeout(50 * time.Millisecond)}},
}

// openLockDB opens a DB with two registers, a and b, each with a method
// w that writes its argument and a method fail that writes and aborts.
func openLockDB(t *testing.T, opts ...objectbase.Option) *objectbase.DB {
	t.Helper()
	db, err := objectbase.Open(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b"} {
		name := name
		if err := db.RegisterObject(name, objectbase.Register(), nil); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterMethod(name, "w", func(x *objectbase.Ctx) (objectbase.Value, error) {
			return x.Do(name, "Write", "x", x.Arg(0))
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.RegisterMethod(name, "fail", func(x *objectbase.Ctx) (objectbase.Value, error) {
			if _, err := x.Do(name, "Write", "x", int64(-1)); err != nil {
				return nil, err
			}
			return nil, x.Abort("child gives up")
		}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// lockQuiet fails unless the DB's lock managers hold nothing, by the
// managers' own count and by the registry gauge.
func lockQuiet(t *testing.T, db *objectbase.DB, after string) {
	t.Helper()
	held, txns := objectbase.LockTotals(db)
	gauge, ok := db.Metrics().Gauges["lock_tracked_txns"]
	if !ok {
		t.Fatal("an N2PL DB must export lock_tracked_txns")
	}
	if held != 0 || txns != 0 || gauge != 0 {
		t.Fatalf("after %s: %d locks held, %d transaction records (gauge %d); want none", after, held, txns, gauge)
	}
}

// TestLockTableLeavesNothing is the leak pin for the lock managers'
// per-transaction records: commits, user aborts, child aborts the parent
// survives, deadlock victims, lock timeouts and cancelled waits, and
// after each the managers hold neither a lock nor a record.
func TestLockTableLeavesNothing(t *testing.T) {
	for _, cfg := range lockConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			db := openLockDB(t, cfg.opts...)
			ctx := context.Background()
			both := func(x *objectbase.Ctx) (objectbase.Value, error) {
				if _, err := x.Call("a", "w", int64(1)); err != nil {
					return nil, err
				}
				return x.Call("b", "w", int64(1))
			}
			boom := errors.New("user abort")
			for round := 0; round < 3; round++ {
				if _, err := db.Exec(ctx, "commit", both); err != nil {
					t.Fatal(err)
				}
				lockQuiet(t, db, "a commit")
				if _, err := db.Exec(ctx, "idle", func(*objectbase.Ctx) (objectbase.Value, error) { return nil, nil }); err != nil {
					t.Fatal(err)
				}
				if _, err := db.Exec(ctx, "abort", func(x *objectbase.Ctx) (objectbase.Value, error) {
					if _, err := both(x); err != nil {
						return nil, err
					}
					return nil, boom
				}); !errors.Is(err, boom) {
					t.Fatalf("user abort: %v", err)
				}
				lockQuiet(t, db, "a user abort")
				if _, err := db.Exec(ctx, "child-abort", func(x *objectbase.Ctx) (objectbase.Value, error) {
					if _, err := x.Call("a", "fail"); err == nil {
						return nil, errors.New("fail must abort")
					}
					return both(x)
				}); err != nil {
					t.Fatal(err)
				}
				lockQuiet(t, db, "a child abort")
			}

			// Deadlock: each transaction holds one register and wants the
			// other. The victim (a detected cycle, or a timed-out wait when
			// the registers sit on different shards) retries and commits.
			var barrier, wg sync.WaitGroup
			barrier.Add(2)
			cross := func(first, second string) {
				defer wg.Done()
				var once sync.Once
				if _, err := db.Exec(ctx, "cross", func(x *objectbase.Ctx) (objectbase.Value, error) {
					if _, err := x.Call(first, "w", int64(2)); err != nil {
						return nil, err
					}
					once.Do(func() { barrier.Done(); barrier.Wait() })
					return x.Call(second, "w", int64(2))
				}); err != nil {
					t.Errorf("cross %s→%s: %v", first, second, err)
				}
			}
			before := db.Stats().Deadlocks
			wg.Add(2)
			go cross("a", "b")
			go cross("b", "a")
			wg.Wait()
			if !cfg.sharded && db.Stats().Deadlocks == before {
				// Sharded, the cross-shard protocol may serialise the two
				// by gating both shards instead.
				t.Fatal("the crossing transactions produced no deadlock victim")
			}
			lockQuiet(t, db, "deadlock victims")

			// A holder keeps a locked until a waiter has timed out once; a
			// second waiter gives up on its context while waiting.
			held, release := make(chan struct{}), make(chan struct{})
			holderDone := make(chan error, 1)
			go func() {
				var once sync.Once
				_, err := db.Exec(ctx, "holder", func(x *objectbase.Ctx) (objectbase.Value, error) {
					if _, err := x.Call("a", "w", int64(3)); err != nil {
						return nil, err
					}
					once.Do(func() { close(held) })
					<-release
					return nil, nil
				})
				holderDone <- err
			}()
			<-held
			short, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
			_, err := db.Exec(short, "impatient", func(x *objectbase.Ctx) (objectbase.Value, error) {
				return x.Call("a", "w", int64(4))
			})
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("cancelled wait: %v", err)
			}
			before = db.Stats().Deadlocks
			waiterDone := make(chan error, 1)
			go func() {
				_, err := db.Exec(ctx, "waiter", func(x *objectbase.Ctx) (objectbase.Value, error) {
					return x.Call("a", "w", int64(5))
				})
				waiterDone <- err
			}()
			for deadline := time.Now().Add(5 * time.Second); db.Stats().Deadlocks == before; {
				if time.Now().After(deadline) {
					t.Fatal("the waiter never timed out")
				}
				time.Sleep(time.Millisecond)
			}
			close(release)
			if err := <-holderDone; err != nil {
				t.Fatalf("holder: %v", err)
			}
			if err := <-waiterDone; err != nil {
				t.Fatalf("waiter: %v", err)
			}
			lockQuiet(t, db, "lock timeouts and a cancelled wait")
		})
	}
}

// TestLeakedGoroutineStepsRefused: a method body starts a goroutine that
// keeps calling Do and Call on the body's Ctx while, and after, the
// transaction commits. Calls that race the commit may land before it; the
// first refused one, and every call after Exec returned, must fail with
// ErrTxnFinished. Whatever the leaked calls locked or re-created in the
// lock managers is released: nothing is left once the goroutine stops.
// Run under -race.
func TestLeakedGoroutineStepsRefused(t *testing.T) {
	for _, cfg := range lockConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			db := openLockDB(t, cfg.opts...)
			ctx := context.Background()
			for round := 0; round < 20; round++ {
				returned := make(chan struct{})
				done := make(chan struct{})
				// The leaked calls stay on a, the body's only object: on a
				// sharded DB a call reaching a second shard would be a
				// discovery restart, not the case under test.
				step := func(x *objectbase.Ctx, i int) error {
					var err error
					if i%2 == 0 {
						_, err = x.Do("a", "Write", "x", int64(i))
					} else {
						_, err = x.Call("a", "w", int64(i))
					}
					return err
				}
				if _, err := db.Exec(ctx, "leaky", func(x *objectbase.Ctx) (objectbase.Value, error) {
					if _, err := x.Call("a", "w", int64(1)); err != nil {
						return nil, err
					}
					go func() {
						defer close(done)
						for i := 0; ; i++ {
							err := step(x, i)
							if err == nil {
								continue // landed before the commit
							}
							if !errors.Is(err, objectbase.ErrTxnFinished) {
								t.Errorf("leaked call %d: %v, want ErrTxnFinished", i, err)
								return
							}
							break
						}
						<-returned
						for i := 0; i < 10; i++ {
							if err := step(x, i); !errors.Is(err, objectbase.ErrTxnFinished) {
								t.Errorf("call after Exec returned: %v, want ErrTxnFinished", err)
								return
							}
						}
					}()
					return nil, nil
				}); err != nil {
					t.Fatal(err)
				}
				close(returned)
				<-done
				lockQuiet(t, db, "a leaked goroutine stopped")
			}
		})
	}
}

// TestLeakedGoroutineViewStepsRefused is the snapshot-view case: a Ctx a
// db.View body leaks cannot step or send once View returned, unsharded or
// sharded. (Views used to skip the finish mark, so a late Do read the
// snapshot and returned a nil error.)
func TestLeakedGoroutineViewStepsRefused(t *testing.T) {
	for _, cfg := range []struct {
		name string
		opts []objectbase.Option
	}{
		{"unsharded", []objectbase.Option{objectbase.WithReadOnly()}},
		{"sharded", []objectbase.Option{objectbase.WithReadOnly(), objectbase.WithShards(2)}},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			db := openLockDB(t, cfg.opts...)
			if err := db.RegisterMethod("a", "r", func(x *objectbase.Ctx) (objectbase.Value, error) {
				return x.Do("a", "Read", "x")
			}); err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			var leaked *objectbase.Ctx
			if _, err := db.View(ctx, "leaky", func(x *objectbase.Ctx) (objectbase.Value, error) {
				if _, err := x.Call("a", "r"); err != nil {
					return nil, err
				}
				leaked = x
				return nil, nil
			}); err != nil {
				t.Fatal(err)
			}
			if st := db.Stats(); st.ViewCommits != 1 || st.ViewFallbacks != 0 {
				t.Fatalf("view commits %d, fallbacks %d: want one snapshot commit", st.ViewCommits, st.ViewFallbacks)
			}
			if _, err := leaked.Do("a", "Read", "x"); !errors.Is(err, objectbase.ErrTxnFinished) {
				t.Errorf("Do after View returned: %v, want ErrTxnFinished", err)
			}
			if _, err := leaked.Call("a", "r"); !errors.Is(err, objectbase.ErrTxnFinished) {
				t.Errorf("Call after View returned: %v, want ErrTxnFinished", err)
			}
			if _, err := db.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
