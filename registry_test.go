package objectbase_test

// Tests for name resolution: the error a message to an unknown object or
// method gets on every execution path, objects and methods registered
// while transactions run, and what registration costs.

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"objectbase"
)

const bankAccounts = 16

// bankNames are formatted once: fmt's printer pool would make the
// allocation pin below noisy under the race detector, which drops pooled
// items at random.
var bankNames = func() (names [bankAccounts]string) {
	for i := range names {
		names[i] = fmt.Sprintf("acct%d", i)
	}
	return names
}()

// registerBank registers bankAccounts accounts with three methods each,
// the way a bank workload sets up.
func registerBank(db *objectbase.DB) error {
	for _, a := range bankNames {
		if err := db.RegisterObject(a, objectbase.Account(), objectbase.State{"balance": int64(100)}); err != nil {
			return err
		}
		for _, m := range [...]struct {
			name string
			fn   objectbase.MethodFunc
		}{
			{"deposit", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Do(a, "Deposit", ctx.Arg(0)) }},
			{"withdraw", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Do(a, "Withdraw", ctx.Arg(0)) }},
			{"balance", func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Do(a, "Balance") }},
		} {
			if err := db.RegisterMethod(a, m.name, m.fn); err != nil {
				return err
			}
		}
	}
	return nil
}

// TestUnknownNameErrors pins the error of a message to an unknown object
// and of one to an unknown method of a known object, on the scheduled,
// snapshot and serial (declared-set, sharded) paths: each names its own
// cause.
func TestUnknownNameErrors(t *testing.T) {
	type runner func(db *objectbase.DB, fn objectbase.MethodFunc) error
	paths := []struct {
		name string
		opts []objectbase.Option
		run  runner
	}{
		{"scheduled", nil, func(db *objectbase.DB, fn objectbase.MethodFunc) error {
			_, err := db.Exec(context.Background(), "t", fn)
			return err
		}},
		{"view", []objectbase.Option{objectbase.WithReadOnly()}, func(db *objectbase.DB, fn objectbase.MethodFunc) error {
			_, err := db.View(context.Background(), "t", fn)
			return err
		}},
		{"serial", []objectbase.Option{objectbase.WithShards(8)}, func(db *objectbase.DB, fn objectbase.MethodFunc) error {
			_, err := db.ExecTouching(context.Background(), "t", []string{"acct0"}, fn)
			return err
		}},
	}
	for _, p := range paths {
		t.Run(p.name, func(t *testing.T) {
			db, err := objectbase.Open(p.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := registerBank(db); err != nil {
				t.Fatal(err)
			}
			var noObject, noMethod error
			if err := p.run(db, func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				_, noObject = ctx.Call("nosuch", "m")
				_, noMethod = ctx.Call("acct0", "nosuch")
				return ctx.Call("acct0", "balance")
			}); err != nil {
				t.Fatalf("transaction: %v", err)
			}
			if noObject == nil || !strings.Contains(noObject.Error(), `unknown object "nosuch"`) || strings.Contains(noObject.Error(), "method") {
				t.Errorf("Call to an unknown object: err = %v, want unknown object \"nosuch\"", noObject)
			}
			if noMethod == nil || !strings.Contains(noMethod.Error(), `object "acct0" has no method "nosuch"`) {
				t.Errorf("Call to an unknown method: err = %v, want object \"acct0\" has no method \"nosuch\"", noMethod)
			}
		})
	}
}

// TestRegisterDuringTraffic: objects and methods registered while View
// and Exec transactions run are callable as soon as registration returns,
// by the registering goroutine and by the clients already running. Run
// with -race.
func TestRegisterDuringTraffic(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := objectbase.Open(objectbase.WithReadOnly(), objectbase.WithShards(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			const objects = 24
			var registered atomic.Int32 // counters c0 .. c(registered-1) are callable
			register := func(i int) {
				name := fmt.Sprintf("c%d", i)
				if err := db.RegisterObject(name, objectbase.Counter(), nil); err != nil {
					t.Fatal(err)
				}
				if err := db.RegisterMethod(name, "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
					return ctx.Do(name, "Add", int64(1))
				}); err != nil {
					t.Fatal(err)
				}
				if err := db.RegisterMethod(name, "get", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
					return ctx.Do(name, "Get")
				}); err != nil {
					t.Fatal(err)
				}
			}
			call := func(view bool, name, method string) error {
				fn := func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Call(name, method) }
				var err error
				if view {
					_, err = db.View(context.Background(), "v", fn)
				} else {
					_, err = db.Exec(context.Background(), "x", fn)
				}
				return err
			}
			register(0)
			registered.Store(1)
			var stop atomic.Bool
			var wg sync.WaitGroup
			for c := 0; c < 3; c++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					r := rand.New(rand.NewSource(seed))
					// Bounded, so the oracle below stays quick.
					for n := 0; n < 300 && !stop.Load(); n++ {
						name := fmt.Sprintf("c%d", r.Intn(int(registered.Load())))
						view := r.Intn(2) == 0
						method := "get"
						if !view {
							method = "bump"
						}
						if err := call(view, name, method); err != nil {
							t.Errorf("client: %s.%s: %v", name, method, err)
							return
						}
					}
				}(int64(c))
			}
			for i := 1; i < objects; i++ {
				register(i)
				registered.Store(int32(i + 1))
				name := fmt.Sprintf("c%d", i)
				if err := call(false, name, "bump"); err != nil {
					t.Errorf("Exec right after registering %s: %v", name, err)
				}
				if err := call(true, name, "get"); err != nil {
					t.Errorf("View right after registering %s: %v", name, err)
				}
				// A method added to an object that traffic is already using.
				prev := fmt.Sprintf("c%d", i-1)
				peek := fmt.Sprintf("peek%d", i)
				if err := db.RegisterMethod(prev, peek, func(ctx *objectbase.Ctx) (objectbase.Value, error) {
					return ctx.Do(prev, "Get")
				}); err != nil {
					t.Fatal(err)
				}
				if err := call(true, prev, peek); err != nil {
					t.Errorf("View of %s.%s right after registering it: %v", prev, peek, err)
				}
			}
			stop.Store(true)
			wg.Wait()
			if _, err := db.Verify(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// registrationAllocsMax is what Open plus the bank registration allocate
// when registering only inserts into the registry's maps: the snapshot
// the transaction paths read must add nothing to it.
const registrationAllocsMax = 346

// TestRegistrationAllocs pins what Open and a 16-account × 3-method
// registration allocate. A registry that copied itself on every
// registration, or rebuilt its snapshot on every registration-time
// lookup, would show here (and in the benchmark's setup_s).
func TestRegistrationAllocs(t *testing.T) {
	// The pin is of the default, untraced Open: the flight recorder's
	// rings (which one CI cell forces on) are allocated on top.
	t.Setenv("OBJECTBASE_TRACE", "")
	var regErr error
	allocs := testing.AllocsPerRun(20, func() {
		db, err := objectbase.Open()
		if err != nil {
			regErr = err
			return
		}
		if err := registerBank(db); err != nil {
			regErr = err
		}
		db.Close()
	})
	if regErr != nil {
		t.Fatal(regErr)
	}
	if allocs > registrationAllocsMax {
		t.Errorf("Open + %d accounts × 3 methods allocates %v, want <= %d", bankAccounts, allocs, registrationAllocsMax)
	}
}
