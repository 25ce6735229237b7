package objectbase_test

// Cross-shard correctness at the façade: the -race hammer with
// cross-shard bank transfers, the oracle on the stitched history under
// every scheduler, the deterministic shard-ordering construction showing
// why no cross-engine deadlock can form, and the sharded behaviour of
// views, stats, and history plumbing.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"objectbase"
	"objectbase/internal/load"
)

// shardBank registers n accounts (each with its four methods) on db.
func shardBank(t *testing.T, db *objectbase.DB, n int, balance int64) {
	t.Helper()
	for i := 0; i < n; i++ {
		a := fmt.Sprintf("acct%d", i)
		if err := db.RegisterObject(a, objectbase.Account(), objectbase.State{"balance": balance}); err != nil {
			t.Fatal(err)
		}
		for m, op := range map[string]string{"deposit": "Deposit", "withdraw": "Withdraw", "balance": "Balance"} {
			var fn objectbase.MethodFunc
			if op == "Balance" {
				fn = func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Do(a, op) }
			} else {
				fn = func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Do(a, op, ctx.Arg(0)) }
			}
			if err := db.RegisterMethod(a, m, fn); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func transferBody(from, to string, amount int64) objectbase.MethodFunc {
	return func(c *objectbase.Ctx) (objectbase.Value, error) {
		ok, err := c.Call(from, "withdraw", amount)
		if err != nil {
			return nil, err
		}
		if ok != true {
			return false, nil
		}
		if _, err := c.Call(to, "deposit", amount); err != nil {
			return nil, err
		}
		return true, nil
	}
}

// TestShardedBankHammerAllSchedulers drives concurrent cross-shard
// traffic under every scheduler on one versioned DB: transfers with the
// object set declared up front (the serial fast path), transfers through
// optimistic shard discovery (the scheduled path), and View audits of the
// total. Every audit, live and at quiescence, must see the money
// conserved, and the oracle runs on the stitched history. Run with -race
// (CI does), this is also the data-race hammer for the cross-shard
// protocol and for mixed declared, undeclared and view traffic.
func TestShardedBankHammerAllSchedulers(t *testing.T) {
	const (
		accounts = 13 // coprime with the shard count, spreads unevenly
		shards   = 8
		clients  = 8
		txns     = 30
	)
	for _, sched := range objectbase.Schedulers() {
		t.Run(sched, func(t *testing.T) {
			db, err := objectbase.Open(objectbase.WithScheduler(sched), objectbase.WithShards(shards), objectbase.WithReadOnly())
			if err != nil {
				t.Fatal(err)
			}
			if db.Shards() != shards {
				t.Fatalf("Shards() = %d, want %d", db.Shards(), shards)
			}
			shardBank(t, db, accounts, 1000)
			ctx := context.Background()
			audit := func(c *objectbase.Ctx) (objectbase.Value, error) {
				total := int64(0)
				for i := 0; i < accounts; i++ {
					v, err := c.Call(fmt.Sprintf("acct%d", i), "balance")
					if err != nil {
						return nil, err
					}
					total += v.(int64)
				}
				return total, nil
			}
			var wg sync.WaitGroup
			errCh := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(c) * 7919))
					for i := 0; i < txns; i++ {
						from := fmt.Sprintf("acct%d", r.Intn(accounts))
						to := fmt.Sprintf("acct%d", r.Intn(accounts))
						if to == from {
							to = fmt.Sprintf("acct%d", (r.Intn(accounts-1)+1+c)%accounts)
						}
						var err error
						switch {
						case i == 10+c:
							// One audit per client, staggered so the
							// views overlap transfers still in flight.
							var v objectbase.Value
							v, err = db.View(ctx, "audit", audit)
							if err == nil && v.(int64) != accounts*1000 {
								err = fmt.Errorf("view audit saw total %d, want %d", v, accounts*1000)
							}
						case i%2 == 0:
							_, err = db.ExecTouching(ctx, "transfer", []string{from, to}, transferBody(from, to, int64(1+r.Intn(5))))
						default:
							_, err = db.Exec(ctx, "transfer", transferBody(from, to, int64(1+r.Intn(5))))
						}
						if err != nil {
							errCh <- fmt.Errorf("client %d txn %d: %w", c, i, err)
							return
						}
					}
				}(c)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			total, err := db.Exec(ctx, "audit", audit)
			if err != nil {
				t.Fatal(err)
			}
			if total.(int64) != accounts*1000 {
				t.Fatalf("money not conserved: total = %d, want %d", total, accounts*1000)
			}
			// The oracle certifies the stitched history; "none" is the
			// anomaly control and may legitimately fail serialisability,
			// but never legality.
			if _, err := db.Verify(); err != nil {
				if sched == "none" && !errors.Is(err, objectbase.ErrNotLegal) {
					t.Logf("none control: %v", err)
				} else {
					t.Fatalf("stitched history rejected: %v", err)
				}
			}
			st := db.Stats()
			want := int64(clients*txns + 1)
			if st.Commits != want {
				t.Fatalf("Commits = %d, want %d", st.Commits, want)
			}
			if n := st.ViewCommits + st.ViewFallbacks; n != clients {
				t.Fatalf("%d views ran (ViewCommits %d + ViewFallbacks %d), want %d", n, st.ViewCommits, st.ViewFallbacks, clients)
			}
		})
	}
}

// TestSerialOracleAllSchedulers runs oracle-verified two-shard cells of
// the bank and hotspot-counter load scenarios under every scheduler. Both
// declare their object sets, so every transaction takes the serial fast
// path, and the stitched history must certify exactly like a scheduled
// run.
func TestSerialOracleAllSchedulers(t *testing.T) {
	for _, scenario := range []string{"bank", "hotspot-counter"} {
		sc, ok := load.Get(scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", scenario)
		}
		for _, sched := range objectbase.Schedulers() {
			t.Run(scenario+"/"+sched, func(t *testing.T) {
				res, err := load.Run(context.Background(), load.Options{
					Scenario:  sc,
					Scheduler: sched,
					Verify:    true,
					Knobs:     load.Knobs{Clients: 4, Txns: 40, Shards: 2, Seed: 7},
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.Errors != 0 {
					t.Fatalf("%d transaction errors", res.Errors)
				}
				if res.Legal == nil || !*res.Legal {
					t.Fatalf("history not legal: %s", res.Verdict)
				}
				// "none" is the anomaly control: it may legitimately
				// produce non-serialisable histories, never illegal ones.
				if res.Verified == nil || !*res.Verified {
					if sched == "none" {
						t.Logf("none control: %s", res.Verdict)
					} else {
						t.Fatalf("serial cell not serialisable: %s", res.Verdict)
					}
				}
			})
		}
	}
}

// twoShardObjects probes the deterministic directory for two account
// names living in different shards of a db with the given count.
func twoShardObjects(t *testing.T, db *objectbase.DB) (string, string) {
	t.Helper()
	// The directory is a pure, documented hash (FNV-1a mod N), so the
	// test can predict placement without internal access: pick the first
	// two registered account names that land in different shards.
	names := []string{}
	for i := 0; len(names) < 2 && i < 256; i++ {
		n := fmt.Sprintf("acct%d", i)
		if len(names) == 0 || fnvShard(names[0], db.Shards()) != fnvShard(n, db.Shards()) {
			names = append(names, n)
		}
	}
	if len(names) < 2 {
		t.Fatal("could not find two objects in distinct shards")
	}
	return names[0], names[1]
}

// fnvShard mirrors internal/shard.Directory: FNV-1a 64 mod n.
func fnvShard(name string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int(h % uint64(n))
}

// TestShardOrderingNoCrossEngineDeadlock builds the canonical
// cross-engine deadlock — T1 locks a in shard A then wants b in shard B,
// while T2 holds b and wants a, with a rendezvous guaranteeing both hold
// their first lock before either requests its second. Per-shard deadlock
// detectors cannot see this cycle (each engine observes one wait, no
// cycle). The shard-ordered gate protocol resolves it without any
// detector or timeout: the transactions' gate sets overlap, so one of
// them fails its non-blocking gate acquisition, restarts with the full
// set pre-gated in directory order, and both commit long before the 10s
// lock timeout could fire.
func TestShardOrderingNoCrossEngineDeadlock(t *testing.T) {
	db, err := objectbase.Open(objectbase.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	shardBank(t, db, 64, 1000)
	a, b := twoShardObjects(t, db)

	ctx := context.Background()
	var once1, once2 sync.Once
	held1 := make(chan struct{}) // T1 holds its lock on a
	held2 := make(chan struct{}) // T2 holds its lock on b
	txn := func(first, second string, mine *sync.Once, myHeld, otherHeld chan struct{}) objectbase.MethodFunc {
		return func(c *objectbase.Ctx) (objectbase.Value, error) {
			if _, err := c.Call(first, "deposit", int64(1)); err != nil {
				return nil, err
			}
			// Rendezvous exactly once: a restarted attempt must not block
			// again (the other side may already be done).
			mine.Do(func() { close(myHeld) })
			select {
			case <-otherHeld:
			case <-time.After(5 * time.Second):
				return nil, fmt.Errorf("rendezvous timed out")
			}
			if _, err := c.Call(second, "deposit", int64(1)); err != nil {
				return nil, err
			}
			return nil, nil
		}
	}

	done := make(chan error, 2)
	start := time.Now()
	go func() {
		_, err := db.Exec(ctx, "t1", txn(a, b, &once1, held1, held2))
		done <- err
	}()
	go func() {
		_, err := db.Exec(ctx, "t2", txn(b, a, &once2, held2, held1))
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("transaction failed: %v", err)
			}
		case <-time.After(8 * time.Second):
			t.Fatal("cross-engine deadlock: transactions did not finish")
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("took %v — resolved by timeout, not by the gate protocol", elapsed)
	}
	st := db.Stats()
	if st.Deadlocks != 0 {
		t.Fatalf("deadlock detector fired %d times; the gate protocol should have prevented the cycle", st.Deadlocks)
	}
	if st.Commits != 2 {
		t.Fatalf("Commits = %d, want 2", st.Commits)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestShardedViewPinsAndFallsBack: a sharded DB with WithReadOnly serves
// single-shard views from the pinned shard's snapshot, and a view
// spanning shards falls back to the locked read-only path (counted in
// ViewFallbacks) rather than failing or tearing.
func TestShardedViewPinsAndFallsBack(t *testing.T) {
	db, err := objectbase.Open(objectbase.WithShards(4), objectbase.WithReadOnly())
	if err != nil {
		t.Fatal(err)
	}
	shardBank(t, db, 64, 500)
	a, b := twoShardObjects(t, db)
	ctx := context.Background()

	if _, err := db.Exec(ctx, "seed", transferBody(a, b, 25)); err != nil {
		t.Fatal(err)
	}
	v, err := db.View(ctx, "one-shard-view", func(c *objectbase.Ctx) (objectbase.Value, error) {
		return c.Call(a, "balance")
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 475 {
		t.Fatalf("pinned view read %v, want 475", v)
	}
	st := db.Stats()
	if st.ViewCommits != 1 || st.ViewFallbacks != 0 {
		t.Fatalf("ViewCommits=%d ViewFallbacks=%d, want 1/0", st.ViewCommits, st.ViewFallbacks)
	}

	// A view touching both shards cannot use one shard's watermark: it
	// must fall back, and still observe a consistent total.
	v, err = db.View(ctx, "two-shard-view", func(c *objectbase.Ctx) (objectbase.Value, error) {
		va, err := c.Call(a, "balance")
		if err != nil {
			return nil, err
		}
		vb, err := c.Call(b, "balance")
		if err != nil {
			return nil, err
		}
		return va.(int64) + vb.(int64), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int64) != 1000 {
		t.Fatalf("cross-shard view total %v, want 1000", v)
	}
	st = db.Stats()
	if st.ViewFallbacks != 1 {
		t.Fatalf("ViewFallbacks = %d, want 1", st.ViewFallbacks)
	}
	// A mutating step under View must still be rejected on the fallback.
	if _, err := db.View(ctx, "bad-view", transferBody(a, b, 1)); !errors.Is(err, objectbase.ErrReadOnlyWrite) {
		t.Fatalf("mutating view error = %v, want ErrReadOnlyWrite", err)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestShardedHistoryOff: the stats-only mode works sharded, and history
// accessors report ErrHistoryDisabled from the stitched path too.
func TestShardedHistoryOff(t *testing.T) {
	db, err := objectbase.Open(objectbase.WithShards(3), objectbase.WithHistory(objectbase.HistoryOff))
	if err != nil {
		t.Fatal(err)
	}
	shardBank(t, db, 6, 100)
	if _, err := db.Exec(context.Background(), "t", transferBody("acct0", "acct4", 10)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.History(); !errors.Is(err, objectbase.ErrHistoryDisabled) {
		t.Fatalf("History error = %v, want ErrHistoryDisabled", err)
	}
	if _, err := db.Verify(); !errors.Is(err, objectbase.ErrHistoryDisabled) {
		t.Fatalf("Verify error = %v, want ErrHistoryDisabled", err)
	}
	if st := db.Stats(); st.Commits != 1 {
		t.Fatalf("Commits = %d, want 1", st.Commits)
	}
}

// TestShardedWrongHintStillCorrect: a touch declaration that misses the
// objects actually used degrades to discovery — same result, never a
// wrong one.
func TestShardedWrongHintStillCorrect(t *testing.T) {
	db, err := objectbase.Open(objectbase.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	shardBank(t, db, 16, 100)
	a, b := twoShardObjects(t, db)
	// Hint names objects the body never touches (and misses the real pair).
	if _, err := db.ExecTouching(context.Background(), "t", []string{"acct9", "nonexistent"}, transferBody(a, b, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}

// TestWithShardsValidation: bad shard counts are rejected at Open.
func TestWithShardsValidation(t *testing.T) {
	if _, err := objectbase.Open(objectbase.WithShards(0)); err == nil {
		t.Fatal("WithShards(0) accepted")
	}
	db, err := objectbase.Open(objectbase.WithShards(1))
	if err != nil {
		t.Fatal(err)
	}
	if db.Shards() != 1 {
		t.Fatalf("Shards() = %d, want 1", db.Shards())
	}
	// Duplicate registration is still caught across the directory.
	db8, err := objectbase.Open(objectbase.WithShards(8))
	if err != nil {
		t.Fatal(err)
	}
	if err := db8.RegisterObject("x", objectbase.Counter(), nil); err != nil {
		t.Fatal(err)
	}
	if err := db8.RegisterObject("x", objectbase.Counter(), nil); err == nil {
		t.Fatal("duplicate RegisterObject accepted on sharded DB")
	}
}

// TestShardedTxnDeclarative: DB.Txn derives its touch set from the call
// list, so declarative cross-shard transactions take the pre-gated path.
func TestShardedTxnDeclarative(t *testing.T) {
	db, err := objectbase.Open(objectbase.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	shardBank(t, db, 16, 100)
	a, b := twoShardObjects(t, db)
	res, err := db.Txn(context.Background(), "pair",
		objectbase.Call{Object: a, Method: "withdraw", Args: []objectbase.Value{int64(7)}},
		objectbase.Call{Object: b, Method: "deposit", Args: []objectbase.Value{int64(7)}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0] != true {
		t.Fatalf("Txn results = %v", res)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}
