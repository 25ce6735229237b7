package objectbase_test

// One benchmark per experiment of the E1-E11 catalogue in internal/bench
// (the paper has no tables or figures — these regenerate the executable
// experiments standing in for them; 'obsim list' enumerates them). Each
// benchmark measures the end-to-end cost of
// the experiment's workload under its scheduler(s) and reports
// domain-specific metrics alongside ns/op.
//
// The benchmarks consume the system through the public objectbase façade
// (Open + named schedulers); internal packages appear only where a bench
// pokes at an internal knob (E11's GC period) or micro-benchmarks an
// internal component directly.
//
// Run: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"objectbase"
	"objectbase/internal/bench"
	"objectbase/internal/btree"
	"objectbase/internal/cc"
	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/graph"
	"objectbase/internal/load"
	"objectbase/internal/lock"
	"objectbase/internal/objects"
	"objectbase/internal/workload"
)

// driveOnce opens a fresh DB under the named scheduler and drives the
// workload spec against it.
func driveOnce(b *testing.B, sched string, spec workload.Spec, clients, txns int, seed int64) *objectbase.DB {
	b.Helper()
	db, err := objectbase.Open(objectbase.WithScheduler(sched))
	if err != nil {
		b.Fatal(err)
	}
	en := db.Engine()
	spec.Setup(en)
	if err := workload.Drive(en, spec, clients, txns, seed); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkE1_Theorem1Replay measures conflict-consistent permutation
// replay over random histories (Theorem 1 determinism).
func BenchmarkE1_Theorem1Replay(b *testing.B) {
	h, err := workload.RandomHistory(workload.HistoryConfig{
		Seed: 1, Objects: 2, VarsPerObject: 3, Txns: 6, StepsPerTxn: 8, WritePct: 50, NestPct: 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, obj := range h.ObjectNames() {
			perm := workload.ConflictConsistentPermutation(r, h, obj)
			if _, err := core.ReplayObject(h.Schemas[obj], h.InitialStates[obj], perm); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE2_SGChecker measures the full oracle (SG build + acyclicity +
// serial replay) on random histories.
func BenchmarkE2_SGChecker(b *testing.B) {
	var hs []*core.History
	for seed := int64(0); seed < 8; seed++ {
		h, err := workload.RandomHistory(workload.HistoryConfig{
			Seed: seed, Objects: 3, VarsPerObject: 4, Txns: 5, StepsPerTxn: 5, WritePct: 35, NestPct: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		hs = append(hs, h)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Check(hs[i%len(hs)])
	}
}

// benchSerialisability drives the bank workload under a scheduler and
// verifies the result once (E3/E4).
func benchSerialisability(b *testing.B, sched string) {
	const clients, txns = 4, 20
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db := driveOnce(b, sched, workload.Bank(3, 100), clients, txns, int64(i))
		b.StopTimer()
		if i == 0 { // oracle once per benchmark: the guarantee, not the cost
			v, err := db.Check()
			if err != nil {
				b.Fatal(err)
			}
			if !v.Serialisable {
				b.Fatalf("not serialisable: %v", v)
			}
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(clients*txns), "txns/op")
}

func BenchmarkE3_N2PLSerialisable(b *testing.B) {
	benchSerialisability(b, "n2pl-op")
}

func BenchmarkE4_NTOSerialisable(b *testing.B) {
	benchSerialisability(b, "nto-op")
}

// BenchmarkE5_QueueGranularity compares lock granularities on the
// producer/consumer queue (Section 5.1 example).
func BenchmarkE5_QueueGranularity(b *testing.B) {
	for _, sched := range []string{"n2pl-op", "n2pl-step"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			waits := int64(0)
			const clients, txns = 2, 100
			for i := 0; i < b.N; i++ {
				db := driveOnce(b, sched, workload.ProducerConsumer(256, 20000), clients, txns, int64(i))
				waits += db.Stats().LockWaits
			}
			b.ReportMetric(float64(waits)/float64(b.N), "lockwaits/op")
			b.ReportMetric(float64(clients*txns), "txns/op")
		})
	}
}

// BenchmarkE6_VsGemstone compares method-level N2PL against the
// object-as-data-item baseline on the hot-object workload (Section 1).
func BenchmarkE6_VsGemstone(b *testing.B) {
	for _, sched := range []string{"n2pl-op", "gemstone"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			const clients, txns = 8, 25
			for i := 0; i < b.N; i++ {
				driveOnce(b, sched, workload.HotObject(64, 2_000_000), clients, txns, int64(i))
			}
			b.ReportMetric(float64(clients*txns), "txns/op")
		})
	}
}

// BenchmarkE7_NTOAborts measures retry rates under contention for the two
// NTO variants.
func BenchmarkE7_NTOAborts(b *testing.B) {
	for _, sched := range []string{"nto-op", "nto-step"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			retries, commits := int64(0), int64(0)
			for i := 0; i < b.N; i++ {
				db := driveOnce(b, sched, workload.AccountMix(16, 70, 300_000), 4, 25, int64(i))
				st := db.Stats()
				retries += st.Retries
				commits += st.Commits
			}
			b.ReportMetric(float64(retries)/float64(commits), "retries/commit")
		})
	}
}

// BenchmarkE8_ModularBTree compares the modular certifier (per-key B-tree
// dictionary) against the whole-object baseline.
func BenchmarkE8_ModularBTree(b *testing.B) {
	for _, sched := range []string{"modular", "gemstone"} {
		sched := sched
		b.Run(sched, func(b *testing.B) {
			const clients, txns = 4, 50
			for i := 0; i < b.N; i++ {
				driveOnce(b, sched, workload.Dictionary(1024, 512, 60, 500_000), clients, txns, int64(i))
			}
			b.ReportMetric(float64(clients*txns), "txns/op")
		})
	}
}

// BenchmarkE9_AbortRetry measures the failure-injection workload: child
// aborts with fallback paths.
func BenchmarkE9_AbortRetry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		db := driveOnce(b, "n2pl-op", workload.FailureInjection(25), 4, 50, int64(i))
		if i == 0 {
			h, err := db.History()
			if err != nil {
				b.Fatal(err)
			}
			if err := h.CheckLegal(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkE10_Theorem5Certifier measures the adversarial cross rounds
// under the certifier.
func BenchmarkE10_Theorem5Certifier(b *testing.B) {
	tbl, err := bench.E10(bench.Config{Quick: true, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	_ = tbl
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db, err := objectbase.Open(objectbase.WithScheduler("modular"))
		if err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterObject("A", objectbase.Register(), objectbase.State{"x": int64(0)}); err != nil {
			b.Fatal(err)
		}
		if err := db.RegisterObject("B", objectbase.Register(), objectbase.State{"y": int64(0)}); err != nil {
			b.Fatal(err)
		}
		if err := bench.CrossRound(db.Engine(), int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11_TimestampGC measures exact NTO with and without low-water
// pruning and reports the table footprint. The GC period is an internal
// knob with no façade surface, so this bench builds the scheduler
// directly.
func BenchmarkE11_TimestampGC(b *testing.B) {
	for _, gc := range []int64{1, 1 << 60} {
		gc := gc
		name := "gc-every-1"
		if gc == 1<<60 {
			name = "gc-never"
		}
		b.Run(name, func(b *testing.B) {
			entries := int64(0)
			for i := 0; i < b.N; i++ {
				sched := cc.NewNTO(true)
				sched.GCEvery = gc
				en := cc.NewEngine(sched, engine.Options{})
				spec := workload.Skewed(16, 30, 0)
				spec.Setup(en)
				if err := workload.Drive(en, spec, 4, 50, int64(i)); err != nil {
					b.Fatal(err)
				}
				entries += int64(sched.TableSize())
			}
			b.ReportMetric(float64(entries)/float64(b.N), "entries/op")
		})
	}
}

// BenchmarkLoadScenarios drives every registered load scenario through
// the internal/load harness under the default scheduler and reports the
// harness's own throughput figure — the Go-bench view of what `obsim
// load` measures.
func BenchmarkLoadScenarios(b *testing.B) {
	for _, name := range load.Names() {
		sc, _ := load.Get(name)
		b.Run(name, func(b *testing.B) {
			ops, throughput := int64(0), 0.0
			for i := 0; i < b.N; i++ {
				res, err := load.Run(context.Background(), load.Options{
					Scenario: sc,
					Knobs:    load.Knobs{Clients: 4, Txns: 25, Seed: int64(i)},
				})
				if err != nil {
					b.Fatal(err)
				}
				ops += res.Ops
				throughput += res.Throughput
			}
			b.ReportMetric(float64(ops)/float64(b.N), "txns/op")
			b.ReportMetric(throughput/float64(b.N), "txn/s")
		})
	}
}

// BenchmarkViewFastPath measures the snapshot read-only fast path against
// the locked read path on the two read-heavy scenarios the MVCC layer
// targets: identical knobs and op streams, with the reads routed through
// DB.View (UseView) versus DB.Exec. History is off in both cells — the
// measurement configuration.
func BenchmarkViewFastPath(b *testing.B) {
	for _, name := range []string{"scan-read-mostly", "dict-read-heavy"} {
		sc, _ := load.Get(name)
		for _, useView := range []bool{false, true} {
			mode := "locked"
			if useView {
				mode = "view"
			}
			b.Run(name+"/"+mode, func(b *testing.B) {
				throughput := 0.0
				for i := 0; i < b.N; i++ {
					res, err := load.Run(context.Background(), load.Options{
						Scenario: sc,
						Knobs:    load.Knobs{Clients: 8, Txns: 50, Seed: int64(i), UseView: useView},
						History:  objectbase.HistoryOff,
					})
					if err != nil {
						b.Fatal(err)
					}
					throughput += res.Throughput
				}
				b.ReportMetric(throughput/float64(b.N), "txn/s")
			})
		}
	}
}

// BenchmarkShardScaling measures the sharded object space against the
// single-engine baseline on the two scenarios the partition targets
// (hotspot-counter: single-shard ops; bank: cross-shard pairs). The
// scenarios declare their object sets, so the sharded cells run the
// serial commit fast path — exclusive shard gates instead of scheduler
// and lock-manager work — which is what makes 8 shards faster than one
// engine even on a single core; with cores to back them the per-shard
// engines additionally share no synchronisation state and scale.
func BenchmarkShardScaling(b *testing.B) {
	for _, name := range []string{"hotspot-counter", "bank"} {
		sc, _ := load.Get(name)
		for _, shards := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(b *testing.B) {
				throughput := 0.0
				for i := 0; i < b.N; i++ {
					res, err := load.Run(context.Background(), load.Options{
						Scenario: sc,
						Knobs:    load.Knobs{Clients: 16, Txns: 50, Seed: int64(i), Shards: shards},
						History:  objectbase.HistoryOff,
					})
					if err != nil {
						b.Fatal(err)
					}
					throughput += res.Throughput
				}
				b.ReportMetric(throughput/float64(b.N), "txn/s")
			})
		}
	}
}

// BenchmarkRecorderOverhead measures the history observer's cost on the
// transaction hot path: the same counter-bump transaction stream under
// full recording versus the stats-only observer (WithHistory(off)), with
// all clients sharing one commuting hot object so the observer — not
// lock contention — dominates.
func BenchmarkRecorderOverhead(b *testing.B) {
	for _, mode := range []objectbase.HistoryMode{objectbase.HistoryFull, objectbase.HistoryOff} {
		mode := mode
		b.Run(string(mode), func(b *testing.B) {
			db, err := objectbase.Open(objectbase.WithHistory(mode))
			if err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterObject("c", objectbase.Counter(), nil); err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterMethod("c", "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				return ctx.Do("c", "Add", int64(1))
			}); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := db.Exec(ctx, "T", func(c *objectbase.Ctx) (objectbase.Value, error) {
						return c.Call("c", "bump")
					}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkTraceOverhead measures the flight recorder's cost on the
// transaction hot path: the same commuting counter-bump stream with
// tracing disabled (the nil-tracer pointer checks every instrumentation
// site pays) versus enabled (span records, ring stores, histogram
// updates). The disabled cell is the one the ≤2% CI compare gate guards:
// shipping the instrumentation must not cost untraced users.
func BenchmarkTraceOverhead(b *testing.B) {
	for _, traced := range []bool{false, true} {
		traced := traced
		name := "disabled"
		opts := []objectbase.Option{objectbase.WithHistory(objectbase.HistoryOff)}
		if traced {
			name = "enabled"
			opts = append(opts, objectbase.WithTracing())
		}
		b.Run(name, func(b *testing.B) {
			db, err := objectbase.Open(opts...)
			if err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterObject("c", objectbase.Counter(), nil); err != nil {
				b.Fatal(err)
			}
			if err := db.RegisterMethod("c", "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
				return ctx.Do("c", "Add", int64(1))
			}); err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if _, err := db.Exec(ctx, "T", func(c *objectbase.Ctx) (objectbase.Value, error) {
						return c.Call("c", "bump")
					}); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkLockStriping measures the striped lock table under parallel
// grant/commit traffic: with one hot object every request lands on one
// stripe (the pre-striping world in miniature), with 16 the requests
// spread across stripes. Commuting Adds keep the workload contention on
// the table itself, never on lock semantics.
func BenchmarkLockStriping(b *testing.B) {
	for _, objs := range []int{1, 16} {
		objs := objs
		b.Run(fmt.Sprintf("hot-objects-%d", objs), func(b *testing.B) {
			m := lock.New(lock.Options{})
			rel := objects.Counter().Conflicts
			add := core.OpInvocation{Op: "Add", Args: []core.Value{int64(1)}}
			names := make([]string, objs)
			for i := range names {
				names[i] = fmt.Sprintf("C%d", i)
			}
			var seq atomic.Int32
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := 0
				for pb.Next() {
					e := core.RootID(seq.Add(1))
					if err := m.Acquire(e, names[i%objs], rel, add); err != nil {
						b.Error(err)
						return
					}
					m.CommitTransfer(e)
					i++
				}
			})
		})
	}
}

// BenchmarkLockManager micro-benchmarks the lock manager's grant path.
func BenchmarkLockManager(b *testing.B) {
	m := lock.New(lock.Options{})
	rel := objects.Register().Conflicts
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := core.RootID(int32(i))
		inv := core.OpInvocation{Op: "Write", Args: []core.Value{fmt.Sprintf("v%d", i%64), int64(i)}}
		if err := m.Acquire(e, "A", rel, inv); err != nil {
			b.Fatal(err)
		}
		m.CommitTransfer(e)
	}
}

// BenchmarkBTree micro-benchmarks the lock-coupled B+ tree.
func BenchmarkBTree(b *testing.B) {
	b.Run("insert", func(b *testing.B) {
		tr := newBenchTree(0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Insert(int64(i%100000), int64(i))
		}
	})
	b.Run("lookup", func(b *testing.B) {
		tr := newBenchTree(100000)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Lookup(int64(i % 100000))
		}
	})
	b.Run("lookup-parallel", func(b *testing.B) {
		tr := newBenchTree(100000)
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				tr.Lookup(int64(i % 100000))
				i++
			}
		})
	})
	// Copy-on-write versions: Clone must not grow with the tree, and the
	// first write after it pays one path copy (run with -benchmem).
	for _, keys := range []int{128, 100000} {
		b.Run(fmt.Sprintf("clone/keys=%d", keys), func(b *testing.B) {
			tr := newBenchTree(keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Clone()
			}
		})
		b.Run(fmt.Sprintf("insert-after-clone/keys=%d", keys), func(b *testing.B) {
			tr := newBenchTree(keys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Clone()
				tr.Insert(int64(i%keys), int64(i))
			}
		})
	}
}

func newBenchTree(preload int) *btree.Tree {
	tr := btree.New(32)
	for k := 0; k < preload; k++ {
		tr.Insert(int64(k), int64(k))
	}
	return tr
}
