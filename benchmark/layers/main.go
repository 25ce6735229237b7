// Command layers is the benchmark's only importer of objectbase/internal:
// single-goroutine, fixed-iteration probes of each layer's public
// functions, reporting ns/op and exact allocs/op. The runner starts it as
// a child process and merges its JSON, so if an internal API is renamed
// and this program stops building, only these ledger lines go absent —
// the end-to-end benchmark (which imports the façade alone) still runs.
//
// Usage: layers -shards 8 object...   (objects: names to place on shards)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"objectbase"
	"objectbase/internal/btree"
	"objectbase/internal/cc"
	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/lock"
	"objectbase/internal/objects"
	"objectbase/internal/obs"
	"objectbase/internal/shard"
)

// Iteration counts are fixed so the allocation counts repeat exactly and
// the whole program stays within a few seconds.
const (
	txnIters   = 40000   // one-step façade transactions per path / scheduler
	microIters = 400000  // sub-microsecond calls
	cloneIters = 20000   // dictionary / tree clones
	residents  = 128     // keys resident in the probed tree, as in the workloads
	probeShard = 8       // shard count of the serial and cross-shard paths
	warmupFrac = 10      // 1/warmupFrac of the iterations run untimed first
	counterFmt = "ctr%d" // probe object names
)

type result struct {
	Metrics   map[string]float64 `json:"metrics"`
	Placement map[string]int     `json:"placement"`
	Warnings  []string           `json:"warnings,omitempty"`
}

var sink any // keeps probed results alive

// measure runs fn n times on this goroutine after an untimed warm-up and
// returns the mean ns and the exact heap allocations per call. i counts
// up across warm-up and measurement, so it can name fresh executions.
func measure(n int, fn func(i int)) (ns, allocs float64) {
	warm := n / warmupFrac
	for i := 0; i < warm; i++ {
		fn(i)
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := warm; i < warm+n; i++ {
		fn(i)
	}
	d := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func main() {
	shards := flag.Int("shards", probeShard, "shard count to place the named objects on")
	flag.Parse()
	runtime.GOMAXPROCS(2) // the benchmark's machine shape; the probes use one goroutine

	res := result{Metrics: map[string]float64{}, Placement: map[string]int{}}
	dir := shard.NewDirectory(*shards)
	for _, name := range flag.Args() {
		res.Placement[name] = dir.Shard(name)
	}
	warn := func(format string, args ...any) {
		res.Warnings = append(res.Warnings, fmt.Sprintf(format, args...))
	}

	probePaths(res.Metrics, warn)
	probeSchedulers(res.Metrics, warn)
	probeLock(res.Metrics, warn)
	probeShard8(res.Metrics, warn)
	probeCore(res.Metrics, warn)
	probeBtree(res.Metrics)
	probeObs(res.Metrics)

	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

// counterDB opens a DB holding the named counters, each with a one-step
// "bump" (Add 1) and a one-step "read" (Get) method.
func counterDB(names []string, opts ...objectbase.Option) (*objectbase.DB, error) {
	db, err := objectbase.Open(append([]objectbase.Option{objectbase.WithHistory(objectbase.HistoryOff)}, opts...)...)
	if err != nil {
		return nil, err
	}
	for _, c := range names {
		if err := db.RegisterObject(c, objectbase.Counter(), nil); err != nil {
			return nil, err
		}
		if err := db.RegisterMethod(c, "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Do(c, "Add", int64(1))
		}); err != nil {
			return nil, err
		}
		if err := db.RegisterMethod(c, "read", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Do(c, "Get")
		}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// probePaths prices one committed one-step counter transaction down each
// execution path through the façade. The serial fast path is the
// measured lower bound the other paths are compared against.
func probePaths(m map[string]float64, warn func(string, ...any)) {
	ctx := context.Background()
	// Two counters homed on different shards, for the cross-shard path.
	dir := shard.NewDirectory(probeShard)
	a, b := fmt.Sprintf(counterFmt, 0), ""
	for i := 1; b == ""; i++ {
		if c := fmt.Sprintf(counterFmt, i); dir.Shard(c) != dir.Shard(a) {
			b = c
		}
	}
	bump := func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Call(a, "bump") }
	read := func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Call(a, "read") }
	bumpBoth := func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		if _, err := ctx.Call(a, "bump"); err != nil {
			return nil, err
		}
		return ctx.Call(b, "bump")
	}
	touches := []string{a}

	paths := []struct {
		name string
		opts []objectbase.Option
		run  func(db *objectbase.DB) error
	}{
		{"scheduled", nil, func(db *objectbase.DB) error { _, err := db.Exec(ctx, "bump", bump); return err }},
		{"serial", []objectbase.Option{objectbase.WithShards(probeShard)},
			func(db *objectbase.DB) error { _, err := db.ExecTouching(ctx, "bump", touches, bump); return err }},
		// Undeclared and spanning two shards: discovery, then two-phase
		// commit. Two steps, not one — the path cannot be shorter.
		{"xshard", []objectbase.Option{objectbase.WithShards(probeShard)},
			func(db *objectbase.DB) error { _, err := db.Exec(ctx, "bump2", bumpBoth); return err }},
		{"view", []objectbase.Option{objectbase.WithReadOnly()},
			func(db *objectbase.DB) error { _, err := db.View(ctx, "read", read); return err }},
	}
	for _, p := range paths {
		db, err := counterDB([]string{a, b}, p.opts...)
		if err != nil {
			warn("engine.%s: %v", p.name, err)
			continue
		}
		var failed error
		ns, allocs := measure(txnIters, func(int) {
			if err := p.run(db); err != nil {
				failed = err
			}
		})
		if failed != nil {
			warn("engine.%s: %v", p.name, failed)
			continue
		}
		m["engine."+p.name+"_ns_per_txn"] = ns
		m["engine."+p.name+"_allocs_per_txn"] = allocs
	}
}

// probeSchedulers prices the same one-step transaction under every
// registered scheduler on the unsharded scheduled path; "none" is the
// control that does no synchronisation.
func probeSchedulers(m map[string]float64, warn func(string, ...any)) {
	ctx := context.Background()
	c := fmt.Sprintf(counterFmt, 0)
	bump := func(ctx *objectbase.Ctx) (objectbase.Value, error) { return ctx.Call(c, "bump") }
	for _, name := range cc.SchedulerNames() {
		db, err := counterDB([]string{c}, objectbase.WithScheduler(name))
		if err != nil {
			warn("cc.%s: %v", name, err)
			continue
		}
		var failed error
		ns, _ := measure(txnIters, func(int) {
			if _, err := db.Exec(ctx, "bump", bump); err != nil {
				failed = err
			}
		})
		if failed != nil {
			warn("cc.%s: %v", name, failed)
			continue
		}
		m["cc."+name+"_ns_per_txn"] = ns
	}
}

// probeLock prices the lock table alone: an uncontended acquire/release,
// and the bank pattern — a child execution acquires, commits (its lock is
// inherited by the parent), and the parent releases.
func probeLock(m map[string]float64, warn func(string, ...any)) {
	rel := objects.Account().Conflicts
	inv := core.OpInvocation{Op: "Deposit", Args: []core.Value{int64(1)}}
	mgr := lock.New(lock.Options{})
	var failed error
	ns, allocs := measure(microIters, func(i int) {
		e := core.RootID(int32(i))
		if err := mgr.Acquire(e, "acct0", rel, inv); err != nil {
			failed = err
		}
		mgr.ReleaseAll(e)
	})
	if failed != nil {
		warn("lock.acquire_release: %v", failed)
		return
	}
	m["lock.acquire_release_ns"], m["lock.acquire_release_allocs"] = ns, allocs

	mgr = lock.New(lock.Options{})
	ns, _ = measure(microIters, func(i int) {
		top := core.RootID(int32(i))
		child := top.Child(0)
		if err := mgr.Acquire(child, "acct0", rel, inv); err != nil {
			failed = err
		}
		mgr.CommitTransfer(child)
		mgr.ReleaseAll(top)
	})
	if failed != nil {
		warn("lock.nested_transfer: %v", failed)
		return
	}
	m["lock.nested_transfer_ns"] = ns
}

// probeShard8 prices what the serial path adds per transaction: one
// directory lookup and one uncontended gate round, exclusive and shared.
func probeShard8(m map[string]float64, warn func(string, ...any)) {
	dir := shard.NewDirectory(probeShard)
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprintf("acct%d", i)
	}
	total := 0
	m["shard.directory_ns"], _ = measure(microIters, func(i int) { total += dir.Shard(names[i%len(names)]) })
	sink = total

	engines, err := cc.NewShardedEngines(objectbase.DefaultScheduler, probeShard, cc.Config{}, engine.Options{})
	if err != nil {
		warn("shard gates: %v", err)
		return
	}
	sp := shard.NewSpace(engines)
	m["shard.gate_ns"], _ = measure(microIters, func(i int) {
		sp.LockGate(i % probeShard)
		sp.UnlockGate(i % probeShard)
	})
	m["shard.rgate_ns"], _ = measure(microIters, func(i int) {
		sp.RLockGate(i % probeShard)
		sp.RUnlockGate(i % probeShard)
	})
}

// probeCore prices the model's primitives: applying an operation (with
// its undo closure), one conflict test, one scope computation, version
// publication and lookup, and the dictionary state clone publication
// pays per mutated object per commit.
func probeCore(m map[string]float64, warn func(string, ...any)) {
	acct := objects.Account()
	st := core.State{"balance": int64(1 << 40)}
	deposit := acct.MustOp("Deposit")
	args := []core.Value{int64(1)}
	var failed error
	m["core.apply_ns"], _ = measure(microIters, func(int) {
		_, undo, err := deposit.Apply(st, args)
		if err != nil {
			failed = err
		}
		sink = undo
	})
	if failed != nil {
		warn("core.apply: %v", failed)
	}

	a := core.OpInvocation{Op: "Deposit", Args: args}
	b := core.OpInvocation{Op: "Withdraw", Args: args}
	conflicts := 0
	m["core.conflict_ns"], _ = measure(microIters, func(int) {
		if acct.Conflicts.OpConflicts(a, b) {
			conflicts++
		}
	})
	sink = conflicts
	m["core.scope_ns"], _ = measure(microIters, func(int) { sink = core.ScopeOf("acct0", acct.Conflicts, a) })

	dict := objects.Dictionary()
	ds := dict.NewState()
	for k := 0; k < 2*residents; k += 2 {
		if _, _, err := dict.MustOp("Insert").Apply(ds, []core.Value{int64(k), int64(k)}); err != nil {
			warn("core.clone_dict: %v", err)
			return
		}
	}
	m["core.clone_dict_ns"], m["core.clone_dict_allocs"] = measure(cloneIters, func(int) { sink = dict.Clone(ds) })

	ring := core.NewVersionRing(ds)
	m["core.version_push_ns"], _ = measure(microIters, func(i int) { ring = ring.Push(uint64(i+1), i+1, ds) })
	newest := ring.Newest().Seq
	found := 0
	m["core.version_lookup_ns"], _ = measure(microIters, func(int) {
		if _, ok := ring.Lookup(newest); ok {
			found++
		}
	})
	sink = found
}

// probeBtree prices the dictionary's tree at the workloads' resident
// size: a lookup, an insert+delete of an absent key, and a clone.
func probeBtree(m map[string]float64) {
	t := btree.New(0)
	for k := int64(0); k < 2*residents; k += 2 {
		t.Insert(k, k)
	}
	hits := 0
	m["btree.lookup_ns"], _ = measure(microIters, func(i int) {
		if _, ok := t.Lookup(int64(i % (2 * residents))); ok {
			hits++
		}
	})
	sink = hits
	m["btree.insert_delete_ns"], _ = measure(microIters, func(i int) {
		k := int64(2*(i%residents) + 1)
		t.Insert(k, k)
		t.Delete(k)
	})
	m["btree.clone_ns"], m["btree.clone_allocs"] = measure(cloneIters, func(int) { sink = t.Clone() })
}

// probeObs prices the flight recorder: a span recorded, the same call on
// a disabled (nil) tracer, and one histogram observation.
func probeObs(m map[string]float64) {
	tr := obs.NewTracer()
	m["obs.span_ns"], _ = measure(microIters, func(i int) {
		tr.StartSpan(obs.PhaseExecute, uint64(i), "t", "o").End()
	})
	var off *obs.Tracer
	m["obs.span_disabled_ns"], _ = measure(microIters, func(i int) {
		off.StartSpan(obs.PhaseExecute, uint64(i), "t", "o").End()
	})
	h := obs.NewHist()
	m["obs.hist_record_ns"], _ = measure(microIters, func(i int) { h.Record(time.Duration(i)) })
}
