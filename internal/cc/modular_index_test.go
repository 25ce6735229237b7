package cc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/graph"
	"objectbase/internal/objects"
)

// naiveCert is the certifier with every index taken out: a flat list of
// accesses compared all-pairs, and nothing ever pruned. The indexed
// certifier must draw the same edges and reach the same verdicts.
type naiveCert struct {
	log       []naiveAccess
	edges     map[[2]int32]bool
	committed map[int32]bool
}

type naiveAccess struct {
	scope string
	rel   core.ConflictRelation
	top   int32
	st    core.StepInfo
}

func (c *naiveCert) access(scope string, rel core.ConflictRelation, top int32, st core.StepInfo) {
	for _, a := range c.log {
		if a.scope == scope && a.top != top && rel.StepConflicts(a.st, st) {
			c.edges[[2]int32{a.top, top}] = true
		}
	}
	c.log = append(c.log, naiveAccess{scope, rel, top, st})
}

func (c *naiveCert) abort(top int32) {
	keep := c.log[:0]
	for _, a := range c.log {
		if a.top != top {
			keep = append(keep, a)
		}
	}
	c.log = keep
	for e := range c.edges {
		if e[0] == top || e[1] == top {
			delete(c.edges, e)
		}
	}
}

// commit certifies top: no cycle through it within committed ∪ {top}.
func (c *naiveCert) commit(top int32) bool {
	seen, stack := map[int32]bool{}, []int32{top}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for e := range c.edges {
			if e[0] != x {
				continue
			}
			if e[1] == top {
				c.abort(top)
				return false
			}
			if c.committed[e[1]] && !seen[e[1]] {
				seen[e[1]] = true
				stack = append(stack, e[1])
			}
		}
	}
	c.committed[top] = true
	return true
}

// libObject is one object of the differential test's object base, with a
// generator of plausible invocations.
type libObject struct {
	name string
	sc   *core.Schema
	st   core.State
	gen  func(r *rand.Rand) core.OpInvocation
}

func inv(op string, args ...core.Value) core.OpInvocation {
	return core.OpInvocation{Op: op, Args: args}
}

// differentialObjects covers every kind of relation the certifier meets:
// hand-written with an op filter (account, queue), a refined derived table
// with argument-keyed verdicts (dictionary), a sharded table whose scopes
// are per key (register), a derived table (set), and an opaque
// TotalConflict schema that must never be skipped.
func differentialObjects() []*libObject {
	k := func(r *rand.Rand) core.Value { return int64(r.Intn(4)) }
	objs := []*libObject{
		{name: "acct", sc: objects.Account(), gen: func(r *rand.Rand) core.OpInvocation {
			return []core.OpInvocation{inv("Balance"), inv("Deposit", int64(1+r.Intn(3))), inv("Withdraw", int64(1+r.Intn(9)))}[r.Intn(3)]
		}},
		{name: "dict", sc: objects.Dictionary(), gen: func(r *rand.Rand) core.OpInvocation {
			return []core.OpInvocation{inv("Len"), inv("Lookup", k(r)), inv("Lookup", k(r)), inv("Insert", k(r), k(r)), inv("Delete", k(r))}[r.Intn(5)]
		}},
		{name: "q", sc: objects.Queue(), gen: func(r *rand.Rand) core.OpInvocation {
			return []core.OpInvocation{inv("Len"), inv("Enqueue", k(r)), inv("Dequeue")}[r.Intn(3)]
		}},
		{name: "reg", sc: objects.Register(), gen: func(r *rand.Rand) core.OpInvocation {
			v := []string{"x", "y", "z"}[r.Intn(3)]
			return []core.OpInvocation{inv("Read", v), inv("Write", v, k(r))}[r.Intn(2)]
		}},
		{name: "set", sc: objects.Set(), gen: func(r *rand.Rand) core.OpInvocation {
			return []core.OpInvocation{inv("Contains", k(r)), inv("Add", k(r)), inv("Remove", k(r))}[r.Intn(3)]
		}},
		{name: "opaque", sc: core.NewSchema("opaque", objects.Counter().NewState, nil, objects.Counter().MustOp("Add"), objects.Counter().MustOp("Get")),
			gen: func(r *rand.Rand) core.OpInvocation {
				return []core.OpInvocation{inv("Get"), inv("Add", int64(1))}[r.Intn(2)]
			}},
	}
	for _, o := range objs {
		o.st = o.sc.NewState()
	}
	return objs
}

// TestModularMatchesNaiveCertifier is the soundness differential: random
// interleavings of steps, commits and aborts over the object library are
// fed to the indexed, pruning certifier and to naiveCert. Every commit
// must get the same verdict, and after every event the certifier's edges
// must be exactly the naive edges among the transactions it still tracks,
// with consistent predecessor counts and every live stepper tracked.
func TestModularMatchesNaiveCertifier(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		objs := differentialObjects()
		s := NewModular()
		naive := &naiveCert{edges: map[[2]int32]bool{}, committed: map[int32]bool{}}
		var live []int32
		stepped := map[int32]bool{}
		next := int32(0)
		rejected := 0
		for ev := 0; ev < 2000; ev++ {
			what := fmt.Sprintf("seed %d event %d", seed, ev)
			switch p := r.Intn(100); {
			case len(live) == 0 || p < 8 && len(live) < 6:
				live = append(live, next)
				next++
			case p < 78:
				top, o := live[r.Intn(len(live))], objs[r.Intn(len(objs))]
				in := o.gen(r)
				ret, _, err := o.sc.MustOp(in.Op).Apply(o.st, in.Args)
				if err != nil {
					t.Fatalf("%s: %s on %s: %v", what, in, o.name, err)
				}
				st := core.StepInfo{Op: in.Op, Args: in.Args, Ret: ret}
				scope := core.ScopeOf(o.name, o.sc.Conflicts, in)
				s.recordAccess(scope, o.sc.Conflicts, top, st)
				naive.access(scope, o.sc.Conflicts, top, st)
				stepped[top] = true
			default:
				i := r.Intn(len(live))
				top := live[i]
				live = append(live[:i], live[i+1:]...)
				if p < 90 {
					got, want := s.certify(top), naive.commit(top)
					if got != want {
						t.Fatalf("%s: certify(T%d) = %v, naive certifier says %v", what, top, got, want)
					}
					if !got {
						rejected++
					}
				} else {
					s.discard(top)
					naive.abort(top)
				}
				delete(stepped, top)
			}
			checkAgainstNaive(t, what, s, naive, stepped)
		}
		for _, top := range live {
			s.discard(top)
		}
		if st := s.Stats(); st.TrackedAccesses != 0 || st.TrackedTxns != 0 || s.log.Scopes() != 0 {
			t.Fatalf("seed %d: quiescent certifier still tracks %+v (%d scopes)", seed, st, s.log.Scopes())
		}
		if rejected == 0 {
			t.Errorf("seed %d: no commit was rejected; the differential never exercised a cycle", seed)
		}
	}
}

func checkAgainstNaive(t *testing.T, what string, s *Modular, naive *naiveCert, stepped map[int32]bool) {
	t.Helper()
	for top := range stepped {
		if s.tops[top] == nil {
			t.Fatalf("%s: live T%d stepped but is not tracked", what, top)
		}
	}
	got, in := map[[2]int32]bool{}, map[int32]int{}
	for _, u := range s.tops {
		for id, m := range u.out {
			if !m.gone {
				got[[2]int32{u.id, id}] = true
				in[id]++
			}
		}
	}
	for e := range got {
		if !naive.edges[e] {
			t.Fatalf("%s: certifier has edge T%d→T%d the naive builder lacks", what, e[0], e[1])
		}
	}
	for e := range naive.edges {
		if s.tops[e[0]] != nil && s.tops[e[1]] != nil && !got[e] {
			t.Fatalf("%s: certifier lost edge T%d→T%d between tracked transactions", what, e[0], e[1])
		}
	}
	for id, n := range s.tops {
		if n.in != in[id] {
			t.Fatalf("%s: T%d counts %d tracked predecessors, has %d", what, id, n.in, in[id])
		}
		if n.committed && n.in == 0 {
			t.Fatalf("%s: committed T%d has no tracked predecessor but is still tracked", what, id)
		}
	}
}

// TestModularPruneKeepsReachable is the history a low-water pruning rule
// gets wrong (and the seed's did): n commits while x is live, x then
// acquires a predecessor k that started after n's commit, and x commits.
// Every transaction live at n's commit has now finished, yet n must stay
// tracked — it is still reachable from the live k — or k's commit closes
// n→k→x→n unseen.
//
//	x: r(o2) ............... w(o1) c
//	n:    w(o2) w(o3) c
//	k:              r(o3) r(o1)       c   <- must be rejected
func TestModularPruneKeepsReachable(t *testing.T) {
	sched := NewModular()
	en := NewEngine(sched, engine.Options{MaxRetries: engine.NoRetry})
	en.AddObject("r", objects.Register(), nil)
	do := func(c *engine.Ctx, op string, args ...core.Value) error {
		_, err := c.Do("r", op, args...)
		return err
	}
	xRead, xGo, kRead, kGo := make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{})
	xErr, kErr := make(chan error, 1), make(chan error, 1)
	go func() {
		_, err := en.Run("x", func(c *engine.Ctx) (core.Value, error) {
			if err := do(c, "Read", "o2"); err != nil {
				return nil, err
			}
			close(xRead)
			<-xGo
			return nil, do(c, "Write", "o1", int64(1))
		})
		xErr <- err
	}()
	<-xRead
	if _, err := en.Run("n", func(c *engine.Ctx) (core.Value, error) {
		if err := do(c, "Write", "o2", int64(2)); err != nil {
			return nil, err
		}
		return nil, do(c, "Write", "o3", int64(3))
	}); err != nil {
		t.Fatal(err)
	}
	go func() {
		_, err := en.Run("k", func(c *engine.Ctx) (core.Value, error) {
			if err := do(c, "Read", "o3"); err != nil {
				return nil, err
			}
			if err := do(c, "Read", "o1"); err != nil {
				return nil, err
			}
			close(kRead)
			<-kGo
			return nil, nil
		})
		kErr <- err
	}()
	<-kRead
	close(xGo)
	if err := <-xErr; err != nil {
		t.Fatalf("x: %v", err)
	}
	// Unrelated commits while k is still live: under the old rule the
	// 64th certified commit swept n away here.
	for i := 0; i < 62; i++ {
		if _, err := en.Run("filler", func(c *engine.Ctx) (core.Value, error) { return nil, do(c, "Read", "zz") }); err != nil {
			t.Fatal(err)
		}
	}
	close(kGo)
	if err := <-kErr; err == nil || !engine.Retriable(err) {
		t.Errorf("k closes the cycle n→k→x→n and must be rejected retriably, got %v", err)
	}
	if v := graph.Check(en.History()); !v.Serialisable {
		t.Fatalf("modular admitted a non-serialisable history: %v", v)
	}
	if st := sched.Stats(); st.TrackedTxns != 0 || st.TrackedAccesses != 0 {
		t.Errorf("quiescent certifier still tracks %+v", st)
	}
}

// countingRel counts the conflict tests made through it, and keeps the
// wrapped relation's op filter.
type countingRel struct {
	core.ConflictRelation
	mu       sync.Mutex
	step, op int
}

func (c *countingRel) OpConflicts(a, b core.OpInvocation) bool {
	c.mu.Lock()
	c.op++
	c.mu.Unlock()
	return c.ConflictRelation.OpConflicts(a, b)
}

func (c *countingRel) StepConflicts(a, b core.StepInfo) bool {
	c.mu.Lock()
	c.step++
	c.mu.Unlock()
	return c.ConflictRelation.StepConflicts(a, b)
}

func (c *countingRel) OpsMayConflict(a, b string) bool {
	return core.OpsMayConflict(c.ConflictRelation, a, b)
}

func (c *countingRel) counts() (step, op int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.step, c.op
}

// TestModularStepCostIndependentOfHistory is the scan-length pin: the
// conflict tests one Lookup step costs — StepConflicts in the certifier,
// OpConflicts in the dependency tracker — must not depend on how many
// scan transactions committed before it. Counted, not timed. Two shapes:
// a quiescent base (full scans: Len + 8 Lookups), and one with a writer
// live throughout, which is what keeps committed history relevant
// (Lookup-only scans there — a Len would wait for the writer's commit).
func TestModularStepCostIndependentOfHistory(t *testing.T) {
	for _, liveWriter := range []bool{false, true} {
		var want [2]int
		for i, history := range []int{1, 64, 4096} {
			rel := &countingRel{ConflictRelation: objects.Dictionary().Conflicts}
			sc := objects.Dictionary()
			sc.Conflicts = rel
			en := NewEngine(NewModular(), engine.Options{Recording: engine.RecordStats})
			en.AddObject("dict", sc, nil)
			release, done := make(chan struct{}), make(chan error, 1)
			if liveWriter {
				wrote := make(chan struct{})
				go func() {
					_, err := en.Run("writer", func(c *engine.Ctx) (core.Value, error) {
						if _, err := c.Do("dict", "Insert", int64(999), int64(1)); err != nil {
							return nil, err
						}
						close(wrote)
						<-release
						return nil, nil
					})
					done <- err
				}()
				<-wrote
			}
			for n := 0; n < history; n++ {
				if _, err := en.Run("scan", func(c *engine.Ctx) (core.Value, error) {
					if !liveWriter {
						if _, err := c.Do("dict", "Len"); err != nil {
							return nil, err
						}
					}
					for k := 0; k < 8; k++ {
						if _, err := c.Do("dict", "Lookup", int64((n+k)%256)); err != nil {
							return nil, err
						}
					}
					return nil, nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			step0, op0 := rel.counts()
			if _, err := en.Run("probe", func(c *engine.Ctx) (core.Value, error) { return c.Do("dict", "Lookup", int64(7)) }); err != nil {
				t.Fatal(err)
			}
			step1, op1 := rel.counts()
			got := [2]int{step1 - step0, op1 - op0}
			if liveWriter {
				close(release)
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if i == 0 {
				want = got
				if liveWriter && (got[0] != 1 || got[1] < 1) {
					t.Errorf("live writer: a Lookup should test exactly the writer's Insert, got %d step / %d op tests", got[0], got[1])
				}
			} else if got != want {
				t.Errorf("live writer %v: after %d committed scans a Lookup step costs %d step / %d op conflict tests, after 1 it cost %d / %d",
					liveWriter, history, got[0], got[1], want[0], want[1])
			}
		}
	}
}

// TestModularLeavesNothingTracked is the leak pin: rounds of every way a
// transaction can end — commit, commit without a step, user abort with
// and without a step, certifier rejection, cascade — and, whenever nothing
// is live, neither the certifier nor the dependency tracker may hold
// anything.
func TestModularLeavesNothingTracked(t *testing.T) {
	sched := NewModular()
	en := NewEngine(sched, engine.Options{Recording: engine.RecordStats})
	en.AddObject("A", objects.Register(), core.State{"x": int64(0)})
	en.AddObject("B", objects.Register(), core.State{"y": int64(0)})
	en.AddObject("dict", objects.Dictionary(), nil)
	quiet := func(after string) {
		t.Helper()
		st := sched.Stats()
		touches, txns := en.DepStats()
		if st.TrackedAccesses != 0 || st.TrackedTxns != 0 || sched.log.Scopes() != 0 || touches != 0 || txns != 0 {
			t.Fatalf("after %s: certifier tracks %d accesses, %d transactions, %d scopes; dependency tracker %d touches, %d transactions; want nothing",
				after, st.TrackedAccesses, st.TrackedTxns, sched.log.Scopes(), touches, txns)
		}
	}
	boom := errors.New("user abort")
	for round := 0; round < 50; round++ {
		if _, err := en.Run("scan", func(c *engine.Ctx) (core.Value, error) {
			if _, err := c.Do("dict", "Insert", int64(round), int64(1)); err != nil {
				return nil, err
			}
			return c.Do("dict", "Len")
		}); err != nil {
			t.Fatal(err)
		}
		quiet("a commit")
		if _, err := en.Run("idle", func(c *engine.Ctx) (core.Value, error) { return nil, nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := en.Run("idle-abort", func(c *engine.Ctx) (core.Value, error) { return nil, boom }); !errors.Is(err, boom) {
			t.Fatalf("idle abort: %v", err)
		}
		if _, err := en.Run("abort", func(c *engine.Ctx) (core.Value, error) {
			if _, err := c.Do("A", "Write", "x", int64(9)); err != nil {
				return nil, err
			}
			return nil, boom
		}); !errors.Is(err, boom) {
			t.Fatalf("user abort: %v", err)
		}
		quiet("user aborts")

		// Certifier rejection: the write-skew cross.
		rejectedBefore := sched.Stats().Rejected
		var barrier, wg sync.WaitGroup
		barrier.Add(2)
		wg.Add(2)
		cross := func(readObj, readVar, writeObj, writeVar string) {
			defer wg.Done()
			if _, err := en.Run("cross", crossTxn(&barrier, func(c *engine.Ctx, phase int) error {
				if phase == 1 {
					_, err := c.Do(readObj, "Read", readVar)
					return err
				}
				_, err := c.Do(writeObj, "Write", writeVar, int64(round))
				return err
			})); err != nil {
				t.Errorf("cross: %v", err)
			}
		}
		go cross("A", "x", "B", "y")
		go cross("B", "y", "A", "x")
		wg.Wait()
		if sched.Stats().Rejected == rejectedBefore {
			t.Fatalf("round %d: the write-skew cross was not rejected", round)
		}
		quiet("a certifier rejection")

		// Cascade: a reader of dirty data dies with its writer.
		wrote, read := make(chan struct{}), make(chan struct{})
		wg.Add(2)
		go func() {
			defer wg.Done()
			en.Run("W", func(c *engine.Ctx) (core.Value, error) {
				if _, err := c.Do("A", "Write", "x", int64(5)); err != nil {
					return nil, err
				}
				close(wrote)
				<-read
				return nil, boom
			})
		}()
		go func() {
			defer wg.Done()
			<-wrote
			first := true
			if _, err := en.Run("R", func(c *engine.Ctx) (core.Value, error) {
				v, err := c.Do("A", "Read", "x")
				if first {
					first = false
					close(read)
				}
				return v, err
			}); err != nil {
				t.Errorf("cascaded reader should succeed on retry: %v", err)
			}
		}()
		wg.Wait()
		quiet("a cascade")
	}
	if st := sched.Stats(); st.MaxStepTests == 0 {
		t.Errorf("MaxStepTests gauge never moved: %+v", st)
	}
}

// TestModularDictionaryHistoriesVerify runs the benchmark's scan/insert/
// delete mix concurrently on one dictionary — the workload the indexes
// exist for — and puts every admitted history through the full oracle.
func TestModularDictionaryHistoriesVerify(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		sched := NewModular()
		en := NewEngine(sched, engine.Options{})
		en.AddObject("dict", objects.Dictionary(), nil)
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed*100 + int64(c)))
				for i := 0; i < 60; i++ {
					k := int64(r.Intn(16))
					var err error
					switch r.Intn(4) {
					case 0:
						_, err = en.Run("insert", func(x *engine.Ctx) (core.Value, error) { return x.Do("dict", "Insert", k, int64(i)) })
					case 1:
						_, err = en.Run("delete", func(x *engine.Ctx) (core.Value, error) { return x.Do("dict", "Delete", k) })
					default:
						_, err = en.Run("scan", func(x *engine.Ctx) (core.Value, error) {
							if _, err := x.Do("dict", "Len"); err != nil {
								return nil, err
							}
							for j := int64(0); j < 4; j++ {
								if _, err := x.Do("dict", "Lookup", (k+j)%16); err != nil {
									return nil, err
								}
							}
							return nil, nil
						})
					}
					if err != nil {
						t.Errorf("client %d txn %d: %v", c, i, err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		h := en.History()
		if err := h.CheckLegal(); err != nil {
			t.Fatalf("seed %d: not legal: %v", seed, err)
		}
		if v := graph.Check(h); !v.Serialisable {
			t.Fatalf("seed %d: %v", seed, v)
		}
		if err := graph.CheckTheorem5(h); err != nil {
			t.Fatalf("seed %d: Theorem 5: %v", seed, err)
		}
		touches, txns := en.DepStats()
		if st := sched.Stats(); st.TrackedAccesses != 0 || st.TrackedTxns != 0 || touches != 0 || txns != 0 {
			t.Fatalf("seed %d: quiescent, yet certifier tracks %+v and the dependency tracker %d touches, %d transactions", seed, st, touches, txns)
		}
	}
}
