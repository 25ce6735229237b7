package btree

// Copy-on-write versions: differential tests of whole families of trees
// sharing nodes, a race hammer with live writers and many unlocked
// readers of frozen clones, the no-lock pin on those reads, the
// concurrent-writer hammers re-run on a tree that shares its nodes with a
// live clone, and the cost pins (O(1) Clone and Len, one path copy on the
// first write after a Clone).

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// member is one tree of a family together with the map it must equal.
type member struct {
	tr     *Tree
	oracle map[int64]Value
}

func (m member) clone() member {
	o := make(map[int64]Value, len(m.oracle))
	for k, v := range m.oracle {
		o[k] = v
	}
	return member{tr: m.tr.Clone(), oracle: o}
}

// check compares the tree with its oracle through every read path.
func (m member) check() error {
	if err := m.tr.CheckInvariants(); err != nil {
		return err
	}
	if got := m.tr.Len(); got != len(m.oracle) {
		return fmt.Errorf("Len = %d, oracle has %d", got, len(m.oracle))
	}
	ks, vs := m.tr.Export()
	if len(ks) != len(m.oracle) {
		return fmt.Errorf("Export has %d pairs, oracle %d", len(ks), len(m.oracle))
	}
	for i, k := range ks {
		if i > 0 && ks[i-1] >= k {
			return fmt.Errorf("Export out of order at %d: %d then %d", i, ks[i-1], k)
		}
		if ov, ok := m.oracle[k]; !ok || ov != vs[i] {
			return fmt.Errorf("Export has %d:%v, oracle %v (present %v)", k, vs[i], ov, ok)
		}
		if v, ok := m.tr.Lookup(k); !ok || v != vs[i] {
			return fmt.Errorf("Lookup(%d) = %v,%v, Export has %v", k, v, ok, vs[i])
		}
	}
	return nil
}

// TestCOWDifferential grows a family of trees by random Insert, Delete
// and Clone — clones of clones, writes to both sides of every clone — and
// checks every member against its own oracle after every step: a write
// that reached a node another member can see shows up there.
func TestCOWDifferential(t *testing.T) {
	for order := 3; order <= 9; order++ {
		r := rand.New(rand.NewSource(int64(order)))
		family := []member{{tr: New(order), oracle: map[int64]Value{}}}
		for step := 0; step < 600; step++ {
			i := r.Intn(len(family))
			m := family[i]
			k := int64(r.Intn(96))
			switch op := r.Intn(10); {
			case op < 5:
				v := int64(step)
				old, had := m.tr.Insert(k, v)
				if oold, ohad := m.oracle[k]; had != ohad || (had && old != oold) {
					t.Fatalf("order %d step %d: Insert(%d) = %v,%v, oracle %v,%v", order, step, k, old, had, oold, ohad)
				}
				m.oracle[k] = v
			case op < 8:
				old, had := m.tr.Delete(k)
				if oold, ohad := m.oracle[k]; had != ohad || (had && old != oold) {
					t.Fatalf("order %d step %d: Delete(%d) = %v,%v, oracle %v,%v", order, step, k, old, had, oold, ohad)
				}
				delete(m.oracle, k)
			default:
				c := m.clone()
				if len(family) < 8 {
					family = append(family, c)
				} else {
					family[r.Intn(len(family))] = c
				}
			}
			for j, m := range family {
				if err := m.check(); err != nil {
					t.Fatalf("order %d step %d (on member %d): member %d: %v", order, step, i, j, err)
				}
			}
		}
	}
}

// TestCOWFrozenClonesUnderWriter: writers mutate disjoint key ranges of
// the live tree and clone it every few writes between them (excluding the
// other writers, as the object latch does); readers run Lookup, Scan and Len on
// the retained clones — unlocked reads of frozen nodes — and Lookup on a
// resident range of the live tree that nobody writes, whose descent mixes
// locked owned nodes with unlocked frozen ones. Every clone must keep
// exactly the contents it had at its Clone. Run with -race.
func TestCOWFrozenClonesUnderWriter(t *testing.T) {
	const writes, every, writers, readers, keys, resident = 3000, 7, 2, 4, 150, 32
	live := New(5)
	for k := int64(-resident); k < 0; k++ {
		live.Insert(k, k)
	}
	// latch: writers share it, Clone takes it alone — Clone's contract.
	// Each writer's oracle is written under the shared latch and read
	// under the exclusive one.
	var latch sync.RWMutex
	oracles := make([]map[int64]Value, writers)
	for w := range oracles {
		oracles[w] = map[int64]Value{}
	}
	var mu sync.Mutex // guards frozen
	var frozen []member
	var done atomic.Bool
	var written atomic.Int64
	var rwg, wwg sync.WaitGroup
	for rd := 0; rd < readers; rd++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			r := rand.New(rand.NewSource(seed))
			for ; !done.Load(); runtime.Gosched() {
				// Yield between rounds: on few cores, a writer woken from a
				// node lock these readers held would otherwise queue behind
				// them for a whole time slice.
				rk := -1 - int64(r.Intn(resident))
				if v, ok := live.Lookup(rk); !ok || v != rk {
					t.Errorf("live resident Lookup(%d) = %v,%v", rk, v, ok)
					return
				}
				mu.Lock()
				if len(frozen) == 0 {
					mu.Unlock()
					continue
				}
				m := frozen[r.Intn(len(frozen))]
				mu.Unlock()
				if got := m.tr.Len(); got != len(m.oracle) {
					t.Errorf("frozen Len = %d, want %d", got, len(m.oracle))
					return
				}
				k := int64(r.Intn(writers * keys))
				v, ok := m.tr.Lookup(k)
				if ov, ook := m.oracle[k]; ok != ook || v != ov {
					t.Errorf("frozen Lookup(%d) = %v,%v, want %v,%v", k, v, ok, ov, ook)
					return
				}
				n := 0
				m.tr.Scan(func(k int64, v Value) bool {
					n++
					if ov, ok := m.oracle[k]; !ok || ov != v {
						t.Errorf("frozen Scan saw %d:%v, want %v (present %v)", k, v, ov, ok)
					}
					return true
				})
				if n != len(m.oracle) {
					t.Errorf("frozen Scan visited %d pairs, want %d", n, len(m.oracle))
					return
				}
			}
		}(int64(rd))
	}
	cloneAll := func() member {
		latch.Lock()
		defer latch.Unlock()
		m := member{tr: live.Clone(), oracle: map[int64]Value{}}
		for k := int64(-resident); k < 0; k++ {
			m.oracle[k] = k
		}
		for _, o := range oracles {
			for k, v := range o {
				m.oracle[k] = v
			}
		}
		return m
	}
	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			r := rand.New(rand.NewSource(int64(99 + w)))
			for i := 0; i < writes; i++ {
				// Writer w owns keys [w*keys, (w+1)*keys).
				k := int64(w*keys + r.Intn(keys))
				latch.RLock()
				if r.Intn(3) == 0 {
					live.Delete(k)
					delete(oracles[w], k)
				} else {
					live.Insert(k, int64(i))
					oracles[w][k] = int64(i)
				}
				latch.RUnlock()
				if written.Add(1)%every == 0 {
					c := cloneAll()
					mu.Lock()
					frozen = append(frozen, c)
					mu.Unlock()
				}
			}
		}(w)
	}
	wwg.Wait()
	done.Store(true)
	rwg.Wait()
	for i, m := range append(frozen, cloneAll()) {
		if err := m.check(); err != nil {
			t.Fatalf("clone %d of %d: %v", i, len(frozen), err)
		}
	}
}

// TestCloneReadsTakeNoLock: a published snapshot is read without any
// lock. With the live tree's root pointer and every one of its nodes —
// all of them shared with the clone — held exclusively, Lookup, Scan and
// Len on the clone must still return: any lock taken on the way would
// block until the timeout.
func TestCloneReadsTakeNoLock(t *testing.T) {
	for _, order := range []int{3, DefaultOrder} {
		live := New(order)
		for k := int64(0); k < 500; k++ {
			live.Insert(k, k)
		}
		clone := live.Clone()
		live.rootMu.Lock()
		var nodes []*node
		var hold func(n *node)
		hold = func(n *node) {
			n.mu.Lock()
			nodes = append(nodes, n)
			for _, c := range n.children {
				hold(c)
			}
		}
		hold(live.root.Load())
		read := make(chan error, 1)
		go func() {
			if v, ok := clone.Lookup(321); !ok || v != int64(321) {
				read <- fmt.Errorf("Lookup(321) = %v,%v", v, ok)
				return
			}
			n := 0
			clone.Scan(func(int64, Value) bool { n++; return true })
			if n != 500 || clone.Len() != 500 {
				read <- fmt.Errorf("Scan visited %d pairs, Len %d, want 500", n, clone.Len())
				return
			}
			read <- nil
		}()
		var err error
		select {
		case err = <-read:
		case <-time.After(5 * time.Second):
			err = fmt.Errorf("reads of a frozen clone blocked on the live tree's locks")
		}
		for _, n := range nodes {
			n.mu.Unlock()
		}
		live.rootMu.Unlock()
		if err != nil {
			t.Fatalf("order %d (%d nodes held): %v", order, len(nodes), err)
		}
	}
}

// sharedWithClone returns a tree of the given order whose every node is
// shared with the returned clone: negative resident keys, so the
// concurrent hammers' key ranges stay free.
func sharedWithClone(order int) (tr *Tree, frozen member) {
	live := member{tr: New(order), oracle: map[int64]Value{}}
	for k := int64(-400); k < 0; k++ {
		live.tr.Insert(k, k)
		live.oracle[k] = k
	}
	return live.tr, live.clone()
}

// The concurrent-writer hammers of btree_test.go, unchanged, on a tree
// that shares all its nodes with a live clone: writers racing down the
// same shared path must each end up in the one owned copy, and the clone
// must come out untouched.
func TestCOWConcurrentDisjointWritersShared(t *testing.T) {
	tr, frozen := sharedWithClone(6)
	concurrentDisjointWriters(t, tr)
	if err := frozen.check(); err != nil {
		t.Fatalf("clone after hammer: %v", err)
	}
}

func TestCOWConcurrentOverlappingMixShared(t *testing.T) {
	tr, frozen := sharedWithClone(4)
	concurrentOverlappingMix(t, tr)
	if err := frozen.check(); err != nil {
		t.Fatalf("clone after hammer: %v", err)
	}
}

// height counts the levels of a quiescent tree.
func (t *Tree) height() int {
	h := 1
	for n := t.root.Load(); !n.leaf; n = n.children[0] {
		h++
	}
	return h
}

// TestCloneCostPins pins what a version costs: Clone allocates a constant
// whatever the tree holds, the first write after it pays one path copy of
// three allocations per level and the second none, and Len visits no
// node.
func TestCloneCostPins(t *testing.T) {
	var v Value = int64(7) // boxed once, so the writes below allocate nothing for it
	for _, keys := range []int64{128, 16384} {
		tr, twin := New(0), New(0) // twin is never cloned
		for k := int64(0); k < 2*keys; k += 2 {
			tr.Insert(k, v)
			twin.Insert(k, v)
		}
		var sink *Tree
		cloneAllocs := testing.AllocsPerRun(200, func() { sink = tr.Clone() })
		if cloneAllocs > 2 {
			t.Errorf("%d keys: Clone allocates %v, want <= 2", keys, cloneAllocs)
		}
		// Overwriting a present key splits nothing once the run-in has
		// split whatever was full on its path, so what remains is the path
		// copy alone.
		first := testing.AllocsPerRun(200, func() {
			sink = tr.Clone()
			tr.Insert(keys, v)
		}) - cloneAllocs
		if max := float64(3 * tr.height()); first > max {
			t.Errorf("%d keys: first Insert after Clone allocates %v, want <= %v (height %d)", keys, first, max, tr.height())
		}
		if first == 0 {
			t.Errorf("%d keys: first Insert after Clone copied nothing", keys)
		}
		_ = sink
		// Second and later writes down an already-copied path: what a tree
		// that was never cloned pays, for overwrites and for fresh keys.
		twin.Insert(keys, v)
		for name, write := range map[string]func(*Tree){
			"overwrite":     func(x *Tree) { x.Insert(keys, v) },
			"insert+delete": func(x *Tree) { x.Insert(keys+1, v); x.Delete(keys + 1) },
		} {
			shared := testing.AllocsPerRun(200, func() { write(tr) })
			unshared := testing.AllocsPerRun(200, func() { write(twin) })
			if shared > unshared {
				t.Errorf("%d keys: second %s after Clone allocates %v, a never-cloned tree %v", keys, name, shared, unshared)
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// Len with the root pointer and the root node held exclusively:
		// any node visit would self-deadlock.
		tr.rootMu.Lock()
		root := tr.root.Load()
		root.mu.Lock()
		if got := tr.Len(); int64(got) != keys {
			t.Errorf("Len = %d, want %d", got, keys)
		}
		root.mu.Unlock()
		tr.rootMu.Unlock()
	}
}
