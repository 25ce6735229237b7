package btree

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	tr := New(4)
	if _, ok := tr.Lookup(1); ok {
		t.Fatalf("empty tree lookup")
	}
	if old, had := tr.Insert(1, "a"); had || old != nil {
		t.Fatalf("insert fresh: %v %v", old, had)
	}
	if old, had := tr.Insert(1, "b"); !had || old != "a" {
		t.Fatalf("insert overwrite: %v %v", old, had)
	}
	if v, ok := tr.Lookup(1); !ok || v != "b" {
		t.Fatalf("lookup: %v %v", v, ok)
	}
	if old, had := tr.Delete(1); !had || old != "b" {
		t.Fatalf("delete: %v %v", old, had)
	}
	if _, ok := tr.Lookup(1); ok {
		t.Fatalf("deleted key found")
	}
	if _, had := tr.Delete(1); had {
		t.Fatalf("double delete")
	}
}

func TestSplitsAndOrder(t *testing.T) {
	tr := New(4)
	const n = 500
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for _, k := range perm {
		tr.Insert(int64(k), int64(k*10))
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != n {
		t.Fatalf("len = %d", got)
	}
	ks, vs := tr.Export()
	for i := range ks {
		if ks[i] != int64(i) || vs[i] != int64(i*10) {
			t.Fatalf("export[%d] = %d,%v", i, ks[i], vs[i])
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tr := New(4)
	for k := int64(0); k < 100; k++ {
		tr.Insert(k, k)
	}
	count := 0
	tr.Scan(func(k int64, v Value) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("scan visited %d", count)
	}
}

func TestCloneAndEqual(t *testing.T) {
	tr := New(5)
	for k := int64(0); k < 50; k++ {
		tr.Insert(k, k*2)
	}
	cp := tr.Clone()
	if !tr.Equal(cp) {
		t.Fatalf("clone differs")
	}
	cp.Insert(999, int64(1))
	if tr.Equal(cp) {
		t.Fatalf("clone aliases original")
	}
	if _, ok := tr.Lookup(999); ok {
		t.Fatalf("original affected by clone mutation")
	}
}

// Property: the tree agrees with a map oracle under random sequential
// operation mixes, and invariants hold throughout.
func TestAgainstMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	f := func() bool {
		tr := New(3 + r.Intn(6))
		oracle := map[int64]Value{}
		for i := 0; i < 300; i++ {
			k := int64(r.Intn(60))
			switch r.Intn(3) {
			case 0:
				v := int64(r.Intn(1000))
				old, had := tr.Insert(k, v)
				oold, ohad := oracle[k]
				if had != ohad || (had && old != oold) {
					t.Logf("insert(%d) = %v,%v want %v,%v", k, old, had, oold, ohad)
					return false
				}
				oracle[k] = v
			case 1:
				old, had := tr.Delete(k)
				oold, ohad := oracle[k]
				if had != ohad || (had && old != oold) {
					t.Logf("delete(%d) = %v,%v want %v,%v", k, old, had, oold, ohad)
					return false
				}
				delete(oracle, k)
			default:
				v, ok := tr.Lookup(k)
				ov, ook := oracle[k]
				if ok != ook || (ok && v != ov) {
					t.Logf("lookup(%d) = %v,%v want %v,%v", k, v, ok, ov, ook)
					return false
				}
			}
		}
		if err := tr.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if tr.Len() != len(oracle) {
			t.Logf("len %d vs oracle %d", tr.Len(), len(oracle))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestConcurrentDisjointWriters: goroutines write disjoint key ranges with
// concurrent readers; the final contents must be exactly the union, and
// invariants must hold. Run with -race.
func TestConcurrentDisjointWriters(t *testing.T) { concurrentDisjointWriters(t, New(6)) }

// concurrentDisjointWriters runs the hammer on tr, which holds no key the
// writers use (any it holds already must survive untouched).
func concurrentDisjointWriters(t *testing.T, tr *Tree) {
	resident := tr.Len()
	const writers = 8
	const perWriter = 400
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * perWriter)
			r := rand.New(rand.NewSource(int64(w)))
			order := r.Perm(perWriter)
			for _, i := range order {
				tr.Insert(base+int64(i), base+int64(i))
			}
			// Delete a subset again.
			for i := 0; i < perWriter/4; i++ {
				tr.Delete(base + int64(i*4))
			}
		}(w)
	}
	// Concurrent readers.
	stop := make(chan struct{})
	var rg sync.WaitGroup
	for rdr := 0; rdr < 4; rdr++ {
		rg.Add(1)
		go func(seed int64) {
			defer rg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := int64(r.Intn(writers * perWriter))
				if v, ok := tr.Lookup(k); ok && v != k {
					t.Errorf("lookup(%d) = %v", k, v)
					return
				}
			}
		}(int64(rdr))
	}
	wg.Wait()
	close(stop)
	rg.Wait()

	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	want := resident + writers*(perWriter-perWriter/4)
	if got := tr.Len(); got != want {
		t.Fatalf("len = %d, want %d", got, want)
	}
	for w := 0; w < writers; w++ {
		base := int64(w * perWriter)
		for i := 0; i < perWriter; i++ {
			k := base + int64(i)
			v, ok := tr.Lookup(k)
			deleted := i%4 == 0 && i/4 < perWriter/4
			if deleted {
				if ok {
					t.Fatalf("deleted key %d present", k)
				}
			} else if !ok || v != k {
				t.Fatalf("key %d = %v,%v", k, v, ok)
			}
		}
	}
}

// TestConcurrentOverlappingMix hammers the same key space from many
// goroutines; we only assert crash/race freedom and invariants (values are
// nondeterministic).
func TestConcurrentOverlappingMix(t *testing.T) { concurrentOverlappingMix(t, New(4)) }

func concurrentOverlappingMix(t *testing.T, tr *Tree) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				k := int64(r.Intn(200))
				switch r.Intn(4) {
				case 0:
					tr.Insert(k, k)
				case 1:
					tr.Delete(k)
				case 2:
					tr.Lookup(k)
				default:
					n := 0
					tr.Scan(func(int64, Value) bool { n++; return n < 20 })
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestTinyOrderNormalised(t *testing.T) {
	tr := New(1) // clamped to 3
	for k := int64(0); k < 30; k++ {
		tr.Insert(k, k)
	}
	if err := tr.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 30 {
		t.Fatalf("len = %d", tr.Len())
	}
	if s := tr.String(); len(s) == 0 || s[0] != '{' {
		t.Fatalf("string = %q", s)
	}
}
