package engine

// Version publication on the copy-on-write dictionary: every version the
// engine publishes shares its tree with the live state, so these tests
// check, under concurrent writers, aborts and latch-free views, that a
// published version is never written again — and that the top-level id
// the pending-writer marks are keyed by is formatted once per attempt.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"objectbase/internal/btree"
	"objectbase/internal/core"
	"objectbase/internal/objects"
)

func newDictEngine(opts Options) *Engine {
	en := New(None{}, opts)
	en.AddObject("d", objects.Dictionary(), nil)
	return en
}

// ringVersions lists the versions a ring retains, newest first.
func ringVersions(r *core.VersionRing) []core.Version {
	var out []core.Version
	for seq := r.Newest().Seq; ; {
		v, ok := r.Lookup(seq)
		if !ok {
			return out
		}
		out = append(out, v)
		if v.Seq == 0 {
			return out
		}
		seq = v.Seq - 1
	}
}

// TestCOWVersionsFrozenUnderHammer: writers insert and delete in key
// ranges of their own (so the empty scheduler stays serialisable and an
// undo restores exactly what it overwrote), two steps per transaction so
// commits overlap and publish gaps, one transaction in eight aborting so
// undos run and repair them, while views read the ring latch-free and a
// sampler keeps versions long after the ring dropped them. At the end
// every version sampled or still retained must pass CheckInvariants and
// equal the replay of the committed steps below its watermark.
func TestCOWVersionsFrozenUnderHammer(t *testing.T) {
	const writers, txns, span = 4, 400, 40
	en := newDictEngine(Options{Versioning: true})
	obj := en.Object("d")
	errAbort := errors.New("deliberate abort")

	sampled := map[uint64]core.Version{}
	sample := func() {
		for _, v := range ringVersions(obj.Versions()) {
			if !v.Gap {
				sampled[v.Seq] = v
			}
		}
	}
	var done atomic.Bool
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // sampler
		defer bg.Done()
		for !done.Load() {
			sample()
		}
	}()
	go func() { // views: Len and lookups at one snapshot
		defer bg.Done()
		for !done.Load() {
			_, err := en.RunView(context.Background(), "scan", func(ctx *Ctx) (core.Value, error) {
				if _, err := ctx.Do("d", "Len"); err != nil {
					return nil, err
				}
				for k := int64(0); k < 8; k++ {
					if _, err := ctx.Do("d", "Lookup", k*span/2); err != nil {
						return nil, err
					}
				}
				return nil, nil
			})
			if err != nil {
				t.Errorf("view: %v", err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := int64(w * span)
			for i := 0; i < txns; i++ {
				k1, k2 := base+int64(i*7%span), base+int64(i*11%span)
				_, err := en.Run("churn", func(ctx *Ctx) (core.Value, error) {
					if _, err := ctx.Do("d", "Insert", k1, int64(i)); err != nil {
						return nil, err
					}
					op, args := "Delete", []core.Value{k2}
					if i%3 == 0 {
						op, args = "Insert", []core.Value{k2, int64(-i)}
					}
					if _, err := ctx.Do("d", op, args...); err != nil {
						return nil, err
					}
					if i%8 == 5 {
						return nil, errAbort
					}
					return nil, nil
				})
				if err != nil && !errors.Is(err, errAbort) {
					t.Errorf("writer %d txn %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	done.Store(true)
	bg.Wait()
	sample()

	steps := en.History().EffectiveSteps("d")
	want := map[int64]core.Value{}
	next := 0 // steps[:next] are replayed into want
	seqs := make([]uint64, 0, len(sampled))
	for s := range sampled {
		seqs = append(seqs, s)
	}
	// Ascending watermark order, so one forward replay serves them all.
	slices.Sort(seqs)
	for _, s := range seqs {
		v := sampled[s]
		for ; next < len(steps) && steps[next].ObjSeq < v.ObjSeq; next++ {
			switch st := steps[next]; {
			case st.Snap:
			case st.Info.Op == "Insert":
				want[st.Info.Args[0].(int64)] = st.Info.Args[1]
			case st.Info.Op == "Delete":
				delete(want, st.Info.Args[0].(int64))
			}
		}
		tr := v.State["tree"].(*btree.Tree)
		if err := tr.CheckInvariants(); err != nil {
			t.Fatalf("version %d: %v", s, err)
		}
		ks, vs := tr.Export()
		if len(ks) != len(want) {
			t.Fatalf("version %d (watermark %d) holds %d keys, replay %d", s, v.ObjSeq, len(ks), len(want))
		}
		for i, k := range ks {
			if want[k] != vs[i] {
				t.Fatalf("version %d: key %d = %v, replay %v", s, k, vs[i], want[k])
			}
		}
	}
	if len(seqs) < 16 {
		t.Fatalf("only %d versions checked", len(seqs))
	}
	t.Logf("checked %d versions (published %d, gaps %d, repairs %d)", len(seqs), en.VersionsPublished(), en.VersionGaps(), en.VersionRepairs())
}

// TestTopKeyFormattedOncePerAttempt: under versioning the first mutating
// step formats the top-level id for its pending-writer mark; later steps,
// the commit's publication and undos reuse it. Pinned twice: nothing after
// the first step allocates for the key, and a whole committed one-step
// dictionary write allocates what its publication does plus one formatted
// id more than the same write on a non-versioning engine (which formats
// none).
func TestTopKeyFormattedOncePerAttempt(t *testing.T) {
	en := newDictEngine(Options{Versioning: true, Recording: RecordStats})
	var sink string
	if _, err := en.Run("w", func(ctx *Ctx) (core.Value, error) {
		if _, err := ctx.Do("d", "Insert", int64(1), int64(1)); err != nil {
			return nil, err
		}
		e := ctx.Exec()
		if e.txn.key != e.id.Key() {
			return nil, fmt.Errorf("cached key %q, id %s", e.txn.key, e.id)
		}
		if n := testing.AllocsPerRun(100, func() { sink = e.topKey() }); n != 0 {
			return nil, fmt.Errorf("topKey after the first step allocates %v", n)
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	_ = sink

	if testing.AllocsPerRun(10, func() { ordAcquire(ordRankObject, "probe"); ordRelease(ordRankObject, "probe") }) > 0 {
		t.Skip("the ordercheck witness allocates per latch; the whole-transaction pin needs the plain build")
	}
	// Whole transactions: versioning adds the publication (a ring push,
	// an O(1) clone, next time a path copy) and one formatted id.
	write := func(en *Engine) func() {
		v := core.Value(int64(7))
		return func() {
			if _, err := en.Run("w", func(ctx *Ctx) (core.Value, error) {
				return ctx.Do("d", "Insert", int64(1), v)
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	keyAllocs := testing.AllocsPerRun(100, func() { sink = core.ExecID{12345}.Key() })
	plain := testing.AllocsPerRun(200, write(newDictEngine(Options{Recording: RecordStats})))
	versioned := testing.AllocsPerRun(200, write(en))
	// Publication of a one-leaf dictionary allocates 7: the clone's Tree
	// and State map, the ring and its slice, and the next write's leaf
	// copy (node, keys, values). The touched-object list lives in the
	// transaction state. A second formatting site would show as keyAllocs
	// more.
	const publication = 7
	if extra := versioned - plain; extra > publication+keyAllocs {
		t.Errorf("a committed write allocates %v under versioning, %v without: %v extra, want <= %v + one formatted id (%v)",
			versioned, plain, extra, publication, keyAllocs)
	}
}
