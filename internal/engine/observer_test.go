package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"objectbase/internal/core"
	"objectbase/internal/objects"
)

// TestStatsOnlyRecording: under RecordStats the engine runs normally,
// history accessors report ErrHistoryDisabled, and the stats observer
// counts every event class.
func TestStatsOnlyRecording(t *testing.T) {
	en := New(None{}, Options{Recording: RecordStats})
	en.AddObject("c", objects.Counter(), nil)
	en.Register("c", "bump", func(c *Ctx) (core.Value, error) {
		return c.Do("c", "Add", int64(1))
	})

	const txns = 10
	for i := 0; i < txns; i++ {
		if _, err := en.Run("T", func(c *Ctx) (core.Value, error) {
			return c.Call("c", "bump")
		}); err != nil {
			t.Fatal(err)
		}
	}

	if h := en.History(); h != nil {
		t.Fatalf("History() = %v, want nil under RecordStats", h)
	}
	if _, err := en.HistoryErr(); !errors.Is(err, ErrHistoryDisabled) {
		t.Fatalf("HistoryErr() = %v, want ErrHistoryDisabled", err)
	}
	st := en.ObserverStats()
	// Each transaction is 2 executions (top + bump), 1 message, 1 step.
	if st.Execs != 2*txns || st.Messages != txns || st.Steps != txns || st.Aborts != 0 {
		t.Fatalf("ObserverStats = %+v", st)
	}
	if got := en.Commits(); got != txns {
		t.Fatalf("Commits = %d, want %d", got, txns)
	}

	// The state is still correct: recording mode must not change execution.
	if v := en.Object("c").StateSnapshot()["n"].(int64); v != txns {
		t.Fatalf("counter = %d, want %d", v, txns)
	}
}

// TestStatsOnlyParallelLanes: child-ID and lane allocation moved from the
// recorder onto Exec atomics; internal parallelism must still produce
// distinct children in stats mode (run under -race).
func TestStatsOnlyParallelLanes(t *testing.T) {
	en := New(None{}, Options{Recording: RecordStats})
	en.AddObject("c", objects.Counter(), nil)
	en.Register("c", "bump", func(c *Ctx) (core.Value, error) {
		return c.Do("c", "Add", int64(1))
	})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := en.Run("T", func(c *Ctx) (core.Value, error) {
				return nil, c.Parallel(
					func(c *Ctx) error { _, err := c.Call("c", "bump"); return err },
					func(c *Ctx) error { _, err := c.Call("c", "bump"); return err },
					func(c *Ctx) error { _, err := c.Call("c", "bump"); return err },
				)
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if v := en.Object("c").StateSnapshot()["n"].(int64); v != 12 {
		t.Fatalf("counter = %d, want 12", v)
	}
	if st := en.ObserverStats(); st.Messages != 12 {
		t.Fatalf("Messages = %d, want 12", st.Messages)
	}
}

// TestHistoryLimitFailsFast: a full-mode engine past its event cap
// aborts the recording transaction with ErrHistoryLimit (non-retriable)
// instead of growing without bound, rolls the refused step back, and
// withholds the now-incomplete history.
func TestHistoryLimitFailsFast(t *testing.T) {
	// Each transaction records 2 events (top exec + step); limit 5 admits
	// two transactions and breaks on the third's step.
	en := New(None{}, Options{HistoryLimit: 5, MaxRetries: NoRetry})
	en.AddObject("c", objects.Counter(), nil)

	bump := func(c *Ctx) (core.Value, error) { return c.Do("c", "Add", int64(1)) }
	var failed error
	committed := 0
	for i := 0; i < 10 && failed == nil; i++ {
		if _, err := en.Run("T", bump); err != nil {
			failed = err
		} else {
			committed++
		}
	}
	if failed == nil {
		t.Fatal("limit never fired")
	}
	if !errors.Is(failed, ErrHistoryLimit) {
		t.Fatalf("error = %v, want ErrHistoryLimit", failed)
	}
	if Retriable(failed) {
		t.Fatal("history-limit aborts must not be retriable")
	}
	if committed != 2 {
		t.Fatalf("committed = %d, want 2", committed)
	}
	// The refused step's mutation was rolled back under the latch.
	if v := en.Object("c").StateSnapshot()["n"].(int64); v != int64(committed) {
		t.Fatalf("counter = %d, want %d (refused step leaked)", v, committed)
	}
	// The history is incomplete from here on: withheld, not half-served.
	if _, err := en.HistoryErr(); !errors.Is(err, ErrHistoryLimit) {
		t.Fatalf("HistoryErr() = %v, want ErrHistoryLimit", err)
	}
	// And the breach is sticky: later transactions fail the same way.
	if _, err := en.Run("T", bump); !errors.Is(err, ErrHistoryLimit) {
		t.Fatalf("post-overflow Run = %v, want ErrHistoryLimit", err)
	}
}

// TestFullRecorderEventStats: the full recorder maintains the same
// counters as the stats observer, so harnesses can read them in either
// mode.
func TestFullRecorderEventStats(t *testing.T) {
	en := New(None{}, Options{})
	en.AddObject("c", objects.Counter(), nil)
	en.Register("c", "bump", func(c *Ctx) (core.Value, error) {
		return c.Do("c", "Add", int64(1))
	})
	for i := 0; i < 3; i++ {
		if _, err := en.Run("T", func(c *Ctx) (core.Value, error) {
			return c.Call("c", "bump")
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := en.ObserverStats()
	if st.Execs != 6 || st.Messages != 3 || st.Steps != 3 {
		t.Fatalf("ObserverStats = %+v", st)
	}
	h := en.History()
	if h == nil || len(h.Execs) != 6 {
		t.Fatalf("full history should still be available")
	}
}

// TestStatsCountsExactUnderContention: concurrent snapshot scans and
// writers under RecordStats, each event counted on its transaction's
// stripe. The observer's totals must equal what the transactions did —
// counted by the bodies themselves, so refreshed snapshots and fallbacks
// are included — with no increment lost to the striping. Run with -race.
func TestStatsCountsExactUnderContention(t *testing.T) {
	en := newDictEngine(Options{Recording: RecordStats, Versioning: true})
	var execs, messages, steps atomic.Int64
	step := func(c *Ctx, op string, args ...core.Value) (core.Value, error) {
		v, err := c.Do("d", op, args...)
		if err == nil {
			steps.Add(1)
		}
		return v, err
	}
	method := func(op string, arity int) MethodFunc {
		return func(c *Ctx) (core.Value, error) {
			execs.Add(1)
			messages.Add(1)
			return step(c, op, c.Args()[:arity]...)
		}
	}
	en.Register("d", "len", method("Len", 0))
	en.Register("d", "lookup", method("Lookup", 1))
	en.Register("d", "insert", method("Insert", 2))
	en.Register("d", "delete", method("Delete", 1))

	const clients, txns, keys = 4, 200, 32
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < txns; i++ {
				k := int64(w*keys + i%keys)
				var err error
				if i%4 == 3 {
					_, err = en.Run("write", func(c *Ctx) (core.Value, error) {
						execs.Add(1)
						if i%8 == 3 {
							return c.Call("d", "insert", k, k)
						}
						return c.Call("d", "delete", k)
					})
				} else {
					_, err = en.RunView(context.Background(), "scan", func(c *Ctx) (core.Value, error) {
						execs.Add(1)
						if _, err := c.Call("d", "len"); err != nil {
							return nil, err
						}
						for j := int64(0); j < 8; j++ {
							if _, err := c.Call("d", "lookup", (k+j)%(clients*keys)); err != nil {
								return nil, err
							}
						}
						return nil, nil
					})
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := en.ObserverStats()
	if st.Execs != execs.Load() || st.Messages != messages.Load() || st.Steps != steps.Load() {
		t.Fatalf("ObserverStats = %+v, the transactions made %d execs, %d messages, %d steps",
			st, execs.Load(), messages.Load(), steps.Load())
	}
	// Every committed scan is 10 executions, 9 messages and 9 steps, every
	// write 2, 1 and 1; refreshed attempts can only add to that.
	scans, writes := int64(clients*txns*3/4), int64(clients*txns/4)
	if st.Execs < 10*scans+2*writes || st.Messages < 9*scans+writes || st.Steps < 9*scans+writes {
		t.Fatalf("ObserverStats = %+v, below %d scans and %d writes", st, scans, writes)
	}
}
