package objectbase_test

// Coverage for the history recording modes surfaced at the façade:
// WithHistory(off) runs with the stats-only observer and withholds the
// oracle; WithHistoryLimit caps full-mode memory and fails fast.

import (
	"context"
	"errors"
	"testing"

	"objectbase"
)

func TestHistoryOff(t *testing.T) {
	db := openCounter(t, objectbase.WithHistory(objectbase.HistoryOff))
	if got := db.HistoryRecording(); got != objectbase.HistoryOff {
		t.Fatalf("HistoryRecording = %q", got)
	}

	const txns = 20
	for i := 0; i < txns; i++ {
		if _, err := db.Exec(context.Background(), "T", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
			return ctx.Call("c", "bump")
		}); err != nil {
			t.Fatal(err)
		}
	}

	// Execution and counters are unaffected by the recording mode.
	if st := db.Stats(); st.Commits != txns {
		t.Fatalf("Commits = %d, want %d", st.Commits, txns)
	}

	// The analysis surface reports the typed error instead of a nil map.
	if _, err := db.History(); !errors.Is(err, objectbase.ErrHistoryDisabled) {
		t.Fatalf("History: %v, want ErrHistoryDisabled", err)
	}
	if _, err := db.Check(); !errors.Is(err, objectbase.ErrHistoryDisabled) {
		t.Fatalf("Check: %v, want ErrHistoryDisabled", err)
	}
	if _, err := db.Verify(); !errors.Is(err, objectbase.ErrHistoryDisabled) {
		t.Fatalf("Verify: %v, want ErrHistoryDisabled", err)
	}
}

func TestHistoryFullIsDefault(t *testing.T) {
	db := openCounter(t)
	if got := db.HistoryRecording(); got != objectbase.HistoryFull {
		t.Fatalf("HistoryRecording = %q, want full by default", got)
	}
	if _, err := db.Exec(context.Background(), "T", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "bump")
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWithHistoryRejectsUnknownMode(t *testing.T) {
	if _, err := objectbase.Open(objectbase.WithHistory("sometimes")); err == nil {
		t.Fatal("want error for unknown history mode")
	}
}

func TestWithHistoryLimitFailsFast(t *testing.T) {
	// Each transaction records 4 events (2 execs, 1 message, 1 step):
	// limit 9 admits two transactions, the third overflows.
	db := openCounter(t, objectbase.WithHistoryLimit(9), objectbase.WithMaxRetries(-1))
	bump := func(ctx *objectbase.Ctx) (objectbase.Value, error) {
		return ctx.Call("c", "bump")
	}
	var failed error
	committed := int64(0)
	for i := 0; i < 10 && failed == nil; i++ {
		if _, err := db.Exec(context.Background(), "T", bump); err != nil {
			failed = err
		} else {
			committed++
		}
	}
	if !errors.Is(failed, objectbase.ErrHistoryLimit) {
		t.Fatalf("error = %v, want ErrHistoryLimit", failed)
	}
	if committed != 2 {
		t.Fatalf("committed = %d, want 2", committed)
	}
	if st := db.Stats(); st.Commits != committed {
		t.Fatalf("Stats.Commits = %d, want %d", st.Commits, committed)
	}
	// The truncated history is withheld with the same typed error.
	if _, err := db.History(); !errors.Is(err, objectbase.ErrHistoryLimit) {
		t.Fatalf("History: %v, want ErrHistoryLimit", err)
	}
	if _, err := db.Verify(); !errors.Is(err, objectbase.ErrHistoryLimit) {
		t.Fatalf("Verify: %v, want ErrHistoryLimit", err)
	}
}

func TestWithHistoryLimitValidation(t *testing.T) {
	if _, err := objectbase.Open(objectbase.WithHistoryLimit(0)); err == nil {
		t.Fatal("want error for non-positive limit")
	}
}

// TestCallerMayReuseArgSlice: Ctx.Do and Ctx.Call copy their arguments
// into storage the execution owns, so a caller that overwrites its slice
// once the transaction returned changes neither the recorded history nor
// its verdict. (When the history kept the caller's backing array, the Do
// form failed Verify — the replay of the committed step gave n=99 against
// the recorded final n=5 — and the Call form recorded message args [99].)
func TestCallerMayReuseArgSlice(t *testing.T) {
	for _, form := range []string{"Do", "Call"} {
		t.Run(form, func(t *testing.T) {
			db := openCounter(t)
			if err := db.RegisterMethod("c", "add", func(x *objectbase.Ctx) (objectbase.Value, error) {
				return x.Do("c", "Add", x.Arg(0))
			}); err != nil {
				t.Fatal(err)
			}
			args := []objectbase.Value{int64(5)}
			if _, err := db.Exec(context.Background(), "T", func(x *objectbase.Ctx) (objectbase.Value, error) {
				if form == "Do" {
					return x.Do("c", "Add", args...)
				}
				return x.Call("c", "add", args...)
			}); err != nil {
				t.Fatal(err)
			}
			args[0] = int64(99)
			if _, err := db.Verify(); err != nil {
				t.Fatalf("Verify after the caller reused its slice: %v", err)
			}
			h, err := db.History()
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for _, msgs := range h.Messages {
				for _, m := range msgs {
					if m == nil || m.Method != "add" {
						continue
					}
					sent++
					if len(m.Args) != 1 || m.Args[0] != int64(5) {
						t.Errorf("message %s.%s recorded args %v, want [5]", m.Object, m.Method, m.Args)
					}
				}
			}
			if want := map[string]int{"Do": 0, "Call": 1}[form]; sent != want {
				t.Errorf("%d add messages recorded, want %d", sent, want)
			}
			if got := counterValue(t, db); got != 5 {
				t.Errorf("counter = %d, want 5", got)
			}
		})
	}
}
