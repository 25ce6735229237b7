package load

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"objectbase"
	"objectbase/internal/engine"
)

// Options configures one driven run: a scenario × scheduler cell.
type Options struct {
	Scenario  *Scenario
	Scheduler string
	Knobs     Knobs
	// Verify runs the serialisability oracle (DB.Verify) on the
	// quiescent DB after the drive and folds the verdict into the
	// Result. The oracle replays the whole history, so sample it rather
	// than paying for it on every cell. Requires full history recording.
	Verify bool
	// History selects the recording mode for the run: HistoryFull keeps
	// the whole history (required for Verify), HistoryOff swaps in the
	// stats-only observer — the measurement configuration, since the
	// recorder is pure overhead on unverified load runs. Empty means
	// auto: full when Verify is set, off otherwise.
	History objectbase.HistoryMode
	// Trace opens the DB with the flight recorder on
	// (objectbase.WithTracing) and folds the per-phase latency summaries
	// into Result.Phases (the report's "phases" block); the raw spans and
	// recorder epoch ride along in Result.Spans/TraceEpoch (not
	// serialised) for trace export. Enabled tracing costs a few percent
	// of throughput, so traced cells are not comparable to untraced ones
	// — the cell key records the flag.
	Trace bool
	// Open passes extra options (retry policy, lock timeout) through to
	// objectbase.Open.
	Open []objectbase.Option
}

// historyMode resolves the run's recording mode and rejects the one
// combination that cannot work: the oracle needs the history.
func (o Options) historyMode() (objectbase.HistoryMode, error) {
	mode := o.History
	if mode == "" {
		if o.Verify {
			mode = objectbase.HistoryFull
		} else {
			mode = objectbase.HistoryOff
		}
	}
	if o.Verify && mode == objectbase.HistoryOff {
		return "", errors.New("load: Verify requires full history recording (History=off)")
	}
	return mode, nil
}

// Run executes one load run: open a DB under the scheduler, set the
// scenario up, drive it with Knobs.Clients concurrent clients (closed
// loop, or token-bucket open loop when Knobs.Rate is set), and merge the
// per-client recorders into a Result.
//
// Soft failures — transactions that exhaust their retries under
// contention — are counted in Result.Errors and the run continues; hard
// failures (programming errors such as an unknown method) cancel the
// remaining clients and fail the run. Cancelling ctx stops the run at
// the next transaction boundary and returns ctx's error.
func Run(ctx context.Context, opts Options) (*Result, error) {
	sc := opts.Scenario
	if sc == nil {
		return nil, errors.New("load: Run: nil scenario")
	}
	if opts.Scheduler == "" {
		opts.Scheduler = objectbase.DefaultScheduler
	}
	k := opts.Knobs.withDefaults(sc.Defaults)
	if err := k.validate(); err != nil {
		return nil, err
	}
	mode, err := opts.historyMode()
	if err != nil {
		return nil, err
	}

	openOpts := []objectbase.Option{
		objectbase.WithScheduler(opts.Scheduler),
		objectbase.WithHistory(mode),
	}
	if k.UseView {
		// The snapshot fast path needs version publication.
		openOpts = append(openOpts, objectbase.WithReadOnly())
	}
	if k.Shards > 1 {
		openOpts = append(openOpts, objectbase.WithShards(k.Shards))
	}
	if opts.Trace {
		openOpts = append(openOpts, objectbase.WithTracing())
	}
	db, err := objectbase.Open(append(openOpts, opts.Open...)...)
	if err != nil {
		return nil, fmt.Errorf("load: %w", err)
	}
	if err := sc.Setup(db, k); err != nil {
		return nil, fmt.Errorf("load: scenario %s setup: %w", sc.Name, err)
	}
	base := db.Stats()

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if k.Duration > 0 {
		var cancelT context.CancelFunc
		runCtx, cancelT = context.WithTimeout(runCtx, k.Duration)
		defer cancelT()
	}
	var bucket *tokenBucket
	if k.Rate > 0 {
		bucket = newTokenBucket(k.Rate, float64(k.Burst))
	}

	recs := make([]*Recorder, k.Clients)
	hard := make([]error, k.Clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < k.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(k.Seed*1_000_003 + int64(c)))
			ops := sc.Ops(k, c, r)
			rec := newRecorder()
			recs[c] = rec
			for i := 0; k.Duration > 0 || i < k.Txns; i++ {
				if runCtx.Err() != nil {
					return
				}
				if bucket != nil && !bucket.wait(runCtx) {
					return
				}
				op := ops(i)
				t0 := time.Now()
				var err error
				switch {
				case k.UseView && op.ReadOnly:
					_, err = db.View(runCtx, op.Name, op.Fn)
				case len(op.Objects) > 0:
					_, err = db.ExecTouching(runCtx, op.Name, op.Objects, op.Fn)
				default:
					_, err = db.Exec(runCtx, op.Name, op.Fn)
				}
				if err != nil {
					if runCtx.Err() != nil {
						// Shutdown (duration elapsed, sibling failure, or
						// caller cancellation), not a workload outcome.
						return
					}
					if engine.Retriable(err) {
						// Retries exhausted under contention: a measured
						// outcome, not a harness failure.
						rec.observe(op.Name, 0, err)
						continue
					}
					hard[c] = fmt.Errorf("load: scenario %s client %d txn %d: %w", sc.Name, c, i, err)
					cancel()
					return
				}
				rec.observe(op.Name, time.Since(t0), nil)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	if err := errors.Join(hard...); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	merged := mergeRecorders(recs)
	res := newResult(sc, opts.Scheduler, k, merged, elapsed, db.Stats().Sub(base))
	res.History = string(mode)
	if opts.Trace {
		res.Trace = true
		res.Phases = phaseStats(db.Metrics())
		res.Spans, res.TraceEpoch = db.TraceSnapshot()
	}
	if opts.Verify {
		_, verr := db.Verify()
		if verr == nil {
			// The serialisability oracle passed; the commutativity witness
			// rides the same verified cell: differentially re-check the
			// declared-commuting pairs of every schema this cell registered
			// (Definition 3 in both orders, undo closures included).
			for _, schema := range db.Schemas() {
				if _, werr := objectbase.SampleCommutativity(schema, k.Seed, 200); werr != nil {
					verr = fmt.Errorf("commutativity witness: %w", werr)
					break
				}
			}
		}
		ok := verr == nil
		// Legality is an engine invariant, not a scheduler guarantee:
		// report it separately so harnesses that tolerate anomalies from
		// the "none" control can still treat its violation as fatal.
		legal := verr == nil || !errors.Is(verr, objectbase.ErrNotLegal)
		res.Verified = &ok
		res.Legal = &legal
		if verr != nil {
			res.Verdict = truncate(verr.Error(), 300)
		} else {
			res.Verdict = "serialisable"
		}
	}
	return res, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// tokenBucket paces open-loop clients: tokens accrue at rate per second
// up to burst, and each transaction spends one. It is time-based (no
// refill goroutine); waiters sleep until their token is due.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64
	burst  float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate, burst float64) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	return &tokenBucket{rate: rate, burst: burst, tokens: burst, last: time.Now()}
}

// wait blocks until a token is available or ctx is done; it reports
// whether a token was taken.
func (b *tokenBucket) wait(ctx context.Context) bool {
	for {
		b.mu.Lock()
		now := time.Now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
		if b.tokens >= 1 {
			b.tokens--
			b.mu.Unlock()
			return true
		}
		wait := time.Duration((1 - b.tokens) / b.rate * float64(time.Second))
		b.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return false
		}
	}
}
