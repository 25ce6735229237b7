package objectbase

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"time"

	"objectbase/internal/cc"
	"objectbase/internal/core"
	"objectbase/internal/engine"
	"objectbase/internal/graph"
	"objectbase/internal/lock"
	"objectbase/internal/obs"
	"objectbase/internal/shard"
)

// The façade re-exports the model's vocabulary so client code needs no
// internal imports: values and states are the object-base data, a Schema
// is an object type (operations plus conflict relation), a MethodFunc is a
// method body programming against Ctx, and History/Verdict are what the
// oracle consumes and produces.
type (
	// Value is any value stored in or returned from an object base.
	Value = core.Value
	// State is one object's state: a bag of named variables.
	State = core.State
	// Schema is an object type: its operations and their conflict
	// relation. Build one with core's constructors via the bundled object
	// library (Counter, Register, Account, Queue, Set, Dictionary) or
	// supply your own.
	Schema = core.Schema
	// Ctx is the handle a method body receives: Do issues local steps,
	// Call sends messages (invoking child method executions), Parallel
	// runs bodies concurrently within the execution, Abort aborts
	// voluntarily.
	Ctx = engine.Ctx
	// MethodFunc is the body of a method or transaction.
	MethodFunc = engine.MethodFunc
	// History is the full recorded history h = (E, <, B, S) of a run.
	History = core.History
	// Verdict is the oracle's judgement of a history.
	Verdict = graph.Verdict
	// Metrics is a snapshot of the DB's metrics registry: named counters
	// and gauges, plus per-phase latency statistics when tracing is on.
	// See DB.Metrics.
	Metrics = obs.Metrics
	// HistStat is the per-phase latency summary inside Metrics.Phases.
	HistStat = obs.HistStat
	// SpanRecord is one flight-recorder phase span or instant event.
	// See DB.TraceSnapshot.
	SpanRecord = obs.SpanRecord
)

// DefaultScheduler is the scheduler Open uses when none is requested:
// Moss's nested two-phase locking at operation granularity — the paper's
// workhorse, deadlock-detected and strict.
const DefaultScheduler = "n2pl-op"

// Schedulers returns the names of all registered concurrency-control
// schedulers, sorted. Any of them can be passed to WithScheduler.
func Schedulers() []string { return cc.SchedulerNames() }

// HistoryMode selects how much of the history h = (E, <, B, S) a DB
// retains — see WithHistory.
type HistoryMode string

const (
	// HistoryFull records the complete history: History, Check and
	// Verify work, at the cost of one recorder event per execution,
	// step, and message, retained for the life of the DB (cap it with
	// WithHistoryLimit for long runs).
	HistoryFull HistoryMode = "full"
	// HistoryOff keeps only atomic event counters: bounded memory and a
	// near-zero-cost hot path, but History, Check and Verify return
	// ErrHistoryDisabled. The load harness defaults to this mode for
	// unverified runs.
	HistoryOff HistoryMode = "off"
)

// ErrHistoryDisabled is wrapped by History/Check/Verify errors on a DB
// opened with WithHistory(HistoryOff): there is no history to analyse.
var ErrHistoryDisabled = engine.ErrHistoryDisabled

// ErrHistoryLimit is wrapped by transaction and history-accessor errors
// once a WithHistoryLimit cap is exceeded: recording fails fast instead
// of growing without bound, and the (incomplete) history is withheld.
var ErrHistoryLimit = engine.ErrHistoryLimit

type config struct {
	scheduler    string
	maxRetries   int
	retryBackoff time.Duration
	lockTimeout  time.Duration
	recording    engine.RecordingMode
	historyLimit int
	versioning   bool
	shards       int
	tracing      bool
	debugAddr    string
}

// Option configures Open.
type Option func(*config) error

// WithScheduler selects the concurrency-control scheduler by registered
// name (see Schedulers). Open fails on an unknown name.
func WithScheduler(name string) Option {
	return func(c *config) error {
		if name == "" {
			return errors.New("objectbase: WithScheduler: empty name")
		}
		c.scheduler = name
		return nil
	}
}

// WithMaxRetries bounds automatic retries of transactions aborted for
// synchronisation reasons (deadlock victim, timestamp rejection, failed
// certification, cascade). n <= 0 disables retries; the default is 100.
func WithMaxRetries(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			c.maxRetries = engine.NoRetry
		} else {
			c.maxRetries = n
		}
		return nil
	}
}

// WithRetryBackoff sets the base backoff between retries (jittered,
// doubling up to 64x). The default is 100µs.
func WithRetryBackoff(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("objectbase: WithRetryBackoff: non-positive duration %v", d)
		}
		c.retryBackoff = d
		return nil
	}
}

// WithLockTimeout bounds lock waits for lock-based schedulers (the n2pl-*
// pair and the gemstone baseline); the nested-aware deadlock detector
// usually resolves cycles long before it expires. The default is 10s.
// Schedulers that do not lock ignore it.
func WithLockTimeout(d time.Duration) Option {
	return func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("objectbase: WithLockTimeout: non-positive duration %v", d)
		}
		c.lockTimeout = d
		return nil
	}
}

// WithHistory selects the history recording mode. HistoryFull (the
// default) feeds every execution event through the full recorder so the
// oracle can verify the run; HistoryOff swaps in a stats-only observer —
// atomic counters, bounded memory — and History/Check/Verify return
// ErrHistoryDisabled. Every scheduler runs correctly under either mode
// (none of them reads the history; the modular certifier keeps its own
// access sets), but verification is only possible under HistoryFull.
func WithHistory(mode HistoryMode) Option {
	return func(c *config) error {
		switch mode {
		case HistoryFull:
			c.recording = engine.RecordFull
		case HistoryOff:
			c.recording = engine.RecordStats
		default:
			return fmt.Errorf("objectbase: WithHistory: unknown mode %q (want %q or %q)", mode, HistoryFull, HistoryOff)
		}
		return nil
	}
}

// WithReadOnly enables the snapshot read-only fast path: every committing
// transaction publishes the committed state of the objects it mutated
// into a small per-object ring of versions (MVCC), and DB.View serves
// read-only transactions from those versions — no locks, no scheduler,
// no waiting behind writers. The cost is one state clone per mutated
// object per commit, so the path is opt-in; View on a DB opened without
// WithReadOnly fails with ErrViewDisabled.
func WithReadOnly() Option {
	return func(c *config) error {
		c.versioning = true
		return nil
	}
}

// WithShards partitions the object space across n independent engine
// instances, each with its own scheduler, lock manager, and version
// rings. Objects are placed by a deterministic directory (a hash of the
// object name); transactions that stay within one shard run at native
// engine speed, and transactions spanning shards commit atomically under
// a shard-ordered two-phase protocol that keeps the whole space
// serialisable and deadlock-free across engines (see the README's
// Sharding section). History, Check and Verify stitch the per-shard
// histories into one, so the oracle certifies a sharded run exactly like
// a single-engine one. n <= 1 means no sharding (the default).
//
// Declaring a transaction's object set up front (Txn does it
// automatically; ExecTouching takes it explicitly) lets a cross-shard
// transaction acquire its shards in directory order from the start
// instead of discovering them optimistically.
func WithShards(n int) Option {
	return func(c *config) error {
		if n < 1 {
			return fmt.Errorf("objectbase: WithShards: non-positive shard count %d", n)
		}
		c.shards = n
		return nil
	}
}

// WithHistoryLimit caps a HistoryFull DB at n recorded events (method
// executions + local steps + messages). History memory otherwise grows
// for the life of the DB — every event is retained for the oracle — so
// a long-running process that insists on full recording should bound
// it. When the cap would be exceeded, the recording transaction aborts
// with an error wrapping ErrHistoryLimit (fail fast, not OOM), and
// History/Check/Verify report the same: a truncated history would
// produce meaningless verdicts. Ignored under HistoryOff.
func WithHistoryLimit(n int) Option {
	return func(c *config) error {
		if n <= 0 {
			return fmt.Errorf("objectbase: WithHistoryLimit: non-positive limit %d", n)
		}
		c.historyLimit = n
		return nil
	}
}

// WithTracing enables the transaction flight recorder: every top-level
// transaction's attempt is decomposed into phase spans (admit,
// schedule-wait, lock-wait, execute, commit-barrier, publish,
// retry-backoff, ...) recorded into lock-free per-client ring buffers
// and per-phase latency histograms. Drain spans with DB.TraceSnapshot
// (newest ~256k spans; older ones are overwritten, the histograms keep
// counting) and read the aggregates with DB.Metrics. Disabled, the
// instrumentation costs one nil check per phase; the default is off.
//
// Setting the environment variable OBJECTBASE_TRACE=1 enables tracing
// for every Open in the process — the hook CI uses to run the test
// suite with the recorder on.
func WithTracing() Option {
	return func(c *config) error {
		c.tracing = true
		return nil
	}
}

// WithDebugServer starts a live introspection HTTP server on addr
// (":0" picks a free port — read it back with DB.DebugAddr) serving
//
//	/metrics   — the metrics registry in Prometheus text format
//	/waitsfor  — the live waits-for graph as a Graphviz DOT digraph,
//	             merged across the shards' lock managers (a deadlock
//	             ring spanning shards shows only in the merged graph)
//	/trace     — the flight-recorder contents as Chrome trace_event
//	             JSON (open in chrome://tracing or Perfetto)
//	/debug/pprof/ — the standard runtime profiles
//
// WithDebugServer implies WithTracing. Shut the server down with
// DB.Close.
func WithDebugServer(addr string) Option {
	return func(c *config) error {
		if addr == "" {
			return errors.New("objectbase: WithDebugServer: empty address")
		}
		c.tracing = true
		c.debugAddr = addr
		return nil
	}
}

// DB is an open object base: a set of objects (schema + state + methods)
// executing nested transactions under one concurrency-control scheduler,
// with the full history recorded for verification.
//
// A DB is safe for concurrent use. Populate it first (RegisterObject,
// RegisterMethod), then run transactions (Exec, Txn) from any number of
// goroutines; History and Verify want a quiescent DB (no transaction in
// flight).
type DB struct {
	scheduler string
	eng       *engine.Engine   // engines[0]
	engines   []*engine.Engine // one per shard; length 1 unsharded
	space     *shard.Space     // nil unless WithShards(n > 1)

	tr  *obs.Tracer   // nil unless WithTracing (or OBJECTBASE_TRACE=1)
	reg *obs.Registry // always built; phase histograms only when tracing
	dbg *obs.Server   // nil unless WithDebugServer

	// regMu serialises registration: the duplicate-object check and the
	// engine insertion must be atomic against concurrent registrations.
	regMu sync.Mutex
	// schemas holds the distinct schema instances registered so far, in
	// first-registration order (see Schemas).
	schemas []*Schema
}

// Open creates an object base. With no options it runs the default
// scheduler (DefaultScheduler) with default retry policy.
func Open(opts ...Option) (*DB, error) {
	cfg := config{scheduler: DefaultScheduler}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if !cfg.tracing && os.Getenv("OBJECTBASE_TRACE") == "1" {
		cfg.tracing = true
	}
	var tr *obs.Tracer
	if cfg.tracing {
		tr = obs.NewTracer()
	}
	engOpts := engine.Options{
		MaxRetries:   cfg.maxRetries,
		RetryBackoff: cfg.retryBackoff,
		Recording:    cfg.recording,
		HistoryLimit: cfg.historyLimit,
		Versioning:   cfg.versioning,
		Tracer:       tr,
	}
	var db *DB
	if cfg.shards > 1 {
		engines, err := cc.NewShardedEngines(cfg.scheduler, cfg.shards, cc.Config{LockTimeout: cfg.lockTimeout}, engOpts)
		if err != nil {
			return nil, fmt.Errorf("objectbase: %w", err)
		}
		db = &DB{
			scheduler: cfg.scheduler,
			eng:       engines[0],
			engines:   engines,
			space:     shard.NewSpace(engines),
		}
	} else {
		sched, err := cc.NewByName(cfg.scheduler, cc.Config{LockTimeout: cfg.lockTimeout})
		if err != nil {
			return nil, fmt.Errorf("objectbase: %w", err)
		}
		eng := cc.NewEngine(sched, engOpts)
		db = &DB{scheduler: cfg.scheduler, eng: eng, engines: []*engine.Engine{eng}}
	}
	db.tr = tr
	if tr != nil {
		if db.space != nil {
			db.space.SetTracer(tr)
		}
		// Lock waits are recorded inside the managers; wire the recorder
		// into every distinct one (per-shard managers each, a space-shared
		// scheduler's exactly once).
		for _, sched := range db.distinctSchedulers() {
			if lm, ok := sched.(interface{ Manager() *lock.Manager }); ok {
				lm.Manager().SetTracer(tr)
			}
		}
	}
	db.buildRegistry()
	if cfg.debugAddr != "" {
		srv, err := obs.StartServer(obs.ServerOptions{
			Addr:     cfg.debugAddr,
			Registry: db.reg,
			WaitsFor: db.waitsForDOT,
			Trace: func() ([]obs.SpanRecord, time.Time) {
				return db.tr.Snapshot(), db.tr.Epoch()
			},
		})
		if err != nil {
			return nil, fmt.Errorf("objectbase: debug server: %w", err)
		}
		db.dbg = srv
	}
	return db, nil
}

// Scheduler returns the registered name of the DB's scheduler.
func (db *DB) Scheduler() string { return db.scheduler }

// Shards returns the number of shards the object space is partitioned
// into (1 when unsharded).
func (db *DB) Shards() int { return len(db.engines) }

// object looks an object up in its home engine.
func (db *DB) object(name string) *engine.Object {
	if db.space != nil {
		return db.space.Object(name)
	}
	return db.eng.Object(name)
}

// HistoryRecording returns the DB's history mode ("full" or "off").
func (db *DB) HistoryRecording() HistoryMode {
	if db.eng.Recording() == engine.RecordStats {
		return HistoryOff
	}
	return HistoryFull
}

// RegisterObject creates an object: an instance of the schema with the
// given initial state (the schema's NewState when nil). Object names are
// unique per DB.
func (db *DB) RegisterObject(name string, schema *Schema, initial State) error {
	if name == "" {
		return errors.New("objectbase: RegisterObject: empty object name")
	}
	if schema == nil {
		return fmt.Errorf("objectbase: RegisterObject %q: nil schema", name)
	}
	db.regMu.Lock()
	defer db.regMu.Unlock()
	if db.object(name) != nil {
		return fmt.Errorf("objectbase: object %q already registered", name)
	}
	db.registrar().AddObject(name, schema, initial)
	known := false
	for _, s := range db.schemas {
		if s == schema {
			known = true
			break
		}
	}
	if !known {
		db.schemas = append(db.schemas, schema)
	}
	return nil
}

// Schemas returns the distinct schema instances registered on the DB, in
// first-registration order. Verification harnesses sweep it to run
// per-schema witnesses (e.g. SampleCommutativity) over exactly the object
// types a workload exercised.
func (db *DB) Schemas() []*Schema {
	db.regMu.Lock()
	defer db.regMu.Unlock()
	return append([]*Schema(nil), db.schemas...)
}

// RegisterMethod installs a method on a registered object. Methods are
// what transactions invoke; their bodies issue local steps on the object
// (Ctx.Do) and messages to other objects (Ctx.Call).
func (db *DB) RegisterMethod(object, method string, fn MethodFunc) error {
	db.regMu.Lock()
	defer db.regMu.Unlock()
	if db.object(object) == nil {
		return fmt.Errorf("objectbase: RegisterMethod %s.%s: unknown object %q", object, method, object)
	}
	if method == "" {
		return fmt.Errorf("objectbase: RegisterMethod on %q: empty method name", object)
	}
	if fn == nil {
		return fmt.Errorf("objectbase: RegisterMethod %s.%s: nil body", object, method)
	}
	db.registrar().Register(object, method, fn)
	return nil
}

// Exec runs fn as one top-level transaction named name (the name labels
// the history; it need not be unique). Synchronisation aborts are retried
// automatically with fresh transaction identities, up to the configured
// maximum, with jittered exponential backoff.
//
// The context is honoured throughout: once ctx is done the transaction
// aborts (its effects undone) at the next step, message, or commit
// boundary, retry backoff sleeps are interrupted, and the returned error
// unwraps to ctx.Err().
func (db *DB) Exec(ctx context.Context, name string, fn MethodFunc, args ...Value) (Value, error) {
	if db.space != nil {
		return db.space.Exec(ctx, name, fn, nil, args...)
	}
	return db.eng.RunCtx(ctx, name, fn, args...)
}

// ExecTouching is Exec with the transaction's object access set declared
// up front. On an unsharded DB the declaration is ignored; on a sharded
// one it lets a transaction whose objects span shards acquire its shards
// in directory order from the start, instead of paying one optimistic
// discovery abort to learn the set. The declaration is a hint: touching
// an undeclared object is still correct (the protocol falls back to
// discovery), it just costs the restart the hint would have avoided.
func (db *DB) ExecTouching(ctx context.Context, name string, touches []string, fn MethodFunc, args ...Value) (Value, error) {
	if db.space != nil {
		return db.space.Exec(ctx, name, fn, touches, args...)
	}
	return db.eng.RunCtx(ctx, name, fn, args...)
}

// ErrViewDisabled is wrapped by DB.View errors on a DB opened without
// WithReadOnly: no committed versions are published, so there is no
// consistent snapshot to read.
var ErrViewDisabled = engine.ErrViewDisabled

// ErrReadOnlyWrite is wrapped by the abort that fails a View transaction
// whose body issued a mutating step. The classification is the schema's:
// operations not declared ReadOnly mutate the object.
var ErrReadOnlyWrite = engine.ErrReadOnlyWrite

// ErrTxnFinished is wrapped by the (final) abort a step or message gets
// once its transaction has committed or aborted: the call came from a
// goroutine a method body started and did not wait for.
var ErrTxnFinished = engine.ErrTxnFinished

// View runs fn as a read-only transaction against a consistent committed
// snapshot (requires WithReadOnly). The body uses the same Ctx API as
// Exec — Call, Do, Parallel — but every step is served from the MVCC
// version ring of its object at one global snapshot: View transactions
// never enter the lock manager or the scheduler, never block writers, and
// observe no torn state across objects. A mutating step aborts the
// transaction with an error wrapping ErrReadOnlyWrite.
//
// When a snapshot momentarily cannot be resolved (overlapping writers hold
// uncommitted effects in every recent version of some object), View
// refreshes its snapshot and retries, then falls back to the ordinary
// locked path with read-only enforcement — the semantics are unchanged,
// only the cost. Stats().ViewFallbacks counts how often that happened.
// View transactions appear in the history like any other transaction, so
// Verify covers them.
func (db *DB) View(ctx context.Context, name string, fn MethodFunc, args ...Value) (Value, error) {
	if db.space != nil {
		// Publication sequences are per shard: the view pins the shard of
		// its first touched object; views spanning shards fall back to
		// the locked read-only path.
		return db.space.View(ctx, name, fn, args...)
	}
	return db.eng.RunView(ctx, name, fn, args...)
}

// Call names one method invocation for Txn.
type Call struct {
	Object string
	Method string
	Args   []Value
}

// Txn runs the calls sequentially as one top-level transaction and
// returns their results. It is the declarative convenience over Exec for
// transactions that are a straight-line sequence of method invocations;
// if any call's method execution aborts, the whole transaction aborts.
func (db *DB) Txn(ctx context.Context, name string, calls ...Call) ([]Value, error) {
	if len(calls) == 0 {
		return nil, errors.New("objectbase: Txn: no calls")
	}
	// The declarative form knows its object set: declare it so a sharded
	// DB can order its shard acquisition up front.
	touches := make([]string, 0, len(calls))
	for _, call := range calls {
		touches = append(touches, call.Object)
	}
	ret, err := db.ExecTouching(ctx, name, touches, func(c *Ctx) (Value, error) {
		results := make([]Value, len(calls))
		for i, call := range calls {
			v, err := c.Call(call.Object, call.Method, call.Args...)
			if err != nil {
				return nil, err
			}
			results[i] = v
		}
		return results, nil
	})
	if err != nil {
		return nil, err
	}
	return ret.([]Value), nil
}

// Retry returns an error a method body can use to abort the enclosing
// transaction and have the engine retry it with a fresh identity (subject
// to the configured maximum) — for application-level conflict detection
// the scheduler cannot see.
func Retry(reason string) error {
	return &engine.AbortError{Reason: "retry: " + reason, Retriable: true}
}

// Stats is a snapshot of a DB's execution counters. The scheduler-specific
// fields are zero for schedulers they do not apply to.
type Stats struct {
	// Commits, Aborts, Retries count top-level transaction outcomes:
	// committed transactions, aborted attempts, and retried attempts.
	Commits int64
	Aborts  int64
	Retries int64
	// LockWaits and Deadlocks count blocking lock acquisitions and
	// detected deadlocks (lock-based schedulers: n2pl-*, gemstone).
	LockWaits int64
	Deadlocks int64
	// CertValidated and CertRejected count certification outcomes
	// (certifying schedulers: modular).
	CertValidated int64
	CertRejected  int64
	// ViewCommits counts committed snapshot (View) transactions — a
	// subset of Commits; ViewFallbacks counts View transactions that
	// could not resolve a snapshot and ran on the locked path instead.
	ViewCommits   int64
	ViewFallbacks int64
	// SerialRestarts and TwoPCRestarts count attempts of sharded
	// transactions restarted to grow their shard set: declared-set
	// serial transactions that touched an undeclared shard, and
	// cross-shard two-phase commits that discovered a member late
	// (sharded DBs only). Restarts are routing, not workload outcomes:
	// they are counted here, not in Aborts.
	SerialRestarts int64
	TwoPCRestarts  int64
}

// Sub returns the counter deltas s - prev: the activity between two
// snapshots. Drivers use it to carve a measurement window (excluding
// setup, warmup, or earlier runs) out of the DB's cumulative counters.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Commits:        s.Commits - prev.Commits,
		Aborts:         s.Aborts - prev.Aborts,
		Retries:        s.Retries - prev.Retries,
		LockWaits:      s.LockWaits - prev.LockWaits,
		Deadlocks:      s.Deadlocks - prev.Deadlocks,
		CertValidated:  s.CertValidated - prev.CertValidated,
		CertRejected:   s.CertRejected - prev.CertRejected,
		ViewCommits:    s.ViewCommits - prev.ViewCommits,
		ViewFallbacks:  s.ViewFallbacks - prev.ViewFallbacks,
		SerialRestarts: s.SerialRestarts - prev.SerialRestarts,
		TwoPCRestarts:  s.TwoPCRestarts - prev.TwoPCRestarts,
	}
}

// Stats returns a snapshot of the DB's execution counters, summed across
// shards on a sharded DB (every transaction is charged to exactly one
// shard, so the sums count each once). It is safe to call while
// transactions are running; the counters are read atomically (field by
// field, so a mid-run snapshot may straddle a transaction's commit).
func (db *DB) Stats() Stats {
	var st Stats
	for _, en := range db.engines {
		st.Commits += en.Commits()
		st.Aborts += en.Aborts()
		st.Retries += en.Retries()
		st.ViewCommits += en.ViewCommits()
		st.ViewFallbacks += en.ViewFallbacks()
		// Restart counters live on the base engine only, so the sum
		// counts each restart once.
		st.SerialRestarts += en.SerialRestarts()
		st.TwoPCRestarts += en.TwoPCRestarts()
	}
	// Scheduler-side counters come from the distinct scheduler instances:
	// per-shard schedulers contribute each, a space-shared one (the
	// certifier) exactly once.
	for _, sched := range db.distinctSchedulers() {
		if lm, ok := sched.(interface{ Manager() *lock.Manager }); ok {
			ls := lm.Manager().Stats()
			st.LockWaits += ls.Waits.Load()
			st.Deadlocks += ls.Deadlocks.Load()
		}
		if m, ok := sched.(*cc.Modular); ok {
			cs := m.Stats()
			st.CertValidated += cs.Validated
			st.CertRejected += cs.Rejected
		}
	}
	return st
}

// distinctSchedulers returns the DB's scheduler instances, deduplicated
// (a space-shared scheduler serves every shard).
func (db *DB) distinctSchedulers() []engine.Scheduler {
	out := make([]engine.Scheduler, 0, len(db.engines))
	for _, en := range db.engines {
		sched := en.Scheduler()
		dup := false
		for _, have := range out {
			if have == sched {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, sched)
		}
	}
	return out
}

// History returns a snapshot of the run's recorded history h = (E, <, B,
// S). It is safe to call while transactions are running (the snapshot
// shares no mutable records with the live run), but a mid-run snapshot
// reflects in-flight transactions, so feed the oracle (Check, Verify)
// only from a quiescent DB. The error wraps ErrHistoryDisabled on a
// HistoryOff DB and ErrHistoryLimit once a WithHistoryLimit cap was
// exceeded.
func (db *DB) History() (*History, error) {
	h, err := db.historyErr()
	if err != nil {
		return nil, fmt.Errorf("objectbase: %w", err)
	}
	return h, nil
}

// historyErr returns the run's history: the engine's recording, or the
// per-shard recordings stitched into one on a sharded DB.
func (db *DB) historyErr() (*History, error) {
	if db.space != nil {
		return db.space.History()
	}
	return db.eng.HistoryErr()
}

// Check runs the serialisability oracle on the recorded history and
// returns its verdict (serialisation-graph acyclicity plus serial
// replay). The DB must be quiescent and recording (HistoryFull); the
// error wraps ErrHistoryDisabled or ErrHistoryLimit otherwise.
func (db *DB) Check() (Verdict, error) {
	h, err := db.historyErr()
	if err != nil {
		return Verdict{}, fmt.Errorf("objectbase: %w", err)
	}
	return graph.Check(h), nil
}

// Verify's error wraps exactly one of these, so callers can distinguish
// the failure classes with errors.Is. ErrNotLegal is an engine-invariant
// violation: it must hold under any scheduler, including the empty one,
// so harnesses that tolerate anomalies from the "none" control must
// still treat it as fatal. ErrNotSerialisable and ErrTheorem5 are the
// synchronisation guarantees a scheduler can legitimately fail to
// provide.
var (
	ErrNotLegal        = errors.New("history not legal")
	ErrNotSerialisable = errors.New("history not serialisable")
	ErrTheorem5        = errors.New("theorem 5 decomposition violated")
)

// Verify checks the recorded history against the paper's full theory:
// legality (every step's return value matches a serial replay of what
// committed before it), serialisability (Theorem 2's oracle), and the
// Theorem 5 intra/inter-object decomposition. It returns the oracle's
// verdict alongside a nil error when all hold, so callers need not run
// Check (a second full serial replay) just to report the verdict; a
// non-nil error wraps ErrNotLegal, ErrNotSerialisable, or ErrTheorem5 —
// or ErrHistoryDisabled/ErrHistoryLimit when no complete history exists.
// The DB must be quiescent.
func (db *DB) Verify() (Verdict, error) {
	h, err := db.historyErr()
	if err != nil {
		return Verdict{}, fmt.Errorf("objectbase: %w", err)
	}
	if err := h.CheckLegal(); err != nil {
		return Verdict{}, fmt.Errorf("objectbase: %w: %w", ErrNotLegal, err)
	}
	v := graph.Check(h)
	if !v.Serialisable {
		return v, fmt.Errorf("objectbase: %w: %v", ErrNotSerialisable, v)
	}
	if err := graph.CheckTheorem5(h); err != nil {
		return v, fmt.Errorf("objectbase: %w: %w", ErrTheorem5, err)
	}
	return v, nil
}

// buildRegistry populates the DB's metrics registry: one func-backed
// counter per Stats field (the registry and Stats read the same engine
// counters, so the two surfaces cannot disagree), a shards gauge, and —
// when tracing — the per-phase latency histograms and the dropped-span
// gauge.
func (db *DB) buildRegistry() {
	reg := obs.NewRegistry()
	counter := func(name, help string, fn func(Stats) int64) {
		reg.Counter(name, help, func() int64 { return fn(db.Stats()) })
	}
	counter("commits", "Committed top-level transactions.", func(s Stats) int64 { return s.Commits })
	counter("aborts", "Aborted top-level transaction attempts.", func(s Stats) int64 { return s.Aborts })
	counter("retries", "Retried top-level transaction attempts.", func(s Stats) int64 { return s.Retries })
	counter("lock_waits", "Blocking lock acquisitions.", func(s Stats) int64 { return s.LockWaits })
	counter("deadlocks", "Detected deadlocks (denied or timed-out waits).", func(s Stats) int64 { return s.Deadlocks })
	counter("cert_validated", "Certification successes (certifying schedulers).", func(s Stats) int64 { return s.CertValidated })
	counter("cert_rejected", "Certification rejections (certifying schedulers).", func(s Stats) int64 { return s.CertRejected })
	counter("view_commits", "Committed snapshot (View) transactions.", func(s Stats) int64 { return s.ViewCommits })
	counter("view_fallbacks", "View transactions that fell back to the locked path.", func(s Stats) int64 { return s.ViewFallbacks })
	counter("serial_restarts", "Serial-path restarts growing a declared shard set.", func(s Stats) int64 { return s.SerialRestarts })
	counter("twopc_restarts", "Cross-shard restarts discovering a shard late.", func(s Stats) int64 { return s.TwoPCRestarts })
	reg.Gauge("shards", "Number of shards the object space is partitioned into.", func() int64 { return int64(len(db.engines)) })
	// Schedulers that admit uncommitted access gauge their bookkeeping, so
	// a slow cell can be told from a long log straight off /metrics. Both
	// the certifier and the dependency tracker are single, space-wide
	// instances even on a sharded DB.
	sched := db.eng.Scheduler()
	if m, ok := sched.(*cc.Modular); ok {
		reg.Gauge("cert_tracked_accesses", "Accesses the certifier currently tracks.", func() int64 { return m.Stats().TrackedAccesses })
		reg.Gauge("cert_tracked_txns", "Transactions the certifier currently tracks (live, or committed with a tracked predecessor).", func() int64 { return m.Stats().TrackedTxns })
		reg.Gauge("cert_max_step_tests", "Most conflict tests any one step has cost the certifier.", func() int64 { return m.Stats().MaxStepTests })
	}
	if dt, ok := sched.(cc.DependencyTracker); ok && dt.RequiresDependencyTracking() {
		reg.Gauge("dep_tracked_touches", "Uncommitted writes the dependency tracker currently holds.", func() int64 { n, _ := db.eng.DepStats(); return int64(n) })
		reg.Gauge("dep_tracked_txns", "Transactions registered with the dependency tracker.", func() int64 { _, n := db.eng.DepStats(); return int64(n) })
	}
	if _, ok := sched.(*cc.N2PL); ok {
		// Nested 2PL keeps one record per live transaction tree in each
		// shard's lock manager, retired when the tree's top-level execution
		// ends: anything above the in-flight transactions is a leak.
		reg.Gauge("lock_tracked_txns", "Live transaction trees the lock managers keep records for.", func() (n int64) {
			for _, s := range db.distinctSchedulers() {
				if s, ok := s.(*cc.N2PL); ok {
					n += int64(s.Manager().TrackedTxns())
				}
			}
			return n
		})
	}
	if db.eng.Versioning() {
		// Version-ring health, registry only: a high gap share means most
		// publications capture nothing and views fall back.
		perEngine := func(name, help string, fn func(*engine.Engine) int64) {
			reg.Counter(name, help, func() (n int64) {
				for _, en := range db.engines {
					n += fn(en)
				}
				return n
			})
		}
		perEngine("versions_published", "Committed object versions captured into a version ring.", (*engine.Engine).VersionsPublished)
		perEngine("version_gaps", "Publications that left a gap instead of a version (overlapping writers).", (*engine.Engine).VersionGaps)
		perEngine("version_repairs", "Gaps replaced by the clean state once the overlapping writer undid.", (*engine.Engine).VersionRepairs)
	}
	if db.tr != nil {
		tr := db.tr
		reg.Gauge("trace_dropped_spans", "Flight-recorder spans overwritten before being drained.", func() int64 { return int64(tr.Dropped()) })
		reg.RegisterPhases(tr)
	}
	db.reg = reg
}

// waitsForDOT merges the live waits-for graphs of every distinct lock
// manager into one DOT digraph — the /waitsfor endpoint's content. A
// waits-for cycle spanning shards is visible only in the merged graph
// (each shard's detector sees just its own edges, which is why the wait
// budget, not detection, resolves cross-shard deadlocks).
func (db *DB) waitsForDOT() string {
	var parts []string
	for _, sched := range db.distinctSchedulers() {
		if lm, ok := sched.(interface{ Manager() *lock.Manager }); ok {
			parts = append(parts, lm.Manager().WaitsForDOT())
		}
	}
	return obs.MergeDOT(parts...)
}

// Metrics returns a snapshot of the DB's metrics registry: the Stats
// counters by name, gauges, and — when tracing (WithTracing) — the
// per-phase latency statistics of the flight recorder. The counter
// values are read from the same engine counters as Stats, so the two
// surfaces agree up to the skew of reading counters one by one while
// transactions run.
func (db *DB) Metrics() Metrics { return db.reg.Snapshot() }

// Tracing reports whether the flight recorder is on (WithTracing,
// WithDebugServer, or OBJECTBASE_TRACE=1).
func (db *DB) Tracing() bool { return db.tr.Enabled() }

// TraceSnapshot drains the flight recorder: every phase span and
// instant event still in the ring buffers (the newest ~256k; older ones
// were overwritten — the phase histograms in Metrics keep exact counts
// regardless), sorted by start time, plus the recorder's epoch (spans
// carry offsets from it). It returns nil spans when tracing is off.
// Convert to Chrome trace_event JSON with cmd/obsim or serve it live
// with WithDebugServer's /trace.
func (db *DB) TraceSnapshot() ([]SpanRecord, time.Time) {
	if db.tr == nil {
		return nil, time.Time{}
	}
	return db.tr.Snapshot(), db.tr.Epoch()
}

// DebugAddr returns the listen address of the debug server (useful with
// WithDebugServer(":0")), or "" when none is running.
func (db *DB) DebugAddr() string {
	if db.dbg == nil {
		return ""
	}
	return db.dbg.Addr()
}

// Close releases the DB's background resources — today that is the
// debug server, so Close on a DB opened without WithDebugServer is a
// no-op. The DB itself needs no teardown.
func (db *DB) Close() error {
	if db.dbg == nil {
		return nil
	}
	return db.dbg.Close()
}

// Engine exposes the underlying runtime engine — shard 0's on a sharded
// DB. It is an escape hatch for this module's own tooling (cmd/obsim,
// the experiment drivers in internal/bench and internal/workload); the
// returned type lives under internal/ and cannot be named outside the
// module. Tooling that registers objects should use Registrar instead,
// which routes to the right shard.
func (db *DB) Engine() *engine.Engine { return db.eng }

// Registrar exposes the object/method registration surface backed by the
// DB's engine — or, on a sharded DB, by the space's directory routing.
// Like Engine, it is an escape hatch for this module's own tooling; the
// public API is RegisterObject/RegisterMethod.
func (db *DB) Registrar() engine.Registrar { return db.registrar() }

func (db *DB) registrar() engine.Registrar {
	if db.space != nil {
		return db.space
	}
	return db.eng
}
