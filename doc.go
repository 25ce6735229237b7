// Package objectbase is an embeddable transactional object base: nested
// transactions over user-defined object types, synchronised by pluggable
// concurrency-control schedulers, with every run recorded as a history
// that the built-in oracle can verify serialisable.
//
// It is a reproduction — grown into a usable system — of Hadzilacos &
// Hadzilacos, "Transaction Synchronisation in Object Bases" (PODS 1988;
// JCSS 43, 2-24, 1991): a formal model of concurrency control for object
// bases — nested transactions issuing arbitrary operations with internal
// parallelism — made executable, together with the paper's algorithms
// (nested two-phase locking, nested timestamp ordering), the Section 1
// baseline (object-as-data-item), the Theorem 5 intra/inter-object
// decomposition with an optimistic certifier, and an oracle that verifies
// every recorded history against the paper's own serialisability theory.
//
// # Usage
//
// Open a DB, register objects (a Schema plus an initial State) and
// methods, then run transactions:
//
//	db, err := objectbase.Open(objectbase.WithScheduler("n2pl-op"))
//	if err != nil { ... }
//	db.RegisterObject("visits", objectbase.Counter(), nil)
//	db.RegisterMethod("visits", "bump", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
//		return ctx.Do("visits", "Add", int64(1))
//	})
//	_, err = db.Exec(ctx, "T", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
//		return ctx.Call("visits", "bump")
//	})
//	...
//	if _, err := db.Verify(); err != nil { ... } // the oracle checks the recorded history
//
// Exec honours context cancellation and deadlines down through the
// engine: a done context aborts the transaction at its next step, message
// or commit boundary and interrupts retry backoff. Schedulers() lists the
// registered concurrency controls; WithScheduler selects one by name.
//
// # Snapshot views
//
// Read-only transactions commute with each other by construction, so
// they need no synchronisation — only a consistent state. A DB opened
// with WithReadOnly() publishes, at every commit, the committed state of
// each mutated object into a small per-object ring of immutable versions
// (MVCC), and View runs a read-only transaction against one global
// snapshot of those versions without ever entering the lock manager or
// the scheduler:
//
//	db, _ := objectbase.Open(objectbase.WithReadOnly())
//	...
//	total, err := db.View(ctx, "audit", func(ctx *objectbase.Ctx) (objectbase.Value, error) {
//		a, _ := ctx.Call("a", "balance")
//		b, _ := ctx.Call("b", "balance")
//		return a.(int64) + b.(int64), nil // one snapshot: never torn
//	})
//
// A mutating step inside a view aborts with an error wrapping
// ErrReadOnlyWrite (the schema's ReadOnly declarations classify the
// steps); a snapshot that cannot be resolved — overlapping writers left
// uncommitted effects in every recent version — falls back to the locked
// read-only path, counted by Stats.ViewFallbacks. View transactions are
// recorded in the history at their snapshot position, so Verify covers
// them under every scheduler. Versioning costs one state clone per
// mutated object per commit, which is why it is opt-in: O(1) for the
// dictionary (its B+ tree is copy-on-write; the next write copies one
// root-to-leaf path) and for the scalar objects, O(n) for the queue and
// the set, whose states are slices.
//
// # Sharding
//
// Open(WithShards(n)) partitions the object space across n independent
// engine instances — per-shard schedulers, lock managers, and version
// rings — with objects placed by a deterministic directory (a hash of
// the object name). Each shard carries a reader/writer gate, and a
// transaction runs in one of two modes. A transaction whose object set
// is declared up front (Txn derives it from its call list, ExecTouching
// takes it explicitly) write-gates its shards in directory order and
// runs on the serial commit fast path: exclusively gated, it is
// temporally alone on its shards, so it skips the scheduler and the
// lock manager entirely and applies its steps directly — undo-logged,
// recorded, and version-published as usual — which makes declared
// transactions the fastest way through a sharded DB by a wide margin
// (see the README's measured cost model). An undeclared transaction
// runs under its home shard's scheduler, concurrent with the shard's
// other scheduled transactions; if it touches a second shard it
// restarts once with the learned set write-gated around the per-shard
// schedulers and a shard-ordered two-phase commit. In both modes the
// gate discipline makes cross-engine waits-for cycles impossible (see
// the README's Sharding section for the argument), and a wrong or
// missing declaration degrades to a bounded restart, never to a wrong
// result. The API is unchanged: Exec routes calls through the
// directory, History/Check/Verify stitch the per-shard recordings into
// one history the oracle certifies as usual, Stats sums the shards, and
// View pins the shard of the first object it reads (falling back to the
// locked read-only path when a view spans shards).
//
// Declaring the object set:
//
//	_, err = db.ExecTouching(ctx, "transfer", []string{"a", "b"},
//		func(ctx *objectbase.Ctx) (objectbase.Value, error) {
//			if _, err := ctx.Call("a", "withdraw", amt); err != nil { return nil, err }
//			return ctx.Call("b", "deposit", amt)
//		})
//
// The declaration is a hint: touching an undeclared object degrades to
// discovery, never to a wrong result.
//
// # History recording
//
// By default every execution event is retained so History/Check/Verify
// can analyse the run (WithHistory(HistoryFull)); the recorder's memory
// grows with the run, so long-lived processes should either cap it with
// WithHistoryLimit(n) — which fails recording transactions fast with
// ErrHistoryLimit instead of OOMing — or switch it off entirely with
// WithHistory(HistoryOff), which keeps only atomic event counters and
// makes the history accessors return ErrHistoryDisabled. Schedulers
// behave identically under either mode; only the oracle needs the full
// history.
//
// # Tracing and metrics
//
// Opening with WithTracing() (or setting OBJECTBASE_TRACE=1) turns on
// the flight recorder: every transaction attempt is decomposed into
// phase spans — admit, schedule-wait, execute, commit-barrier, publish,
// retry-backoff, plus nested lock-wait/gate-wait stretches and instant
// restart/fallback events — recorded in lock-free per-client ring
// buffers. TraceSnapshot drains them; cmd/obsim can write the same data
// as Chrome trace_event JSON (obsim load -trace) and pretty-print it
// (obsim trace). The exclusive phases partition each attempt's wall
// time, so their histogram totals reconcile with end-to-end latency —
// slow cells decompose into "where the time went" with nothing hidden.
//
// Metrics() works on every DB, traced or not: a registry of named
// counters guaranteed to agree with Stats(), gauges, and (when tracing)
// per-phase latency histograms. WithDebugServer(addr) serves the
// registry live — /metrics in Prometheus text format, /waitsfor as a
// Graphviz DOT snapshot of the lock managers' merged waits-for graph
// (the live deadlock diagnosis surface), /trace as trace_event JSON,
// and the standard /debug/pprof/ profiles. When tracing is off the
// instrumented hot paths cost one nil-pointer check per site.
//
// # Invariant checking
//
// The engine's concurrency conventions — the repo-wide lock rank order,
// the shard-gate acquisition order, version-publication discipline,
// context plumbing on blocking paths, flight-recorder span balance,
// and the cmd//examples import boundary — are machine-checked. `go run
// ./cmd/oblint ./...` runs the eight analyzers of internal/analysis over
// the tree (CI enforces a clean run), and building or testing with
// -tags ordercheck compiles in a runtime witness that panics at the
// call site of any out-of-order lock or gate acquisition. See the
// README's "Static analysis" section for the analyzer catalogue and
// the rank table.
//
// The conflict relations everything rests on are certified twice over.
// Statically, the conflictsound analyzer derives each schema's relation
// from its operation bodies (read/write footprints, argument-keyed
// accesses, commuting increments) and flags any declared relation that
// commutes a provably conflicting pair; `go run ./cmd/oblint -gen`
// writes the derived argument-aware tables to
// internal/objects/conflict_gen.go. Dynamically, SampleCommutativity
// (with its single-pair form, core.VerifyCommutativitySoundness) replays
// randomized states through every declared-commuting pair and checks
// Definition 3 differentially — both orders legal, identical returns and
// final states, undo closures included; `obsim load -verify` chains it
// after the serialisability oracle, and `obsim schema` prints the
// declared-vs-derived matrices.
//
// See README.md for the repository layout, the scheduler catalogue, and a
// complete quickstart; the runnable programs under examples/ exercise the
// public API end to end.
package objectbase
