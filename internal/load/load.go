// Package load is the repo's measurement backbone: a load-generation,
// scenario and metrics subsystem built on top of the public objectbase
// façade.
//
// It has four layers:
//
//   - a scenario registry (Register/Get/Names): named workloads, each a
//     setup function plus a per-client deterministic op stream, with
//     knobs for clients, duration-or-txn-count, key-space size, skew
//     (zipfian theta) and read fraction;
//   - a driver (Run): closed-loop or open-loop (target-rate,
//     token-bucket) clients with per-client seeded RNG for
//     reproducibility, driven through DB.Exec with context-aware
//     shutdown; unverified runs default to history-off recording
//     (Options.History), so the measured hot path carries no recorder;
//   - metrics: lock-free per-client recorders merged into an HDR-style
//     log-linear latency histogram (p50/p90/p95/p99/max), throughput,
//     and abort/retry counters folded in from DB.Stats;
//   - output: a stable JSON report schema (BENCH_load.json, see
//     report.go) plus a human table, wired into cmd/obsim as the `load`
//     subcommand.
//
// Every performance PR reports against this harness, and runs can be
// backed by the serialisability oracle (Options.Verify) so throughput
// numbers are never detached from correctness.
package load

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"objectbase"
	"objectbase/internal/workload"
)

// Knobs are the tunable parameters of a scenario run. A zero field means
// "use the scenario's default, then the global default".
type Knobs struct {
	// Clients is the number of concurrent load-generating goroutines.
	Clients int
	// Txns bounds the run at this many transactions per client
	// (closed-loop count mode). Ignored when Duration is set.
	Txns int
	// Duration bounds the run by wall-clock time instead of a
	// transaction count.
	Duration time.Duration
	// Keys sizes the scenario's key space (accounts, dictionary keys,
	// counters, queue backlog — scenario-dependent).
	Keys int
	// Theta is the zipfian skew of key choice: 0 means "scenario
	// default", values approaching 1 concentrate traffic on a shrinking
	// hot set (0.99 is the YCSB-style hotspot default), and a negative
	// value forces uniform choice even on scenarios whose default is
	// skewed. Key 0 is the hottest.
	Theta float64
	// ReadFraction is the fraction of read-only transactions in
	// scenarios with a tunable mix: 0 means "scenario default", a
	// negative value forces an all-write mix.
	ReadFraction float64
	// Rate switches the driver to open-loop mode: transactions are
	// released by a token bucket at this aggregate rate (txn/s) across
	// all clients. 0 means closed loop.
	Rate float64
	// Burst is the token bucket's capacity in open-loop mode; it
	// defaults to Clients.
	Burst int
	// Seed derives each client's private RNG; identical knobs and seed
	// reproduce identical op sequences.
	Seed int64
	// UseView routes the read-only transactions of the op stream (those
	// the scenario marks Op.ReadOnly — its ReadFraction) through the
	// snapshot fast path DB.View instead of DB.Exec, and opens the DB
	// with objectbase.WithReadOnly so versions are published. The op
	// stream itself is unchanged, so determinism per (knobs, seed,
	// client) is preserved.
	UseView bool
	// Shards partitions the object space across this many independent
	// engine instances (objectbase.WithShards). 0 or 1 means unsharded.
	// The op streams are unchanged — object placement is the directory's
	// business — so determinism per (knobs, seed, client) is preserved;
	// transactions whose declared object set (Op.Objects) spans shards
	// run the cross-shard commit protocol.
	Shards int
}

// global fallbacks applied after the scenario's own defaults.
const (
	defaultClients = 4
	defaultTxns    = 100
	defaultKeys    = 64
)

// withDefaults fills zero fields from the scenario defaults d, then from
// the global fallbacks.
func (k Knobs) withDefaults(d Knobs) Knobs {
	if k.Clients == 0 {
		k.Clients = d.Clients
	}
	if k.Txns == 0 && k.Duration == 0 {
		k.Txns, k.Duration = d.Txns, d.Duration
	}
	if k.Keys == 0 {
		k.Keys = d.Keys
	}
	if k.Theta == 0 {
		k.Theta = d.Theta
	}
	if k.ReadFraction == 0 {
		k.ReadFraction = d.ReadFraction
	}
	if k.Clients == 0 {
		k.Clients = defaultClients
	}
	if k.Txns == 0 && k.Duration == 0 {
		k.Txns = defaultTxns
	}
	if k.Keys == 0 {
		k.Keys = defaultKeys
	}
	if k.Burst == 0 {
		k.Burst = k.Clients
	}
	if k.Theta < 0 {
		k.Theta = 0
	}
	if k.ReadFraction < 0 {
		k.ReadFraction = 0
	}
	if k.Shards == 0 {
		k.Shards = 1
	}
	return k
}

// validate rejects resolved knobs no run can honour; Run calls it so a
// bad knob is an error, not a panic, on the library path too.
func (k Knobs) validate() error {
	switch {
	case k.Clients < 1:
		return fmt.Errorf("load: Clients = %d, want >= 1", k.Clients)
	case k.Txns < 0:
		return fmt.Errorf("load: Txns = %d, want >= 0", k.Txns)
	case k.Duration < 0:
		return fmt.Errorf("load: Duration = %v, want >= 0", k.Duration)
	case k.Keys < 1:
		return fmt.Errorf("load: Keys = %d, want >= 1", k.Keys)
	case k.Rate < 0:
		return fmt.Errorf("load: Rate = %v, want >= 0", k.Rate)
	case k.ReadFraction > 1:
		return fmt.Errorf("load: ReadFraction = %v, want <= 1", k.ReadFraction)
	case k.Shards < 1:
		return fmt.Errorf("load: Shards = %d, want >= 1", k.Shards)
	}
	return nil
}

// Op is one transaction of a scenario's op stream: the name labelling it
// in the history plus its body. ReadOnly marks transactions whose body
// issues only observer steps; the driver may route them through the
// snapshot fast path (Knobs.UseView). Objects optionally declares the
// objects the body accesses — the stored-procedure discipline — letting
// a sharded run (Knobs.Shards) order its shard acquisition up front
// (DB.ExecTouching) instead of discovering the set optimistically; a
// wrong or missing declaration degrades to discovery, never breaks.
type Op struct {
	Name     string
	Fn       objectbase.MethodFunc
	ReadOnly bool
	Objects  []string
}

// OpFunc produces the i-th transaction of one client's op stream. It is
// called sequentially by a single client goroutine.
type OpFunc func(i int) Op

// Scenario is a registered workload: how to populate a DB and how each
// client generates transactions.
type Scenario struct {
	Name        string
	Description string
	// Defaults are the scenario's preferred knob values; Run fills them
	// into unset caller knobs.
	Defaults Knobs
	// Setup populates the DB (objects and methods) for the resolved
	// knobs.
	Setup func(db *objectbase.DB, k Knobs) error
	// Ops returns client's op stream. r is the client's private seeded
	// source: drawing from it (and only it) keeps the stream
	// deterministic per (knobs, seed, client).
	Ops func(k Knobs, client int, r *rand.Rand) OpFunc
}

var (
	regMu    sync.Mutex
	registry = make(map[string]*Scenario)
)

// Register adds a scenario to the registry; duplicate names panic
// (registration is programmer intent, as with database/sql drivers).
func Register(s *Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	if s == nil || s.Name == "" || s.Setup == nil || s.Ops == nil {
		panic("load: Register: incomplete scenario")
	}
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("load: Register: duplicate scenario %q", s.Name))
	}
	registry[s.Name] = s
}

// Get returns the named scenario.
func Get(name string) (*Scenario, bool) {
	regMu.Lock()
	defer regMu.Unlock()
	s, ok := registry[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// FromSpec adapts a workload.Spec — the experiment substrate of
// internal/workload — into a registry Scenario, so the paper's workloads
// and the load harness share one vocabulary. The adapted scenario
// honours Clients/Txns/Duration/Seed/Rate; mk receives the resolved
// knobs so specs can map Keys and the mix knobs onto their own
// parameters.
func FromSpec(name, description string, mk func(k Knobs) workload.Spec, defaults Knobs) *Scenario {
	return &Scenario{
		Name:        name,
		Description: description,
		Defaults:    defaults,
		Setup: func(db *objectbase.DB, k Knobs) error {
			mk(k).Setup(db.Registrar())
			return nil
		},
		Ops: func(k Knobs, client int, r *rand.Rand) OpFunc {
			spec := mk(k)
			return func(i int) Op {
				if spec.ClientTxn != nil {
					n, fn := spec.ClientTxn(r, client, i)
					return Op{Name: n, Fn: fn}
				}
				// A globally unique-ish sequence number: specs use it
				// only for payload values and parity.
				n, fn := spec.Txn(r, client*1_000_000+i)
				return Op{Name: n, Fn: fn}
			}
		},
	}
}
