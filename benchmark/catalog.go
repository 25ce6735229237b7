package main

// metricDef is one line of the benchmark's contract: BENCHMARK.json is
// generated from these tables (-list), so the manifest, the runner's
// output and the README cannot name different things.
type metricDef struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

func bound(f float64) *float64 { return &f }

// endToEnd is what a caller of the library sees. failed_frac — the sixth
// user-visible number — is carried by the result line's attempted/failed
// counts instead: it is 0 on every workload, and a manifest bound is a
// share of the parent's median, which a zero median cannot express. The
// tail is p99.9, not p99: on bank-serial p99 sits on the knee between
// undisturbed transactions (p98 = 4 us) and those a collector cycle hit
// (p99.5 = 25-50 us), and swings 35-60% from run to run.
var endToEnd = []metricDef{
	{"commit_tps", "txn/s", "higher", bound(0.25)},
	{"txn_p50_us", "us", "lower", bound(0.25)},
	{"txn_p999_us", "us", "lower", bound(0.25)},
	{"allocs_per_txn", "allocs/txn", "lower", bound(0.10)},
	{"setup_s", "s", "lower", bound(0.25)},
}

// perLayer is the outside-in ledger. The prefix is the module the number
// prices; the source of each line (traced round, Stats delta, MemStats,
// layer probe) is tabulated in README.md.
var perLayer = []metricDef{
	{Name: "facade.envelope_us_per_txn", Unit: "us"},
	{Name: "facade.txn_p99_us", Unit: "us"},
	{Name: "facade.read_p50_us", Unit: "us"},
	{Name: "facade.read_p99_us", Unit: "us"},
	{Name: "facade.write_p50_us", Unit: "us"},
	{Name: "facade.write_p99_us", Unit: "us"},
	{Name: "facade.retained_b_per_txn", Unit: "B/txn"},
	{Name: "facade.bytes_per_txn", Unit: "B/txn"},
	{Name: "facade.retries_per_commit", Unit: "frac"},
	{Name: "facade.aborts_per_commit", Unit: "frac"},
	{Name: "facade.failed_frac", Unit: "frac"},

	{Name: "engine.body_self_us_per_txn", Unit: "us"},
	{Name: "engine.call_self_us_per_txn", Unit: "us"},
	{Name: "engine.step_us_per_txn", Unit: "us"},
	{Name: "engine.step_p50_us", Unit: "us"},
	{Name: "engine.step_p99_us", Unit: "us"},
	{Name: "engine.steps_per_txn", Unit: "count"},
	{Name: "engine.calls_per_txn", Unit: "count"},
	{Name: "engine.attempts_per_txn", Unit: "count"},
	{Name: "engine.scheduled_ns_per_txn", Unit: "ns"},
	{Name: "engine.serial_ns_per_txn", Unit: "ns"},
	{Name: "engine.xshard_ns_per_txn", Unit: "ns"},
	{Name: "engine.view_ns_per_txn", Unit: "ns"},
	{Name: "engine.scheduled_allocs_per_txn", Unit: "allocs/txn"},
	{Name: "engine.serial_allocs_per_txn", Unit: "allocs/txn"},
	{Name: "engine.xshard_allocs_per_txn", Unit: "allocs/txn"},
	{Name: "engine.view_allocs_per_txn", Unit: "allocs/txn"},
	{Name: "engine.serial_restarts_per_commit", Unit: "frac"},
	{Name: "engine.twopc_restarts_per_commit", Unit: "frac"},
	{Name: "engine.view_fallback_frac", Unit: "frac"},

	{Name: "cc.gemstone_ns_per_txn", Unit: "ns"},
	{Name: "cc.modular_ns_per_txn", Unit: "ns"},
	{Name: "cc.n2pl-op_ns_per_txn", Unit: "ns"},
	{Name: "cc.n2pl-step_ns_per_txn", Unit: "ns"},
	{Name: "cc.none_ns_per_txn", Unit: "ns"},
	{Name: "cc.nto-op_ns_per_txn", Unit: "ns"},
	{Name: "cc.nto-step_ns_per_txn", Unit: "ns"},
	{Name: "cc.cert_reject_frac", Unit: "frac"},

	{Name: "lock.acquire_release_ns", Unit: "ns"},
	{Name: "lock.acquire_release_allocs", Unit: "allocs/op"},
	{Name: "lock.nested_transfer_ns", Unit: "ns"},
	{Name: "lock.waits_per_commit", Unit: "frac"},
	{Name: "lock.deadlocks_per_commit", Unit: "frac"},

	{Name: "shard.directory_ns", Unit: "ns"},
	{Name: "shard.gate_ns", Unit: "ns"},
	{Name: "shard.rgate_ns", Unit: "ns"},
	{Name: "shard.xshard_frac", Unit: "frac"},

	{Name: "core.apply_ns", Unit: "ns"},
	{Name: "core.conflict_ns", Unit: "ns"},
	{Name: "core.scope_ns", Unit: "ns"},
	{Name: "core.version_push_ns", Unit: "ns"},
	{Name: "core.version_lookup_ns", Unit: "ns"},
	{Name: "core.clone_dict_ns", Unit: "ns"},
	{Name: "core.clone_dict_allocs", Unit: "allocs/op"},

	{Name: "btree.lookup_ns", Unit: "ns"},
	{Name: "btree.insert_delete_ns", Unit: "ns"},
	{Name: "btree.clone_ns", Unit: "ns"},
	{Name: "btree.clone_allocs", Unit: "allocs/op"},

	{Name: "obs.span_ns", Unit: "ns"},
	{Name: "obs.span_disabled_ns", Unit: "ns"},
	{Name: "obs.hist_record_ns", Unit: "ns"},

	{Name: "graph.verify_us_per_txn", Unit: "us"},

	{Name: "bench.opgen_us_per_txn", Unit: "us"},
	{Name: "bench.timer_ns", Unit: "ns"},
	{Name: "bench.trace_overhead_frac", Unit: "frac"},
	{Name: "bench.round_spread_frac", Unit: "frac"},
}

func init() {
	for i := range perLayer {
		perLayer[i].Better = "lower" // every ledger line is a cost
	}
}

// runSeconds is the measuring time of one run the manifest asks the
// driver for: five rounds of 0.75 s warm-up + 2.25 s window.
const runSeconds = 15

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadDef{w.name, w.why})
	}
	return m
}
