// Command benchmark is the repository's benchmark: five closed-loop
// workloads against the public objectbase façade, five bounded
// end-to-end metrics and an outside-in per-layer ledger. See README.md
// for the workloads, the metrics and what each is expected to move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// rounds is how many independent rounds (fresh DB each) one run makes;
// a run's value for a metric is the median of its rounds.
const rounds = 5

// setupReps is how many throw-away set-ups a run times before its first
// round; setup_s — tens to hundreds of microseconds here — is their
// median, which takes that many observations to be steady.
const setupReps = 2000

// outDir, relative to the checkout the benchmark is run from, receives
// the reports and traces; run.sh builds into it too.
const outDir = ".bench_build"

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 42, "op-stream seed")
		seconds = flag.Float64("seconds", runSeconds, "measuring time per workload: warm-ups plus windows of the untraced rounds")
		trace   = flag.Int("trace", 0, "0: print the end-to-end metrics; 1: also run the traced round and the layer probes, print the per-layer metrics")
		list    = flag.Bool("list", false, "print the manifest (BENCHMARK.json) and exit")
	)
	flag.Parse()

	if *list {
		data, err := json.MarshalIndent(buildManifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if runtime.NumCPU() < numClients {
		fatal(fmt.Errorf("need at least %d CPUs for %d closed-loop clients, have %d: refusing to report numbers from a different machine shape", numClients, numClients, runtime.NumCPU()))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("want -seconds > 0 and -trace 0 or 1"))
	}
	runtime.GOMAXPROCS(numClients)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, traced: *trace == 1}

	if *name == "all" {
		runAll(cfg)
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q (see -list)", *name))
	}
	if cfg.traced {
		cfg.probes = runProbes()
	}
	rep := runWorkload(w, cfg)
	if err := rep.write(filepath.Join(outDir, fmt.Sprintf("report-%s-trace%d.json", w.name, *trace))); err != nil {
		fatal(err)
	}
	rep.printTable(os.Stderr)
	// The driver's contract: the last line of standard output is the
	// result object.
	line, err := json.Marshal(rep.resultLine(cfg.traced))
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "benchmark: workload %s FAILED its correctness gate: %s\n", w.name, rep.Why)
		os.Exit(1)
	}
}

// runAll is the human entry point: every workload with its traced round,
// the probes once, one combined report. It claims nothing: a gain is
// claimed by a later change, measured against this one.
func runAll(cfg runConfig) {
	cfg.traced = true
	cfg.probes = runProbes()
	summary := struct {
		Env       envStamp  `json:"env"`
		Workloads []*report `json:"workloads"`
		Claim     *string   `json:"claim"`
	}{Env: stamp(cfg.seed)}
	failed := ""
	for _, w := range workloads {
		rep := runWorkload(w, cfg)
		rep.printTable(os.Stdout)
		summary.Workloads = append(summary.Workloads, rep)
		if !rep.Correct && failed == "" {
			failed = fmt.Sprintf("workload %s FAILED its correctness gate: %s", w.name, rep.Why)
		}
	}
	data, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fatal(err)
	}
	path := filepath.Join(outDir, "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("full report: %s\n", path)
	// The summary line: medians only, ending on the claim this change
	// makes — none.
	short := struct {
		Env     envStamp              `json:"env"`
		Results map[string]resultLine `json:"results"`
		Claim   *string               `json:"claim"`
	}{Env: summary.Env, Results: map[string]resultLine{}}
	for _, rep := range summary.Workloads {
		short.Results[rep.Workload] = rep.resultLine(false)
	}
	line, err := json.Marshal(short)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if failed != "" {
		fatal(errors.New(failed))
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(2)
}

// envStamp says which machine and build produced the numbers; numbers
// from different stamps are not comparable.
type envStamp struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Time       string `json:"time"`
}

func stamp(seed int64) envStamp {
	commit := "unknown" // the driver's checkout is not a git repository
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envStamp{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Commit: commit, Seed: seed,
		Time: time.Now().UTC().Format(time.RFC3339),
	}
}
