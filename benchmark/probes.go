package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// probeResult is what the layers child process prints: the probe-sourced
// ledger lines, and where the shard directory places the accounts (the
// runner cannot ask that itself without importing objectbase/internal).
type probeResult struct {
	Metrics   map[string]float64 `json:"metrics"`
	Placement map[string]int     `json:"placement"`
	Warnings  []string           `json:"warnings"`
}

// probeTimeout bounds the child; the probes take a few seconds.
const probeTimeout = 90 * time.Second

// runProbes runs the layers binary that run.sh built beside this one and
// waits for it to end. Any failure — the binary is missing because an
// internal API it used was renamed, it crashed, it timed out — costs the
// probe metrics and a warning, never the run.
func runProbes() *probeResult {
	res := &probeResult{}
	fail := func(err error) *probeResult {
		res.Warnings = append(res.Warnings, fmt.Sprintf("layer probes unavailable, their metrics are absent: %v", err))
		fmt.Fprintln(os.Stderr, "benchmark: warning:", res.Warnings[len(res.Warnings)-1])
		return res
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, filepath.Join(filepath.Dir(self), "layers"), append([]string{"-shards", strconv.Itoa(serialShards)}, acctNames[:]...)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fail(err)
	}
	if err := json.Unmarshal(out, res); err != nil {
		return fail(err)
	}
	return res
}
