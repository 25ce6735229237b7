package load

import (
	"fmt"
	"strconv"
	"strings"
)

// FlagConfig is the raw matrix-shaping flag set of `obsim load`
// (-shards/-verify/-history/-view) before validation. Validation of the
// combination lives here, in one place, so the CLI reports every
// conflict at once instead of failing on whichever check happened to run
// first.
type FlagConfig struct {
	// Shards is the -shards value: a comma list of positive shard counts.
	Shards string
	// Verify is the -verify value: sample, all, or none.
	Verify string
	// History is the -history value: auto, full, off, or a comma list of
	// full/off.
	History string
	// View is the -view value: route read-only transactions through the
	// snapshot fast path.
	View bool
}

// MatrixSpec is a validated FlagConfig: the dimensions of the run
// matrix.
type MatrixSpec struct {
	// ShardCounts is the deduplicated -shards list, in flag order.
	ShardCounts []int
	// HistoryModes is the deduplicated -history list, in flag order.
	HistoryModes []string
	// Verify is the oracle policy.
	Verify string
	// View mirrors FlagConfig.View.
	View bool
}

// Validate checks the flag combination as a whole and returns every
// conflict found; the spec is meaningful only when the error list is
// empty.
func (c FlagConfig) Validate() (MatrixSpec, []error) {
	var errs []error
	spec := MatrixSpec{Verify: c.Verify, View: c.View}

	for _, s := range strings.Split(c.Shards, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			errs = append(errs, fmt.Errorf("bad -shards entry %q (want positive integers, e.g. 1,8)", s))
			continue
		}
		dup := false
		for _, seen := range spec.ShardCounts {
			dup = dup || seen == n
		}
		if !dup {
			spec.ShardCounts = append(spec.ShardCounts, n)
		}
	}

	// A typo here must not silently disable the oracle backstop.
	if c.Verify != "sample" && c.Verify != "all" && c.Verify != "none" {
		errs = append(errs, fmt.Errorf("unknown -verify policy %q (want sample, all, or none)", c.Verify))
	}

	canVerify := false // some mode records a history the oracle could check
	for _, m := range strings.Split(c.History, ",") {
		if m != "auto" && m != "full" && m != "off" {
			errs = append(errs, fmt.Errorf("unknown -history mode %q (want auto, full, or off)", m))
			continue
		}
		dup := false
		for _, seen := range spec.HistoryModes {
			dup = dup || seen == m
		}
		if dup {
			continue
		}
		spec.HistoryModes = append(spec.HistoryModes, m)
		canVerify = canVerify || m != "off"
	}
	if len(spec.HistoryModes) > 1 {
		for _, m := range spec.HistoryModes {
			if m == "auto" {
				errs = append(errs, fmt.Errorf("-history auto cannot be combined with other modes"))
			}
		}
	}
	if len(spec.HistoryModes) > 0 && !canVerify && c.Verify != "none" {
		errs = append(errs, fmt.Errorf("-history off records nothing the oracle could check; pass -verify none (or -history auto/full)"))
	}

	return spec, errs
}
