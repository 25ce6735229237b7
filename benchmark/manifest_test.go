package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_.\-/]{1,200}$`)
)

// keysOf decodes a JSON object and returns its keys, sorted.
func keysOf(t *testing.T, raw json.RawMessage) (map[string]json.RawMessage, []string) {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		t.Fatalf("not an object: %v: %s", err, raw)
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return obj, keys
}

func str(t *testing.T, raw json.RawMessage) string {
	t.Helper()
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("not a string: %s", raw)
	}
	return s
}

func list(t *testing.T, raw json.RawMessage) []json.RawMessage {
	t.Helper()
	var l []json.RawMessage
	if err := json.Unmarshal(raw, &l); err != nil {
		t.Fatalf("not a list: %s", raw)
	}
	return l
}

// TestManifestMeetsTheContract checks BENCHMARK.json against every rule
// the acceptance driver applies before its first run: an invalid manifest
// is refused outright, and this repository has lost a benchmark that way.
func TestManifestMeetsTheContract(t *testing.T) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) > 64<<10 {
		t.Errorf("manifest is %d bytes, over 64 KiB", len(data))
	}
	top, keys := keysOf(t, data)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !slices.Equal(keys, want) {
		t.Fatalf("top-level keys %v, want exactly %v", keys, want)
	}

	var paths []string
	for _, raw := range list(t, top["paths"]) {
		p := str(t, raw)
		paths = append(paths, p)
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || slices.Contains(strings.Split(p, "/"), "..") {
			t.Errorf("path %q: want a relative path of letters, digits, _ . - /", p)
		}
		if fi, err := os.Stat(filepath.Join("..", p)); err != nil || !fi.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if len(paths) < 1 || len(paths) > 16 {
		t.Errorf("%d paths, want 1..16", len(paths))
	}
	if !slices.Equal(paths, []string{"benchmark"}) {
		t.Errorf("paths %v, want only benchmark", paths)
	}

	command := list(t, top["command"])
	if len(command) < 1 || len(command) > 32 {
		t.Errorf("command has %d strings, want 1..32", len(command))
	}
	for _, raw := range command {
		arg := str(t, raw)
		if len(arg) > 200 || strings.HasPrefix(arg, "/") || slices.Contains(strings.Split(arg, "/"), "..") {
			t.Errorf("command argument %q: too long, absolute, or leaves the repository", arg)
		}
		if strings.Contains(arg, "/") && !slices.ContainsFunc(paths, func(p string) bool { return strings.HasPrefix(arg, p+"/") }) {
			t.Errorf("command argument %q names a file outside paths %v", arg, paths)
		}
	}

	var seconds int
	if err := json.Unmarshal(top["run_seconds"], &seconds); err != nil || seconds < 1 || seconds > 60 {
		t.Errorf("run_seconds %s, want a whole number 1..60", top["run_seconds"])
	}

	seen := map[string]bool{}
	name := func(raw json.RawMessage) string {
		n := str(t, raw)
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
		return n
	}
	direction := func(n string, raw json.RawMessage) {
		if b := str(t, raw); b != "lower" && b != "higher" {
			t.Errorf("%s: better %q, want lower or higher", n, b)
		}
	}
	unit := func(n string, raw json.RawMessage) string {
		u := str(t, raw)
		if !unitRE.MatchString(u) {
			t.Errorf("%s: unit %q does not match %v", n, u, unitRE)
		}
		return u
	}

	ws := list(t, top["workloads"])
	if len(ws) < 2 || len(ws) > 8 {
		t.Errorf("%d workloads, want 2..8", len(ws))
	}
	for _, raw := range ws {
		obj, keys := keysOf(t, raw)
		if !slices.Equal(keys, []string{"name", "why"}) {
			t.Fatalf("workload keys %v, want exactly name and why", keys)
		}
		n := name(obj["name"])
		if why := str(t, obj["why"]); why == "" || len(why) > 200 || strings.ContainsAny(why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", n, len(why))
		}
	}

	e2e := list(t, top["end_to_end"])
	if len(e2e) < 1 || len(e2e) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(e2e))
	}
	setup := false
	for _, raw := range e2e {
		obj, keys := keysOf(t, raw)
		if !slices.Equal(keys, []string{"better", "bound", "name", "unit"}) {
			t.Fatalf("end-to-end metric keys %v, want exactly name, unit, better, bound", keys)
		}
		n := name(obj["name"])
		u := unit(n, obj["unit"])
		direction(n, obj["better"])
		b, err := strconv.ParseFloat(string(obj["bound"]), 64)
		if err != nil || b <= 0 || b > 0.25 {
			t.Errorf("%s: bound %s, want a share in (0, 0.25]", n, obj["bound"])
		}
		if n == "setup_s" {
			setup = u == "s" && str(t, obj["better"]) == "lower"
		}
	}
	if !setup {
		t.Error(`no end-to-end metric setup_s with unit "s" and better "lower"`)
	}

	pl := list(t, top["per_layer"])
	if len(pl) < 1 || len(pl) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(pl))
	}
	for _, raw := range pl {
		obj, keys := keysOf(t, raw)
		if !slices.Equal(keys, []string{"better", "name", "unit"}) {
			t.Fatalf("per-layer metric keys %v, want exactly name, unit, better", keys)
		}
		n := name(obj["name"])
		unit(n, obj["unit"])
		direction(n, obj["better"])
	}

	// The driver makes 4 + 22 x workloads runs, all within 3420 s with two
	// builds. A run costs its measuring time plus set-ups, the verified
	// pass and, traced, one more round and the probes: allow 12 s on top,
	// and 120 s per build.
	if runs := 4 + 22*len(ws); runs*(seconds+12)+2*120 > 3420 {
		t.Errorf("%d runs of %d s measuring time do not fit the driver's 3420 s", runs, seconds)
	}
}

// TestManifestIsWhatListPrints pins BENCHMARK.json to the tables the
// runner reports from: five workloads, five end-to-end metrics, the
// per-layer ledger, by exactly the names -list prints.
func TestManifestIsWhatListPrints(t *testing.T) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	gen, err := json.Marshal(buildManifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Errorf("BENCHMARK.json differs from `bash benchmark/run.sh -list`; regenerate it:\n%s", gen)
	}
	if len(workloads) != 5 || len(endToEnd) != 5 || len(perLayer) >= 128 {
		t.Errorf("%d workloads, %d end-to-end and %d per-layer metrics", len(workloads), len(endToEnd), len(perLayer))
	}
}

// TestRunnerImportsOnlyTheFacade keeps the runner, workloads and tracer
// decoupled from the code they measure: the standard library and the
// public objectbase package, nothing under objectbase/internal. Only
// benchmark/layers may look inside, and it runs as a separate process.
func TestRunnerImportsOnlyTheFacade(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			std := !strings.Contains(strings.SplitN(path, "/", 2)[0], ".") && !strings.HasPrefix(path, "objectbase")
			if !std && path != "objectbase" {
				t.Errorf("%s imports %q: the runner may import only the standard library and objectbase", file, path)
			}
		}
	}
}
