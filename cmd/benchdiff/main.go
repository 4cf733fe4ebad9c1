// Command benchdiff guards the simulated-result benchmark metrics against
// drift. It reads `go test -bench` output on stdin, extracts every custom
// metric whose unit starts with "sim-" (simulated seconds / bandwidths —
// deterministic observables, unlike wall-clock ns/op), "farm-" (Monte
// Carlo sweep aggregates — percentiles over seeded runs, equally
// deterministic), "churn-" (online-placement workload observables:
// time-weighted affinity cost and corrective-migration spend), or "seq-"
// (migration-sequencer predictions: per-policy batch counts and predicted
// makespans), or "rdma-" (RDMA-native QP-replay migration observables:
// per-rung totals and demotion counts), and compares them against a
// committed baseline.
//
// Usage:
//
//	go test -bench . -benchtime 1x | benchdiff                 # compare
//	go test -bench . -benchtime 1x | benchdiff -update         # re-baseline
//	go test -bench . -benchtime 1x | benchdiff -write BENCH_2026-08-06.json
//
// Only metrics present in the input are compared, so a smoke run over a
// benchmark subset checks just that subset. A metric in the input but not
// in the baseline is an error (run -update after intentionally adding one).
//
// With -wall, the dated file also gets a wall section: one perfbench
// result per workload, read from lines of "<workload> <result JSON>".
// benchdiff then prints each end-to-end wall-clock metric against the
// newest earlier BENCH_*.json beside the -write file that has a wall
// section. Those deltas are informational only and never gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	baseline := flag.String("baseline", "scripts/bench_baseline.json", "committed baseline metrics file")
	write := flag.String("write", "", "also write the observed metrics to this file as JSON")
	update := flag.Bool("update", false, "overwrite the baseline with the observed metrics instead of comparing")
	tol := flag.Float64("tol", 1e-6, "relative tolerance for metric comparison")
	wallPath := flag.String("wall", "", "perfbench results (\"<workload> <result JSON>\" lines) for the wall section of the -write file")
	flag.Parse()
	if *wallPath != "" && *write == "" {
		fatal("-wall needs -write")
	}

	observed, err := parseBench(os.Stdin)
	if err != nil {
		fatal("%v", err)
	}
	if len(observed) == 0 {
		fatal("no sim-*/farm-*/churn-*/seq-*/rdma-* metrics found on stdin (pipe `go test -bench` output in)")
	}

	if *write != "" {
		rec := benchFile{Metrics: observed}
		if *wallPath != "" {
			if rec.Wall, err = readWall(*wallPath); err != nil {
				fatal("%v", err)
			}
		}
		if err := writeJSON(*write, rec); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: wrote %d metric(s) to %s\n", len(observed), *write)
		if rec.Wall != nil {
			printWallDeltas(*write, rec.Wall)
		}
	}
	if *update {
		if err := writeJSON(*baseline, observed); err != nil {
			fatal("%v", err)
		}
		fmt.Fprintf(os.Stderr, "benchdiff: baseline %s updated with %d metric(s)\n", *baseline, len(observed))
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		fatal("%v (run with -update to create it)", err)
	}
	want := map[string]float64{}
	if err := json.Unmarshal(data, &want); err != nil {
		fatal("%s: %v", *baseline, err)
	}

	keys := make([]string, 0, len(observed))
	for k := range observed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var drift []string
	for _, k := range keys {
		got := observed[k]
		exp, ok := want[k]
		if !ok {
			drift = append(drift, fmt.Sprintf("%s: %g not in baseline (new metric? run -update)", k, got))
			continue
		}
		if !within(got, exp, *tol) {
			drift = append(drift, fmt.Sprintf("%s: got %g, baseline %g", k, got, exp))
		}
	}
	if len(drift) > 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) drifted from %s:\n", len(drift), *baseline)
		for _, d := range drift {
			fmt.Fprintf(os.Stderr, "  %s\n", d)
		}
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchdiff: %d metric(s) match %s (tol %g)\n", len(observed), *baseline, *tol)
}

// parseBench extracts "value sim-*" / "value farm-*" / "value churn-*" /
// "value seq-*"
// metric pairs from go-test benchmark output, keyed by "BenchName/unit"
// with any -GOMAXPROCS suffix stripped.
func parseBench(f *os.File) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := fields[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		// fields[1] is the iteration count; after that, (value, unit) pairs.
		for i := 2; i+1 < len(fields); i += 2 {
			unit := fields[i+1]
			if !strings.HasPrefix(unit, "sim-") && !strings.HasPrefix(unit, "farm-") &&
				!strings.HasPrefix(unit, "churn-") && !strings.HasPrefix(unit, "seq-") &&
				!strings.HasPrefix(unit, "rdma-") {
				continue
			}
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q for %s", name, fields[i], unit)
			}
			key := name + "/" + unit
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("duplicate metric %s", key)
			}
			out[key] = v
		}
	}
	return out, sc.Err()
}

func within(a, b, tol float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func writeJSON(path string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// benchFile is a dated BENCH_<date>.json: the simulated metrics, plus the
// perfbench result of each workload when the run measured wall clock.
// Files from before the wall section hold the metrics map alone.
type benchFile struct {
	Metrics map[string]float64    `json:"metrics"`
	Wall    map[string]wallResult `json:"wall,omitempty"`
}

// wallResult is perfbench's JSON result line.
type wallResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// endToEnd are perfbench's end-to-end metrics, in its print order.
var endToEnd = []string{"setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb"}

// readWall reads "<workload> <perfbench result JSON>" lines.
func readWall(path string) (map[string]wallResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]wallResult{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, js, ok := strings.Cut(line, " ")
		var res wallResult
		if !ok || json.Unmarshal([]byte(js), &res) != nil || len(res.Metrics) == 0 {
			return nil, fmt.Errorf("%s: want \"<workload> <perfbench result JSON>\", got %q", path, line)
		}
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("%s: workload %s twice", path, name)
		}
		out[name] = res
	}
	return out, nil
}

// earlierWall returns the newest BENCH_*.json beside path, older than it
// by name (the names carry the date), that has a wall section.
func earlierWall(path string) (string, map[string]wallResult) {
	files, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "BENCH_*.json"))
	sort.Strings(files)
	for i := len(files) - 1; i >= 0; i-- {
		if filepath.Base(files[i]) >= filepath.Base(path) {
			continue
		}
		data, err := os.ReadFile(files[i])
		var rec benchFile
		if err == nil && json.Unmarshal(data, &rec) == nil && rec.Wall != nil {
			return files[i], rec.Wall
		}
	}
	return "", nil
}

// printWallDeltas prints every end-to-end metric of wall beside its value
// in the newest earlier wall section. Informational only: the host's
// drift (up to about 30%, see perfbench/README.md) dwarfs a 1e-6 gate.
func printWallDeltas(path string, wall map[string]wallResult) {
	prevPath, prev := earlierWall(path)
	if prev == nil {
		fmt.Fprintf(os.Stderr, "benchdiff: wall clock (no earlier BENCH file has a wall section):\n")
	} else {
		fmt.Fprintf(os.Stderr, "benchdiff: wall clock vs %s (informational; host drift up to ~30%%):\n", prevPath)
	}
	names := make([]string, 0, len(wall))
	for n := range wall {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		res := wall[n]
		if !res.Correct || res.Failed > 0 {
			fmt.Fprintf(os.Stderr, "  %-8s correct=%v failed %d of %d\n", n, res.Correct, res.Failed, res.Attempted)
		}
		for _, m := range endToEnd {
			cur, ok := res.Metrics[m]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-8s %-15s %12.4g %s", n, m, cur.Value, cur.Unit)
			if old, ok := prev[n].Metrics[m]; ok && old.Value != 0 {
				line += fmt.Sprintf("  (was %.4g, %+.1f%%)", old.Value, 100*(cur.Value/old.Value-1))
			}
			fmt.Fprintln(os.Stderr, line)
		}
	}
}
