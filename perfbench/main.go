// Command perfbench is the repository's wall-clock benchmark. It drives
// the simulator only from outside — the public functions of
// internal/experiments, internal/simfarm, internal/sim, internal/fleet and
// internal/jobs, plus HTTP to a ninjad process built from the repository —
// on the program's defaults, and checks every simulated result it gets
// back. See README.md for the workloads and metrics.
//
//	perfbench -workload paper|sweep|churn|control -seed N -seconds S -trace 0|1
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With -trace 0 the metrics
// are the end-to-end ones; with -trace 1 they are the per-layer ones of a
// separate traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// defaultSeed is the seed the recorded digests in digests.go belong to.
const defaultSeed = 1

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median.
const setupRepeats = 5

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	ninjad   string // ninjad binary (control workload only)
	workDir  string // scratch space inside the checkout
	traceDir string // where the traced run writes spans and the layer table
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names the metrics a -trace 0 run prints, in print order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	var record bool
	fs.StringVar(&cfg.workload, "workload", "", "workload: paper, sweep, churn or control")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed (>= 0)")
	fs.IntVar(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = separate traced run printing the per-layer metrics")
	fs.StringVar(&cfg.ninjad, "ninjad", ".bench_build/bin/ninjad", "ninjad binary for the control workload")
	fs.StringVar(&cfg.workDir, "work-dir", ".bench_build/tmp", "scratch directory")
	fs.StringVar(&cfg.traceDir, "trace-dir", ".bench_build/trace", "output directory of the traced run")
	fs.BoolVar(&record, "record", false, "print digests.go for the default seed and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if record {
		if err := recordDigests(cfg, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if cfg.seed < 0 || cfg.seed >= 1<<40 || cfg.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need 0 <= -seed < 2^40, -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	cfg.trace = traceFlag == 1
	res, err := runWorkload(cfg)
	if err == nil {
		err = printResult(stdout, res)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func runWorkload(cfg config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workDir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.workDir = dir
	switch cfg.workload {
	case "paper":
		return runInProcess(cfg, &paperWorkload{})
	case "sweep":
		return runInProcess(cfg, &sweepWorkload{seed: cfg.seed})
	case "churn":
		return runInProcess(cfg, &churnWorkload{seed: cfg.seed})
	case "control":
		return runControl(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (want paper, sweep, churn or control)", cfg.workload)
}

// printResult prints every metric by name with its unit, then the JSON
// result as the last line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-40s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "attempted %d failed %d\n", res.Attempted, res.Failed)
	line, err := json.Marshal(res) // fails on a NaN or infinite value
	if err != nil {
		return fmt.Errorf("result: %w", err)
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// newResult fills in the counters; correct means no op failed.
func newResult(attempted, failed int, ms map[string]metric) *result {
	return &result{Correct: failed == 0 && attempted > 0, Attempted: attempted, Failed: failed, Metrics: ms}
}

// writeJSONFile writes v, indented, to dir/name.
func writeJSONFile(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644)
}

// errCheck marks a correctness-check mismatch.
var errCheck = errors.New("correctness check failed")

// since returns the seconds elapsed from t.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
