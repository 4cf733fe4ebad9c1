package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/simfarm"
)

// Each workload's correctness check must count an altered result as a
// failed op, and the unaltered result as a passed one.

func TestPaperCheckCountsAlteredRows(t *testing.T) {
	m := &meter{}
	for _, alter := range []bool{false, true} {
		m.op(0, "experiments.table2", func() (float64, error) {
			rows, err := experiments.Table2()
			if err != nil {
				return 1, err
			}
			if alter {
				rows[0].Hotplug++
			}
			return 1, checkPaper("table2", rows)
		})
	}
	if m.attempted != 2 || m.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1 (only the altered rows fail)", m.attempted, m.failed)
	}
}

// withDigest swaps one recorded digest for the length of a test.
func withDigest(t *testing.T, table []string, i int, v string) {
	old := table[i]
	table[i] = v
	t.Cleanup(func() { table[i] = old })
}

func TestSweepCheckCountsAlteredSummary(t *testing.T) {
	w := &sweepWorkload{seed: defaultSeed}
	m := &meter{}
	w.pass(m, 0)
	runs := sweepMatrix(defaultSeed, 0).Runs()
	if m.attempted != runs || m.failed != 0 {
		t.Fatalf("clean pass: attempted %d failed %d, want %d and 0", m.attempted, m.failed, runs)
	}
	s := *w.pass0
	s.Rows = append([]simfarm.RowSummary(nil), s.Rows...)
	s.Rows[0].Makespan.P50 += 0.001
	if err := checkSweep(defaultSeed, 0, sweepMatrix(defaultSeed, 0), s); !errors.Is(err, errCheck) {
		t.Fatalf("altered summary: got %v, want a check failure", err)
	}
	// An off-digest pass counts every one of its cells failed.
	withDigest(t, sweepDigests, 0, "0000000000000000")
	w.pass(m, 0)
	if m.failed != runs {
		t.Fatalf("mismatched pass: failed %d, want %d", m.failed, runs)
	}
	// A held-out seed has no digest; the invariants still catch a failure.
	s.Failures = 1
	if err := checkSweep(defaultSeed+1, 0, sweepMatrix(defaultSeed+1, 0), s); !errors.Is(err, errCheck) {
		t.Fatalf("failed cell at a held-out seed: got %v, want a check failure", err)
	}
}

func TestChurnCheckCountsAlteredReports(t *testing.T) {
	w := &churnWorkload{seed: defaultSeed}
	m := &meter{}
	w.pass(m, 0)
	if m.attempted != 6 || m.failed != 0 {
		t.Fatalf("clean pass: attempted %d failed %d, want 6 and 0", m.attempted, m.failed)
	}
	reps := append(w.pass0[:0:0], w.pass0...)
	reps[1].SwapMigs++
	if err := checkChurn(defaultSeed, 0, reps); !errors.Is(err, errCheck) {
		t.Fatalf("altered report: got %v, want a check failure", err)
	}
	withDigest(t, churnDigests, 0, "0000000000000000")
	w.pass(m, 0)
	if m.failed != 6 {
		t.Fatalf("mismatched pass: failed %d, want 6", m.failed)
	}
}

func TestControlCheckCountsAlteredResult(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ninjad")
	}
	bin := filepath.Join(t.TempDir(), "ninjad")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ninjad")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build ninjad: %v\n%s", err, out)
	}
	d, err := spawnNinjad(bin, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	c := newClient(0, defaultSeed, d.base, nil, &resultChecker{})
	defer c.http.CloseIdleConnections()
	kind := controlMix[0]
	for i := 0; i < 2; i++ {
		body := fmt.Sprintf(`{"id":"check-%d","directive":%s}`, i, kind.body)
		if status, _, _, err := c.do(0, "", http.MethodPost, "/jobs", body); err != nil || status != http.StatusCreated {
			t.Fatalf("submit: %d %v", status, err)
		}
	}
	var recs []jobs.Record
	for i := 0; i < 2; i++ {
		for deadline := time.Now().Add(jobTimeout); ; {
			_, data, _, err := c.do(0, "", http.MethodGet, fmt.Sprintf("/jobs/check-%d", i), "")
			if err != nil {
				t.Fatal(err)
			}
			var rec jobs.Record
			if err := json.Unmarshal(data, &rec); err != nil {
				t.Fatal(err)
			}
			if rec.State.Terminal() {
				recs = append(recs, rec)
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("job did not finish")
			}
			time.Sleep(pollInterval)
		}
	}
	if err := c.checker.check(kind.name, recs[0]); err != nil {
		t.Fatalf("recorded result: %v", err)
	}
	if err := c.checker.check(kind.name, recs[1]); err != nil {
		t.Fatalf("second identical result: %v", err)
	}
	altered := recs[1]
	altered.Result = json.RawMessage(`{"scenario":"altered"}`)
	if err := c.checker.check(kind.name, altered); !errors.Is(err, errCheck) {
		t.Fatalf("altered result: got %v, want a check failure", err)
	}
	// Without a recorded digest, results of one directive must still agree.
	rc := &resultChecker{}
	if err := rc.check("unrecorded", recs[0]); err != nil {
		t.Fatal(err)
	}
	if err := rc.check("unrecorded", altered); !errors.Is(err, errCheck) {
		t.Fatalf("differing results: got %v, want a check failure", err)
	}
	failed := recs[0]
	failed.State = jobs.Failed
	if err := rc.check("unrecorded", failed); !errors.Is(err, errCheck) {
		t.Fatalf("failed job: got %v, want a check failure", err)
	}
}

// A traced run prints every per-layer metric, and its self_frac shares sum
// to at most 1.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	res, err := runWorkload(config{workload: "churn", seed: defaultSeed, seconds: 2, trace: true,
		workDir: t.TempDir(), traceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("traced run: %d of %d ops failed", res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("%d metrics printed, %d in the catalogue", len(res.Metrics), len(perLayer))
	}
	var sum float64
	for _, l := range layers {
		sum += res.Metrics[l+".self_frac"].Value
	}
	if sum <= 0 || sum > 1+1e-9 {
		t.Fatalf("self_frac shares sum to %v, want (0, 1]", sum)
	}
	if res.Metrics["churn.self_frac"].Value == 0 {
		t.Fatal("churn workload charged nothing to the churn layer")
	}
}

func TestFoldRaw(t *testing.T) {
	raw := `PeriodType: cpu nanoseconds
Samples:
samples/count cpu/nanoseconds
          2   20000000: 1 2
          1   10000000: 3 4
          1   10000000: 5
          1   10000000: 6 2
          1   10000000: 7
Locations
     1: 0x1 M=1 runtime.chansend /go/src/runtime/chan.go:193:0 s=176
     2: 0x2 M=1 repro/internal/sim.(*Proc).park /r/internal/sim/proc.go:72:0 s=70
             repro/internal/sim.(*Future[go.shape.struct {}]).Wait /r/internal/sim/sync.go:52:0 s=49
             repro/internal/sim.(*PS).Serve /r/internal/sim/ps.go:222:0 s=221
     3: 0x3 M=1 repro/internal/mpi/btl.(*BTL).Send /r/internal/mpi/btl/btl.go:10:0 s=1
     4: 0x4 M=1 repro/internal/sim.(*Kernel).RunUntil /r/internal/sim/kernel.go:293:0 s=282
     5: 0x5 M=1 runtime.gcDrain /go/src/runtime/mgcmark.go:1:0 s=1
     6: 0x6 M=1 repro/internal/sim.(*PS).replan /r/internal/sim/ps.go:100:0 s=90
     7: 0x7 M=1 runtime.schedule /go/src/runtime/proc.go:4017:0 s=3988
Mappings
`
	got, err := foldRaw([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim.proc": 2.0 / 6, "mpi": 1.0 / 6, "runtime.gc": 1.0 / 6, "sim.ps": 1.0 / 6, "runtime.other": 1.0 / 6}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for k, v := range want {
		if d := got[k] - v; d > 1e-12 || d < -1e-12 {
			t.Fatalf("%s: got %v, want %v (all %v)", k, got[k], v, got)
		}
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p, n := tail(xs); v != 90 || p != 90 || n != 100 {
		t.Fatalf("tail of 1..100 = %v at p%v of %d, want 90 at p90 of 100", v, p, n)
	}
	if _, p, _ := tail(xs[:19]); p != 0 {
		t.Fatalf("19 samples: got p%v, want no tail", p)
	}
}

// BENCHMARK.json must list exactly the workloads and metrics the
// benchmark prints.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if fmt.Sprint(names) != "[paper sweep churn control]" {
		t.Fatalf("workloads %v", names)
	}
	check := func(kind string, got []metricDef, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Fatalf("%s %d: BENCHMARK.json has %s [%s], benchmark prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
