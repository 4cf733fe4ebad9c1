// Command ninjabench regenerates every table and figure of the paper's
// evaluation section (§IV) and prints them in the paper's layout.
//
// Usage:
//
//	ninjabench -run=all            # everything (Fig. 7 takes the longest)
//	ninjabench -run=table2
//	ninjabench -run=fig7 -scale=0.25
//	ninjabench -run=fig8a,fig8b
//	ninjabench -run=ext-fleet -fleet-jobs=4
//	ninjabench -run=ext-fleet -fleet-seq=maxflow          # max-flow rounds vs the capped LPT rows
//	ninjabench -run=ext-churn -churn-jobs=64              # online churn: greedy vs destination-swap
//	ninjabench -run=ext-sweep -sweep-seeds=32             # Monte Carlo fault sweep
//	ninjabench -run=ext-sweep -sweep-par=8 -sweep-jobs=2  # fixed worker count
//	ninjabench -run=table2,ext-fleet -json results.json
//	ninjabench -run=ext-fleet -cpuprofile fleet.pprof
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/simfarm"
)

// main delegates to run so deferred profile writers and the partial -json
// flush still execute on the interrupted and failed exit paths.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx))
}

// run executes the selected benchmarks, checking ctx between blocks:
// Ctrl-C finishes the block in flight, flushes whatever tables completed
// (including a partial -json dump), and exits 130.
func run(ctx context.Context) int {
	run := flag.String("run", "all", "comma-separated: table1,table2,fig6,fig7,fig8a,fig8b,ext-faults,ext-rdma,ext-fleet,ext-churn,ext-sweep or 'all'")
	scale := flag.Float64("scale", 1.0, "iteration scale for fig7 (1.0 = full class D)")
	fleetJobs := flag.Int("fleet-jobs", 0, "fleet size for ext-fleet (0 = default 8-job evacuation)")
	drainCap := flag.Int("fleet-drain-cap", 0, "jobs-in-flight cap per rolling-maintenance mini-plan (0 = default 2)")
	fleetSeq := flag.String("fleet-seq", "", "sequencing mode for ext-fleet: lpt (default) or maxflow (time-expanded max-flow rounds)")
	churnJobs := flag.Int("churn-jobs", 0, "arrival count for ext-churn (0 = default 64 jobs)")
	churnSeed := flag.Int64("churn-seed", 0, "workload seed for ext-churn")
	sweepSeeds := flag.Int("sweep-seeds", 32, "seeds per matrix row for ext-sweep")
	sweepPar := flag.Int("sweep-par", 0, "worker count for ext-sweep (0 = run at 1 and 8, verify byte-identical summaries, report speedup)")
	sweepJobs := flag.Int("sweep-jobs", 0, "fleet size per ext-sweep cell (0 = default 4 jobs)")
	jsonPath := flag.String("json", "", "also write the selected tables to this file as JSON")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the selected runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the selected runs) to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ninjabench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ninjabench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ninjabench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ninjabench: memprofile: %v\n", err)
			}
		}()
	}

	// fail reports a failed block; run returns its result rather than
	// exiting, so the deferred profile writers still run.
	fail := func(id string, err error) int {
		fmt.Fprintf(os.Stderr, "ninjabench: %s: %v\n", id, err)
		return 1
	}

	// emit prints a table and keeps it for the -json dump.
	var tables []*metrics.Table
	emit := func(t *metrics.Table) {
		tables = append(tables, t)
		fmt.Println(t)
	}

	want := map[string]bool{}
	if *run == "all" {
		for _, id := range []string{"table1", "table2", "fig6", "fig7", "fig8a", "fig8b",
			"ext-scalability", "ext-coldvslive", "ext-bypass", "ext-faults", "ext-rdma",
			"ext-fleet", "ext-churn", "ext-sweep"} {
			want[id] = true
		}
	} else {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(strings.ToLower(id))] = true
		}
	}

	if want["table1"] && ctx.Err() == nil {
		emit(experiments.Table1())
	}
	if want["table2"] && ctx.Err() == nil {
		rows, err := experiments.Table2()
		if err != nil {
			return fail("table2", err)
		}
		emit(experiments.Table2Render(rows))
	}
	if want["fig6"] && ctx.Err() == nil {
		rows, err := experiments.Fig6(nil)
		if err != nil {
			return fail("fig6", err)
		}
		emit(experiments.Fig6Render(rows))
	}
	if want["fig7"] && ctx.Err() == nil {
		rows, err := experiments.Fig7(nil, *scale)
		if err != nil {
			return fail("fig7", err)
		}
		if *scale != 1.0 {
			fmt.Printf("(fig7 at scale %.2f — iteration counts reduced proportionally)\n", *scale)
		}
		emit(experiments.Fig7Render(rows))
	}
	for _, f := range []struct {
		id    string
		ranks int
	}{{"fig8a", 1}, {"fig8b", 8}} {
		if !want[f.id] || ctx.Err() != nil {
			continue
		}
		res, err := experiments.Fig8(f.ranks, 40)
		if err != nil {
			return fail(f.id, err)
		}
		emit(experiments.Fig8Render(res))
		fmt.Println(res.Series.Bars(50))
		for i, rep := range res.Reports {
			fmt.Printf("migration %d: coordination %.2fs, hotplug %.2fs, migration %.2fs, link-up %.2fs, total %.2fs\n",
				i+1, rep.Coordination.Seconds(), rep.Hotplug().Seconds(),
				rep.Migration.Seconds(), rep.Linkup.Seconds(), rep.Total.Seconds())
		}
		fmt.Println()
	}
	if want["ext-scalability"] && ctx.Err() == nil {
		rows, err := experiments.ExtScalability(nil)
		if err != nil {
			return fail("ext-scalability", err)
		}
		emit(experiments.ExtScalabilityRender(rows))
	}
	if want["ext-coldvslive"] && ctx.Err() == nil {
		rows, err := experiments.ExtColdVsLive(nil)
		if err != nil {
			return fail("ext-coldvslive", err)
		}
		emit(experiments.ExtColdVsLiveRender(rows))
	}
	if want["ext-bypass"] && ctx.Err() == nil {
		rows, err := experiments.ExtBypassOverhead()
		if err != nil {
			return fail("ext-bypass", err)
		}
		emit(experiments.ExtBypassOverheadRender(rows))
	}
	if want["ext-faults"] && ctx.Err() == nil {
		rows, err := experiments.ExtFaultMatrix()
		if err != nil {
			return fail("ext-faults", err)
		}
		emit(experiments.ExtFaultMatrixRender(rows))
	}
	if want["ext-rdma"] && ctx.Err() == nil {
		rows, err := experiments.ExtRDMA()
		if err != nil {
			return fail("ext-rdma", err)
		}
		emit(experiments.ExtRDMARender(rows))
	}
	if want["ext-fleet"] && ctx.Err() == nil {
		rows, err := experiments.ExtFleetMatrixCtx(ctx,
			experiments.FleetConfig{Jobs: *fleetJobs}, *drainCap, *fleetSeq)
		if err != nil && !errors.Is(err, context.Canceled) {
			return fail("ext-fleet", err)
		}
		emit(experiments.ExtFleetRender(rows))
	}

	if want["ext-churn"] && ctx.Err() == nil {
		var cfg experiments.ChurnConfig
		cfg.Workload.Jobs = *churnJobs
		cfg.Workload.Seed = *churnSeed
		rows, err := experiments.ExtChurnMatrixCtx(ctx, cfg)
		if err != nil && !errors.Is(err, context.Canceled) {
			return fail("ext-churn", err)
		}
		emit(experiments.ExtChurnRender(rows))
	}

	if want["ext-sweep"] && ctx.Err() == nil {
		tbl, err := runSweep(ctx, *sweepJobs, *sweepSeeds, *sweepPar)
		if err != nil && !errors.Is(err, context.Canceled) {
			return fail("ext-sweep", err)
		}
		if tbl != nil {
			emit(tbl)
		}
	}

	if *jsonPath != "" {
		out, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			return fail("json", err)
		}
		if err := os.WriteFile(*jsonPath, append(out, '\n'), 0o644); err != nil {
			return fail("json", err)
		}
		fmt.Fprintf(os.Stderr, "ninjabench: wrote %d table(s) to %s\n", len(tables), *jsonPath)
	}
	if ctx.Err() != nil {
		fmt.Fprintf(os.Stderr, "ninjabench: interrupted; %d table(s) completed before the signal\n", len(tables))
		return 130
	}
	return 0
}

// runSweep runs the default Monte Carlo matrix. With par > 0 it runs once
// at that worker count; with par = 0 it runs the same matrix at
// parallelism 1 and 8, verifies the two summaries are byte-identical (the
// farm's core determinism claim), and reports the wall-clock speedup.
func runSweep(ctx context.Context, jobs, seeds, par int) (*metrics.Table, error) {
	m := simfarm.DefaultMatrix(jobs, seeds)
	fmt.Printf("ext-sweep: %d directive(s) × %d plan(s) × %d seed(s) = %d run(s)\n",
		len(m.Directives), len(m.Plans), m.Seeds.Count, m.Runs())

	runOnce := func(par int) (*simfarm.Result, error) {
		f, err := simfarm.New(m, simfarm.Options{Parallelism: par})
		if err != nil {
			return nil, err
		}
		res, err := f.Run(ctx)
		if res != nil {
			fmt.Printf("ext-sweep: parallelism %d: %d run(s) in %.2fs (%.0f runs/sec)\n",
				res.Wall.Parallelism, res.Summary.Runs, res.Wall.Elapsed.Seconds(), res.Wall.RunsPerSec)
		}
		return res, err
	}

	if par > 0 {
		res, err := runOnce(par)
		if res == nil {
			return nil, err
		}
		return res.Summary.Render(), err
	}

	seq, err := runOnce(1)
	if seq == nil || err != nil {
		if seq != nil {
			return seq.Summary.Render(), err
		}
		return nil, err
	}
	pool, err := runOnce(8)
	if pool == nil {
		return seq.Summary.Render(), err
	}
	if a, b := seq.Summary.JSON(), pool.Summary.JSON(); !bytes.Equal(a, b) {
		return nil, fmt.Errorf("summaries differ between parallelism 1 and 8 — determinism contract broken:\n%s\nvs\n%s", a, b)
	}
	fmt.Printf("ext-sweep: summaries byte-identical at parallelism 1 and 8; speedup %.2fx (wall-clock, %d CPU(s))\n",
		seq.Wall.Elapsed.Seconds()/pool.Wall.Elapsed.Seconds(), runtime.NumCPU())
	return pool.Summary.Render(), err
}
