package simfarm

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Options tune a Farm.
type Options struct {
	// Parallelism is the worker-pool size — how many independent sim
	// kernels run concurrently. 0 selects runtime.GOMAXPROCS(0); negative
	// values are rejected by Validate/New with an *OptionsError. The
	// Summary does not depend on this knob.
	Parallelism int
	// Runner overrides per-cell execution (nil = the fleet runner that
	// deploys a fresh three-site testbed per cell). Tests use it to
	// script failing or panicking cells; a Runner must be safe for
	// concurrent calls from Parallelism goroutines.
	Runner func(Cell) (*experiments.FleetResult, error)
}

// Validate rejects option values that are always caller bugs.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return &OptionsError{
			Field: "Options.Parallelism", Value: int64(o.Parallelism),
			Reason: "worker count must not be negative (0 selects GOMAXPROCS)",
		}
	}
	return nil
}

func (o Options) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Farm executes one sweep matrix. Build with New, observe progress via
// Events, then Run once.
type Farm struct {
	m     Matrix
	opts  Options
	clock sim.Time
	ev    *metrics.EventLog
	ran   bool
}

// New validates the matrix and options and builds a farm.
func New(m Matrix, opts Options) (*Farm, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	f := &Farm{m: m, opts: opts}
	// The farm has no single simulated clock — each cell runs its own
	// kernel — so the progress trail is stamped with the *committed*
	// cell's simulated end time. Commits happen in enumeration order, so
	// the trail is deterministic (though not monotone: cells are
	// independent simulations that all start at their own epoch).
	f.ev = metrics.NewEventLog(func() sim.Time { return f.clock })
	return f, nil
}

// Matrix returns the farm's (validated) matrix.
func (f *Farm) Matrix() Matrix { return f.m }

// Events returns the farm's progress log: one EventSweepCell per
// committed cell and one EventSweepRow per completed matrix row, in
// enumeration order. Wire SetNotify into it before Run to stream live.
func (f *Farm) Events() *metrics.EventLog { return f.ev }

// Run executes the sweep: cells fan out over the worker pool, finish in
// whatever order the scheduler produces, and are committed — aggregated,
// logged — strictly in enumeration order. On context cancellation the
// cells already started run to completion (a cell's simulation has no
// internal blocking), unstarted cells are marked skipped, and Run
// returns the partial Result alongside ctx.Err().
func (f *Farm) Run(ctx context.Context) (*Result, error) {
	if f.ran {
		return nil, fmt.Errorf("simfarm: farm already run")
	}
	f.ran = true

	cells := f.m.Cells()
	results := make([]RunResult, len(cells))
	done := make([]chan struct{}, len(cells))
	for i := range done {
		done[i] = make(chan struct{})
	}

	start := time.Now()
	workers := f.opts.parallelism()
	if workers > len(cells) {
		workers = len(cells)
	}
	var next int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(cells) {
					return
				}
				if ctx.Err() != nil {
					results[i] = RunResult{
						Cell:      cells[i].Label(),
						Directive: cells[i].Directive.Name,
						Plan:      cells[i].Plan.Name,
						Seed:      cells[i].Seed,
						Skipped:   true,
					}
				} else {
					results[i] = f.runCell(cells[i])
				}
				close(done[i])
			}
		}()
	}

	// Aggregate in enumeration order, never completion order: cell i is
	// not looked at before every cell < i has been committed.
	perRow := f.m.Seeds.count()
	for i := range cells {
		<-done[i]
		r := results[i]
		if r.Skipped {
			continue
		}
		f.clock = sim.FromSeconds(r.FinishedSimS)
		detail := fmt.Sprintf("makespan %.2fs downtime %.2fs %s", r.MakespanS, r.DowntimeS, outcomeString(r.Outcomes))
		if !r.DeadlineMet {
			detail += " DEADLINE-MISS"
		}
		if r.Err != "" {
			detail = "FAILED: " + r.Err
		}
		f.ev.Record(metrics.EventSweepCell, r.Directive+"/"+r.Plan, fmt.Sprintf("seed%02d", r.Seed), detail)
		if (i+1)%perRow == 0 {
			f.ev.Record(metrics.EventSweepRow, r.Directive+"/"+r.Plan, "",
				fmt.Sprintf("row %d/%d aggregated (%d seed(s))", cells[i].Row+1, f.m.Rows(), perRow))
		}
	}

	elapsed := time.Since(start)
	res := &Result{
		Summary: summarize(f.m, results),
		Cells:   results,
		Wall:    WallStats{Parallelism: workers, Elapsed: elapsed},
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.Wall.RunsPerSec = float64(res.Summary.Runs) / secs
	}
	return res, ctx.Err()
}

// runCell executes one cell under the panic guard: a panicking run —
// whether it escapes the fleet executor, the kernel, or a custom Runner —
// is recorded as that cell's failure instead of killing the sweep. (Sim
// proc panics re-panic out of Kernel.Run on this worker's goroutine, so
// the guard catches those too.)
func (f *Farm) runCell(cell Cell) (out RunResult) {
	out = RunResult{
		Cell:      cell.Label(),
		Directive: cell.Directive.Name,
		Plan:      cell.Plan.Name,
		Seed:      cell.Seed,
	}
	defer func() {
		if r := recover(); r != nil {
			out.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	run := f.opts.Runner
	if run == nil {
		if cell.Directive.Spec.Kind == "churn" {
			return runChurnCell(cell, out)
		}
		run = runFleetCell
	}
	res, err := run(cell)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	out.MakespanS = res.Row.Makespan.Seconds()
	out.DowntimeS = res.Row.Downtime.Seconds()
	out.DeadlineMet = res.Row.Deadline
	out.Replans = res.Row.Replans
	out.Requeues = res.Row.Requeues
	out.FinishedSimS = res.Report.Finished.Seconds()
	out.Outcomes = map[string]int{}
	for _, jo := range res.Report.Jobs {
		label := string(jo.Outcome)
		if label == "" {
			label = "unknown"
		}
		out.Outcomes[label]++
	}
	return out
}

// runChurnCell executes one churn-directive cell: the cell seed becomes
// the workload seed (so the replication axis sweeps workloads, not just
// fault draws), and the cell's fault plan materializes against the churn
// deployment's node names — churn cells have no VMs, so a VictimVM spec
// fails the cell loudly rather than silently picking nothing.
func runChurnCell(cell Cell, out RunResult) RunResult {
	cfg, sc := cell.Directive.Spec.Churn()
	cfg.Workload.Seed = cell.Seed
	if len(cell.Plan.Specs) > 0 {
		rng := rand.New(rand.NewSource(cell.Seed))
		plan, err := cell.Plan.materialize(cell.Seed, rng, nil, experiments.ChurnVictims(cfg))
		if err != nil {
			out.Err = err.Error()
			return out
		}
		sc.Faults = &plan
	}
	res, err := experiments.RunChurnScenario(cfg, sc)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	rep := res.Report
	out.MakespanS = rep.Duration.Seconds()
	out.DowntimeS = rep.WaitTotal.Seconds()
	out.DeadlineMet = rep.Rejected == 0
	out.Replans = rep.SwapMigs
	out.Requeues = rep.FaultMigs
	out.FinishedSimS = rep.Duration.Seconds()
	out.Outcomes = map[string]int{}
	if rep.Departed > 0 {
		out.Outcomes["departed"] = rep.Departed
	}
	if rep.Rejected > 0 {
		out.Outcomes["rejected"] = rep.Rejected
	}
	return out
}

// runFleetCell is the default cell runner: materialize the cell's fault
// plan with the cell's own seeded PRNG (victims and jitter are drawn from
// it; nothing global), inject it into a copy of the scenario, and run a
// fresh fleet deployment.
func runFleetCell(cell Cell) (*experiments.FleetResult, error) {
	cfg, sc := cell.Directive.Spec.Fleet()
	if len(cell.Plan.Specs) > 0 {
		rng := rand.New(rand.NewSource(cell.Seed))
		vms, dstNodes := experiments.FleetVictims(cfg)
		plan, err := cell.Plan.materialize(cell.Seed, rng, vms, dstNodes)
		if err != nil {
			return nil, err
		}
		sc.ExtraFaults = &plan
	}
	return experiments.RunFleetScenario(cfg, sc)
}
