package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/simfarm"
)

// sweepSeeds is the seed count per matrix row of one pass: 5 directives ×
// 3 fault plans × 2 seeds = 30 cells, about a second at parallelism 1.
const sweepSeeds = 2

// passSeed is the first seed of pass p. Every pass draws fresh seeds, so a
// run averages the cost over many fault draws or workloads, and each run
// seed (below 2^40) owns a disjoint block of 1<<20 seeds.
func passSeed(seed int64, p, stride int) int64 {
	return seed<<20 + int64(p*stride) + 1
}

// sweepWorkload runs simfarm.DefaultMatrix passes through simfarm.New and
// Farm.Run at parallelism 1. One op is one committed cell.
type sweepWorkload struct {
	seed  int64
	pass0 *simfarm.Summary // kept for the simulated retry counts
}

func sweepMatrix(seed int64, p int) simfarm.Matrix {
	m := simfarm.DefaultMatrix(0, sweepSeeds)
	m.Seeds.Base = passSeed(seed, p, sweepSeeds)
	return m
}

// warmup runs a one-cell farm: the first directive, fault free.
func (w *sweepWorkload) warmup() error {
	m := sweepMatrix(w.seed, 0)
	m.Directives, m.Plans, m.Seeds.Count = m.Directives[:1], m.Plans[:1], 1
	res, err := runFarm(m)
	if err != nil {
		return err
	}
	if res.Summary.Failures != 0 {
		return fmt.Errorf("warm-up cell failed")
	}
	return nil
}

// runFarm runs a matrix at parallelism 1.
func runFarm(m simfarm.Matrix) (*simfarm.Result, error) {
	f, err := simfarm.New(m, simfarm.Options{Parallelism: 1})
	if err != nil {
		return nil, err
	}
	return f.Run(context.Background())
}

func (w *sweepWorkload) pass(m *meter, p int) {
	mat := sweepMatrix(w.seed, p)
	runs := mat.Runs()
	m.attempted += runs
	f, err := simfarm.New(mat, simfarm.Options{Parallelism: 1})
	if err != nil {
		m.failed += runs
		return
	}
	before := m.memStats()
	passID := m.rec.reserve(0, "simfarm.pass")
	start := time.Now()
	last := start
	cells, failedCells := 0, 0
	// At parallelism 1 a cell commits as soon as it finishes, so the gap
	// between two cell notifications is the later cell's cost.
	f.Events().SetNotify(func(ev metrics.Event) {
		if ev.Kind != metrics.EventSweepCell {
			return
		}
		now := time.Now()
		directive, _, _ := strings.Cut(ev.Phase, "/")
		m.rec.add(passID, "simfarm.cell."+directive, last, now)
		m.latencyMS = append(m.latencyMS, now.Sub(last).Seconds()*1e3)
		last = now
		cells++
		if strings.HasPrefix(ev.Detail, "FAILED") {
			failedCells++
		}
	})
	res, err := f.Run(context.Background())
	m.rec.finish(passID, start, time.Now())
	m.addAllocs(before, cells)
	m.units += float64(cells)
	if err == nil {
		err = checkSweep(w.seed, p, mat, res.Summary)
	}
	if err != nil {
		m.failed += runs
		return
	}
	m.failed += failedCells
	if p == 0 {
		w.pass0 = &res.Summary
	}
}

// checkSweep checks a pass's summary: against the recorded digest where
// one exists, and always against the seed-independent invariants.
func checkSweep(seed int64, p int, mat simfarm.Matrix, s simfarm.Summary) error {
	if s.Failures != 0 || s.Runs != mat.Runs() {
		return fmt.Errorf("%w: sweep pass %d: %d failures, %d/%d runs", errCheck, p, s.Failures, s.Runs, mat.Runs())
	}
	if seed == defaultSeed && p < len(sweepDigests) {
		if got := digest(s.JSON()); got != sweepDigests[p] {
			return fmt.Errorf("%w: sweep pass %d summary digest %s, recorded %s", errCheck, p, got, sweepDigests[p])
		}
	}
	return nil
}

func (w *sweepWorkload) layerMetrics(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	var all []float64
	for _, d := range simfarm.DefaultMatrix(0, 1).Directives {
		ds := rec.durationsMS("simfarm.cell." + d.Name)
		out["simfarm.cell_ms."+d.Name] = median(ds)
		all = append(all, ds...)
	}
	out["simfarm.cell_ms_p50"] = median(all)
	putTail(out, "simfarm.cell_ms_tail", all)
	if w.pass0 != nil {
		var replans, requeues, retried int
		for _, r := range w.pass0.Rows {
			replans += r.Replans
			requeues += r.Requeues
			retried += r.Outcomes[string(ninja.OutcomeRetriedOK)]
		}
		out["fleet.replans"] = float64(replans)
		out["fleet.requeues"] = float64(requeues)
		out["ninja.retried_jobs"] = float64(retried)
	}
	return out
}
