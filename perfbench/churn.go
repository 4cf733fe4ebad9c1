package main

import (
	"fmt"
	"time"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

// churnConfig scales the churn testbed well past the 8-node default:
// 16+16 nodes × 4 slots, and arrivals fast enough that about one row in
// ten queues a placement. The destination-swap rows then take about 99%
// of a pass, most of it in the proposal search, while the greedy rows
// barely search. Rows are short so a run averages over many workload
// seeds: the cost of a pass varies by about 25% from seed to seed.
var churnConfig = experiments.ChurnConfig{
	IBNodes: 16, EthNodes: 16, SlotsPerNode: 4,
	Workload: churn.Workload{Jobs: 150, ArrivalRate: 0.7},
}

// churnWorkload runs the experiments.ExtChurnScenarios matrix, one
// scenario at a time through experiments.RunChurnScenario (as
// ExtChurnMatrix does), so each row is timed and its Report is kept. One
// op is one row; its work units are the row's arrivals.
type churnWorkload struct {
	seed  int64
	pass0 []churn.Report // kept for the simulated migration counts
}

// rowSlug names a scenario row in metric names.
func rowSlug(sc experiments.ChurnScenario) string {
	s := "greedy"
	if sc.Policy == churn.PolicySwap {
		s = "swap"
	}
	if sc.Seq.Mode == fleet.SeqMaxFlow {
		s += "-maxflow"
	}
	if sc.Faults != nil {
		s += "-crash"
	}
	return s
}

func churnConfigFor(seed int64, p int) experiments.ChurnConfig {
	cfg := churnConfig
	cfg.Workload.Seed = passSeed(seed, p, 1)
	return cfg
}

// warmup runs the destination-swap row of the first pass.
func (w *churnWorkload) warmup() error {
	_, err := runChurnRow(churnConfigFor(w.seed, 0), experiments.ExtChurnScenarios()[1])
	return err
}

// runChurnRow runs one row and checks the seed-independent invariant.
func runChurnRow(cfg experiments.ChurnConfig, sc experiments.ChurnScenario) (churn.Report, error) {
	res, err := experiments.RunChurnScenario(cfg, sc)
	if err != nil {
		return churn.Report{}, err
	}
	rep := res.Report
	if rep.Placed+rep.Rejected != rep.Arrived {
		return rep, fmt.Errorf("%w: churn %s: placed %d + rejected %d != arrived %d",
			errCheck, sc.Label(), rep.Placed, rep.Rejected, rep.Arrived)
	}
	return rep, nil
}

func (w *churnWorkload) pass(m *meter, p int) {
	cfg := churnConfigFor(w.seed, p)
	start := time.Now()
	passID := m.rec.reserve(0, "churn.matrix")
	failedBefore := m.failed
	scenarios := experiments.ExtChurnScenarios()
	var reps []churn.Report
	for _, sc := range scenarios {
		m.op(passID, "churn.row."+rowSlug(sc), func() (float64, error) {
			rep, err := runChurnRow(cfg, sc)
			reps = append(reps, rep)
			return float64(rep.Arrived), err
		})
	}
	end := time.Now()
	m.rec.finish(passID, start, end)
	m.latencyMS = append(m.latencyMS, end.Sub(start).Seconds()*1e3)
	if err := checkChurn(w.seed, p, reps); err != nil {
		m.failed = failedBefore + len(scenarios)
		return
	}
	if p == 0 {
		w.pass0 = reps
	}
}

// checkChurn compares the digest of the rows' Report.JSON() with the
// recorded one, where the seed has one.
func checkChurn(seed int64, p int, reps []churn.Report) error {
	if seed != defaultSeed || p >= len(churnDigests) {
		return nil
	}
	var all []byte
	for _, r := range reps {
		all = append(all, r.JSON()...)
	}
	if got := digest(all); got != churnDigests[p] {
		return fmt.Errorf("%w: churn pass %d report digest %s, recorded %s", errCheck, p, got, churnDigests[p])
	}
	return nil
}

func (w *churnWorkload) layerMetrics(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	for _, sc := range experiments.ExtChurnScenarios() {
		out["churn.row_ms."+rowSlug(sc)] = median(rec.durationsMS("churn.row." + rowSlug(sc)))
	}
	var swaps, faultMigs, rejected int
	for _, r := range w.pass0 {
		swaps += r.SwapMigs
		faultMigs += r.FaultMigs
		rejected += r.Rejected
	}
	out["churn.swap_migs"] = float64(swaps)
	out["churn.fault_migs"] = float64(faultMigs)
	out["churn.rejected"] = float64(rejected)
	return out
}
