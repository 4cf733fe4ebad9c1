package main

import "fmt"

// perLayer is every per-layer metric a traced run prints, with its unit,
// in the order BENCHMARK.json lists them. A metric that a workload does
// not exercise reads 0 on that workload.
var perLayer = func() []struct{ name, unit string } {
	var out []struct{ name, unit string }
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, struct{ name, unit string }{n, unit})
		}
	}
	for _, l := range layers {
		add("ratio", l+".self_frac")
	}
	add("1/s", "sim.events_per_s")
	add("ns", "sim.switch_ns")
	add("ms", "fleet.plan_lpt_ms", "fleet.plan_maxflow_ms")
	add("ms", "experiments.table2_ms", "experiments.fig6_ms", "experiments.fig7_ms",
		"experiments.fig8a_ms", "experiments.fig8b_ms")
	add("ms", "simfarm.cell_ms_p50", "simfarm.cell_ms_tail")
	add("percentile", "simfarm.cell_ms_tail.pct")
	add("count", "simfarm.cell_ms_tail.n")
	add("ms", "simfarm.cell_ms.evac-greedy", "simfarm.cell_ms.evac-swap-batched",
		"simfarm.cell_ms.rolling-cap2", "simfarm.cell_ms.evac-swap-maxflow",
		"simfarm.cell_ms.evac-swap-rdma")
	add("ms", "churn.row_ms.greedy", "churn.row_ms.swap", "churn.row_ms.greedy-crash",
		"churn.row_ms.swap-crash", "churn.row_ms.swap-maxflow", "churn.row_ms.swap-maxflow-crash")
	add("ms", "jobs.submit_p50_ms", "jobs.status_p50_ms", "jobs.list_p50_ms", "jobs.done_tail_ms")
	add("percentile", "jobs.done_tail_ms.pct")
	add("count", "jobs.done_tail_ms.n")
	add("ms", "jobs.queue_wait_ms_p50", "jobs.claim_ms_p50", "jobs.run_ms_p50")
	add("ms", "jobs.store.save_ms_p50", "jobs.store.load_ms_p50")
	add("count", "jobs.attempts_per_job", "jobs.idempotent_hits")
	add("B", "alloc.bytes_per_op")
	add("count", "alloc.count_per_op")
	add("count", "fleet.replans", "fleet.requeues", "ninja.retried_jobs",
		"churn.swap_migs", "churn.fault_migs", "churn.rejected")
	add("ratio", "fail_frac", "trace.overhead_frac")
	return out
}()

// zeroLayerMetrics returns every per-layer metric at 0.
func zeroLayerMetrics() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = 0
	}
	return out
}

// layerResult attaches units to a traced run's values. A name outside
// perLayer is a bug in the benchmark.
func layerResult(vals map[string]float64) map[string]metric {
	units := make(map[string]string, len(perLayer))
	for _, m := range perLayer {
		units[m.name] = m.unit
	}
	out := make(map[string]metric, len(vals))
	for n, v := range vals {
		u, ok := units[n]
		if !ok {
			panic(fmt.Sprintf("perfbench: per-layer metric %q is not in the catalogue", n))
		}
		out[n] = metric{v, u}
	}
	return out
}
