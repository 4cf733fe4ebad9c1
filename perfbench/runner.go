package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// inProcess is a workload that runs inside the benchmark process as a
// sequence of passes. Pass p's inputs depend only on the seed and p.
type inProcess interface {
	// warmup runs one untimed op: the set-up a run pays before timing.
	warmup() error
	// pass runs pass p, recording its ops and user-visible latencies on m.
	pass(m *meter, p int)
	// layerMetrics derives the workload's own per-layer metrics from the
	// traced run's spans.
	layerMetrics(rec *recorder) map[string]float64
}

// timeSetup runs setup setupRepeats times and returns the median seconds.
func timeSetup(setup func() error) (float64, error) {
	var secs []float64
	for i := 0; i < setupRepeats; i++ {
		t := time.Now()
		if err := setup(); err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, since(t))
	}
	return median(secs), nil
}

// runPasses runs passes 0, 1, ... until stop holds before a pass, and
// returns the passes run and the seconds they took.
func runPasses(w inProcess, m *meter, stop func(p int, elapsed time.Duration) bool) (int, float64) {
	start := time.Now()
	p := 0
	for ; !stop(p, time.Since(start)); p++ {
		w.pass(m, p)
	}
	return p, since(start)
}

// forAtLeast stops after the first pass that ends past d.
func forAtLeast(d time.Duration) func(int, time.Duration) bool {
	return func(p int, elapsed time.Duration) bool { return p > 0 && elapsed >= d }
}

func runInProcess(cfg config, w inProcess) (*result, error) {
	setup, err := timeSetup(w.warmup)
	if err != nil {
		return nil, err
	}
	window := time.Duration(cfg.seconds) * time.Second
	if !cfg.trace {
		m := &meter{}
		_, secs := runPasses(w, m, forAtLeast(window))
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		return newResult(m.attempted, m.failed, map[string]metric{
			"setup_s":        {setup, "s"},
			"ops_per_s":      {m.units / secs, "1/s"},
			"latency_p50_ms": {median(m.latencyMS), "ms"},
			"peak_rss_mb":    {rss, "MB"},
		}), nil
	}

	// Traced run: the first half of the window runs untraced, then the same
	// passes run again with spans, allocation counts and a CPU profile.
	plain := &meter{}
	passes, plainSecs := runPasses(w, plain, forAtLeast(window/2))
	traced := &meter{rec: newRecorder()}
	profPath := filepath.Join(cfg.workDir, "cpu.pb.gz")
	prof, err := os.Create(profPath)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	_, tracedSecs := runPasses(w, traced, func(p int, _ time.Duration) bool { return p >= passes })
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return nil, err
	}
	shares, err := foldProfile(profPath)
	if err != nil {
		return nil, err
	}
	out := zeroLayerMetrics()
	for _, l := range layers {
		out[l+".self_frac"] = shares[l]
	}
	for k, v := range w.layerMetrics(traced.rec) {
		out[k] = v
	}
	if traced.allocOps > 0 {
		out["alloc.bytes_per_op"] = float64(traced.allocBytes) / float64(traced.allocOps)
		out["alloc.count_per_op"] = float64(traced.allocCount) / float64(traced.allocOps)
	}
	out["trace.overhead_frac"] = tracedSecs/plainSecs - 1
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	out["fail_frac"] = float64(failed) / float64(max(attempted, 1))
	if err := addProbes(out, cfg.workDir); err != nil {
		return nil, err
	}
	if err := writeTrace(cfg, traced.rec, shares); err != nil {
		return nil, err
	}
	return newResult(attempted, failed, layerResult(out)), nil
}

// writeTrace writes the traced run's spans and, when it has one, its
// layer table.
func writeTrace(cfg config, rec *recorder, shares map[string]float64) error {
	name := fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed)
	if err := writeJSONFile(cfg.traceDir, name+".spans.json", rec.spans); err != nil {
		return err
	}
	if shares == nil {
		return nil
	}
	return writeJSONFile(cfg.traceDir, name+".layers.json", shares)
}
