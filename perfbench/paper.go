package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/experiments"
)

// fig7Scale shrinks Fig. 7's NPB iteration counts so one pass over the
// paper set takes about a second and a run holds many passes.
const fig7Scale = 0.1

// paperOp is one table or figure of the paper set.
type paperOp struct {
	id  string
	run func() (any, error)
}

var paperOps = []paperOp{
	{"table2", func() (any, error) { return experiments.Table2() }},
	{"fig6", func() (any, error) { return experiments.Fig6(nil) }},
	{"fig7", func() (any, error) { return experiments.Fig7(nil, fig7Scale) }},
	{"fig8a", func() (any, error) { return experiments.Fig8(1, 40) }},
	{"fig8b", func() (any, error) { return experiments.Fig8(8, 40) }},
}

// paperWorkload regenerates the paper's tables and figures. Its inputs are
// the paper's, so it takes no seed; every op's rows must hash to the
// digest recorded in digests.go.
type paperWorkload struct{}

// warmup regenerates Table II, the first op of a pass.
func (w *paperWorkload) warmup() error {
	_, err := paperOps[0].run()
	return err
}

func (w *paperWorkload) pass(m *meter, p int) {
	start := time.Now()
	id := m.rec.reserve(0, "paper.pass")
	for _, op := range paperOps {
		m.op(id, "experiments."+op.id, func() (float64, error) {
			rows, err := op.run()
			if err != nil {
				return 1, err
			}
			return 1, checkPaper(op.id, rows)
		})
	}
	end := time.Now()
	m.rec.finish(id, start, end)
	m.latencyMS = append(m.latencyMS, end.Sub(start).Seconds()*1e3)
}

// checkPaper compares an op's rows with the recorded digest.
func checkPaper(id string, rows any) error {
	got, err := digestJSON(rows)
	if err != nil {
		return err
	}
	if want := paperDigests[id]; got != want {
		return fmt.Errorf("%w: %s rows digest %s, recorded %s", errCheck, id, got, want)
	}
	return nil
}

func (w *paperWorkload) layerMetrics(rec *recorder) map[string]float64 {
	out := map[string]float64{}
	for _, op := range paperOps {
		out["experiments."+op.id+"_ms"] = median(rec.durationsMS("experiments." + op.id))
	}
	return out
}

// digestJSON hashes v's JSON encoding.
func digestJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	return digest(data), nil
}

// digest is the first 16 hex digits of data's SHA-256.
func digest(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
