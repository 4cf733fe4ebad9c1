package main

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/experiments"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/simfarm"
)

// jobResult is the deterministic result committed into the job record:
// simulated-clock quantities only, no wall-clock timestamps, so an
// interrupted-and-re-executed directive produces byte-identical bytes.
type jobResult struct {
	Scenario    string        `json:"scenario"`
	Jobs        int           `json:"jobs"`
	Batches     int           `json:"batches"`
	Score       int           `json:"score"`
	IBJobsOnIB  int           `json:"ib_jobs_on_ib"`
	IBJobs      int           `json:"ib_jobs"`
	PredictedS  float64       `json:"predicted_s"`
	MakespanS   float64       `json:"makespan_s"`
	DowntimeS   float64       `json:"downtime_s"`
	DeadlineMet bool          `json:"deadline_met"`
	Replans     int           `json:"replans"`
	Requeues    int           `json:"requeues"`
	Outcomes    string        `json:"outcomes"`
	PerJob      []jobOutcomeJ `json:"per_job"`
}

type jobOutcomeJ struct {
	Job       string   `json:"job"`
	Dsts      []string `json:"dsts"`
	Outcome   string   `json:"outcome"`
	DowntimeS float64  `json:"downtime_s"`
	Attempts  int      `json:"attempts"`
	Replanned bool     `json:"replanned,omitempty"`
	Leg       string   `json:"leg,omitempty"`
}

// runDirective is the jobs.Handler behind ninjad: it re-decodes the
// stored directive — a simfarm.Spec (the record is the source of truth,
// not whatever was in memory before a crash) — runs it with its trail
// streamed into the job's event log, and returns the deterministic
// result. The simulation itself is not interruptible mid-run; ctx is
// honored at the start boundary so a drain doesn't launch new work.
func runDirective(ctx context.Context, rec jobs.Record, emit func(jobs.Event)) (json.RawMessage, error) {
	spec, err := simfarm.DecodeSpec(rec.Directive)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case "sweep":
		return runSweepDirective(ctx, spec, emit)
	case "churn":
		return runChurnDirective(spec, emit)
	}
	cfg, sc := spec.Fleet()
	res, err := experiments.RunFleetScenarioWith(cfg, sc, emitTo(emit))
	if err != nil {
		return nil, err
	}

	out := jobResult{
		Scenario:    res.Row.Scenario,
		Jobs:        res.Row.Jobs,
		Batches:     res.Row.Batches,
		Score:       res.Row.Score,
		IBJobsOnIB:  res.Row.IBJobsOnIB,
		IBJobs:      res.Row.IBJobs,
		PredictedS:  res.Row.Predicted.Seconds(),
		MakespanS:   res.Row.Makespan.Seconds(),
		DowntimeS:   res.Row.Downtime.Seconds(),
		DeadlineMet: res.Row.Deadline,
		Replans:     res.Row.Replans,
		Requeues:    res.Row.Requeues,
		Outcomes:    res.Row.Outcomes,
	}
	for _, jo := range res.Report.Jobs {
		oj := jobOutcomeJ{
			Job:       jo.Job.Name,
			Outcome:   string(jo.Outcome),
			DowntimeS: jo.Report.Total.Seconds(),
			Attempts:  jo.Attempts,
			Replanned: jo.Replanned,
			Leg:       jo.Leg,
		}
		for _, n := range jo.Dsts {
			oj.Dsts = append(oj.Dsts, n.Name)
		}
		out.PerJob = append(out.PerJob, oj)
	}
	return json.Marshal(out)
}

// emitTo adapts a simulation event sink onto the job's event log,
// stamping each event with its simulated time.
func emitTo(emit func(jobs.Event)) func(metrics.Event) {
	return func(ev metrics.Event) {
		emit(jobs.Event{
			Kind:    string(ev.Kind),
			Phase:   ev.Phase,
			Subject: ev.Subject,
			Detail:  ev.Detail,
			Sim:     ev.At.Seconds(),
		})
	}
}

// runChurnDirective runs the online churn workload as a durable job:
// the seeded arrival/departure process under one placement policy,
// optionally through the default node-crash plan, with every engine
// decision streamed into the job's event log. The committed result is
// the churn Report — simulated-clock quantities only, so an interrupted
// job re-executes to byte-identical bytes.
func runChurnDirective(spec simfarm.Spec, emit func(jobs.Event)) (json.RawMessage, error) {
	cfg, sc := spec.Churn()
	res, err := experiments.RunChurnScenarioWith(cfg, sc, func(format string, args ...any) {
		emit(jobs.Event{Kind: "churn-log", Detail: fmt.Sprintf(format, args...)})
	})
	if err != nil {
		return nil, err
	}
	return json.RawMessage(res.Report.JSON()), nil
}

// runSweepDirective runs a durable Monte Carlo sweep job: a simfarm
// matrix — the default evacuation matrix or the churn placement matrix —
// sized by the spec, optionally restricted to named fault plans, with
// per-cell progress streamed into the job's event log and only the
// deterministic Summary committed as the result (wall-clock stats stay
// out, preserving the crash-re-execution byte-identity guarantee).
func runSweepDirective(ctx context.Context, spec simfarm.Spec, emit func(jobs.Event)) (json.RawMessage, error) {
	m, err := spec.SweepMatrix()
	if err != nil {
		return nil, err
	}
	f, err := simfarm.New(m, simfarm.Options{Parallelism: spec.Parallelism})
	if err != nil {
		return nil, err
	}
	f.Events().SetNotify(emitTo(emit))
	res, err := f.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Summary)
}
