package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/sim"
)

// probeRepeats is how many times each probe runs; it reports the median.
const probeRepeats = 7

// addProbes runs the direct layer probes into out. They use public
// functions only, on the default kernel backend.
func addProbes(out map[string]float64, workDir string) error {
	out["sim.events_per_s"] = repeatMedian(probeEvents)
	out["sim.switch_ns"] = repeatMedian(probeSwitch)
	migs, caps := sequencerInput()
	out["fleet.plan_lpt_ms"] = repeatMedian(func() float64 {
		return timeMS(func() { fleet.PlanSequence(migs, caps, fleet.SeqPolicy{Batched: true, Cap: 4}) })
	})
	out["fleet.plan_maxflow_ms"] = repeatMedian(func() float64 {
		return timeMS(func() { fleet.PlanSequence(migs, caps, fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow}) })
	})
	save, load, err := probeStore(filepath.Join(workDir, "store-probe"))
	if err != nil {
		return err
	}
	out["jobs.store.save_ms_p50"] = save
	out["jobs.store.load_ms_p50"] = load
	return nil
}

func repeatMedian(f func() float64) float64 {
	xs := make([]float64, probeRepeats)
	for i := range xs {
		xs[i] = f()
	}
	return median(xs)
}

func timeMS(f func()) float64 {
	t := time.Now()
	f()
	return since(t) * 1e3
}

// probeEvents runs a hold model on a bare kernel: 1024 pending events, each
// of which schedules its successor at a pseudo-random delay, until 200000
// have run. It returns events per second.
func probeEvents() float64 {
	const pending, total = 1024, 200000
	k := sim.NewKernel()
	defer k.Close()
	x := uint64(1)
	scheduled := 0
	var fire func()
	fire = func() {
		if scheduled < total {
			scheduled++
			x = x*6364136223846793005 + 1442695040888963407
			k.Schedule(sim.Time(x>>44), fire) // delays up to about 1 ms
		}
	}
	t := time.Now()
	for i := 0; i < pending; i++ {
		fire()
	}
	k.Run()
	return total / since(t)
}

// probeSwitch ping-pongs two processes through Sleep and returns the
// nanoseconds per Sleep: one event plus a handoff to and from the process.
func probeSwitch() float64 {
	const sleeps = 50000
	k := sim.NewKernel()
	defer k.Close()
	for i := 0; i < 2; i++ {
		k.Go("pingpong", func(p *sim.Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(sim.Nanosecond)
			}
		})
	}
	t := time.Now()
	k.Run()
	return since(t) * 1e9 / (2 * sleeps)
}

// sequencerInput is the 128-migration evacuation BenchmarkSequencerPlan in
// the repository's bench_test.go prices: one saturated source uplink,
// seven destination uplinks, staggered payloads and fixed overheads.
func sequencerInput() ([]*fleet.Migration, map[string]float64) {
	caps := map[string]float64{"wan:src": 1.25e9}
	for i := 0; i < 7; i++ {
		caps[fmt.Sprintf("wan:dst%d", i)] = 1.25e9
	}
	var migs []*fleet.Migration
	for i := 0; i < 128; i++ {
		fixed := 13 * sim.Second
		if i%2 == 0 {
			fixed = 43 * sim.Second
		}
		migs = append(migs, &fleet.Migration{
			Job:     &fleet.Job{Name: fmt.Sprintf("j%03d", i)},
			Bytes:   (1 + float64(i%16)/4) * 1e9,
			Fixed:   fixed,
			MaxRate: 0.325e9,
			Links:   []string{"wan:src", fmt.Sprintf("wan:dst%d", i%7)},
		})
	}
	return migs, caps
}

// probeStore times jobs.Store.Save and Load on a fresh directory with a
// record shaped like a finished control-workload job, and returns the
// median milliseconds of each.
func probeStore(dir string) (saveMS, loadMS float64, err error) {
	st, err := jobs.NewStore(dir)
	if err != nil {
		return 0, 0, err
	}
	const n = 30
	var saves, loads []float64
	for i := 0; i < n; i++ {
		rec := probeRecord(fmt.Sprintf("probe-%03d", i))
		t := time.Now()
		if err := st.Save(rec); err != nil {
			return 0, 0, err
		}
		saves = append(saves, since(t)*1e3)
	}
	for i := 0; i < n; i++ {
		t := time.Now()
		if _, err := st.Load(fmt.Sprintf("probe-%03d", i)); err != nil {
			return 0, 0, err
		}
		loads = append(loads, since(t)*1e3)
	}
	return median(saves), median(loads), nil
}

// probeRecord builds a done job record with a control directive, a
// two-job fleet result and a lifecycle-plus-executor event trail.
func probeRecord(id string) *jobs.Record {
	now := time.Unix(1700000000, 0).UTC()
	type perJob struct {
		Job       string   `json:"job"`
		Dsts      []string `json:"dsts"`
		Outcome   string   `json:"outcome"`
		DowntimeS float64  `json:"downtime_s"`
		Attempts  int      `json:"attempts"`
	}
	result, _ := json.Marshal(map[string]any{ // only marshalable values
		"scenario": "swap/batched(cap=4)", "jobs": 2, "batches": 1, "score": 4,
		"predicted_s": 41.5, "makespan_s": 43.25, "downtime_s": 12.5, "deadline_met": true,
		"outcomes": "2 clean",
		"per_job": []perJob{
			{"job00", []string{"dc1-ib-n00", "dc1-ib-n01"}, "clean", 6.25, 1},
			{"job01", []string{"dc1-ib-n02", "dc1-ib-n03"}, "clean", 6.25, 1},
		},
	})
	rec := &jobs.Record{
		ID:        id,
		State:     jobs.Done,
		Directive: json.RawMessage(`{"kind":"evacuate","placement":"swap","batched":true,"cap":4,"jobs":2}`),
		Submitted: now, Updated: now, Attempts: 1,
		Result: result,
	}
	kinds := []string{jobs.EventSubmitted, jobs.EventPicked, jobs.EventRunning}
	for i := 0; i < 24; i++ {
		kinds = append(kinds, "fleet-phase")
	}
	kinds = append(kinds, jobs.EventDone)
	for i, k := range kinds {
		rec.Events = append(rec.Events, jobs.Event{
			Seq: i + 1, Wall: now, Kind: k, Phase: "precopy", Subject: "job00",
			Detail: "batch 1/1: job00 → dc1-ib-n00,dc1-ib-n01", Sim: float64(i),
		})
	}
	return rec
}
