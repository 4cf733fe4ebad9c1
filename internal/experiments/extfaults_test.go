package experiments

import (
	"testing"

	"repro/internal/ninja"
)

// TestExtFaultMatrix pins the phase × fault outcome matrix: each row's
// outcome, that every injected plan actually fired (twice for the
// training stall, which hits both destination HCAs), and that the MPI
// job ran all 1600 iterations in order through the fault. The ext-rdma
// ladder shares the runner, so its rows must also finish the job in
// order, and none may fall through to an orchestration error.
func TestExtFaultMatrix(t *testing.T) {
	want := map[string]ninja.Outcome{
		"none":                    ninja.OutcomeClean,
		"drop-device-deleted":     ninja.OutcomeRetriedOK,
		"qmp-error-detach":        ninja.OutcomeRetriedOK,
		"migrate-abort":           ninja.OutcomeRetriedOK,
		"dst-node-crash":          ninja.OutcomeRetriedOK,
		"qmp-error-attach":        ninja.OutcomeRetriedOK,
		"ib-train-stall":          ninja.OutcomeDegradedTCP,
		"nfs-outage":              ninja.OutcomeRetriedOK,
		"attach-fails-no-degrade": ninja.OutcomeRolledBack,
	}
	rows, err := ExtFaultMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(want) {
		t.Fatalf("%d rows, want %d", len(rows), len(want))
	}
	for _, r := range rows {
		if r.Outcome != want[r.Scenario] {
			t.Errorf("%s: outcome %q, want %q", r.Scenario, r.Outcome, want[r.Scenario])
		}
		switch {
		case r.Scenario == "none":
			if r.FaultsFired != 0 {
				t.Errorf("none: fired %d, want 0", r.FaultsFired)
			}
		case r.Scenario == "ib-train-stall":
			if r.FaultsFired != 2 {
				t.Errorf("ib-train-stall: fired %d, want 2", r.FaultsFired)
			}
		case r.FaultsFired < 1:
			t.Errorf("%s: the plan never fired", r.Scenario)
		}
	}

	ladder, err := ExtRDMA()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ladder {
		if r.Err != nil {
			t.Errorf("%s: orchestration error %v", r.Scenario, r.Err)
		}
	}
	for _, r := range append(rows, ladder...) {
		if r.Iters != 1600 || !r.Monotone {
			t.Errorf("%s: %d iterations (monotone %v), want 1600 monotone", r.Scenario, r.Iters, r.Monotone)
		}
	}
}
