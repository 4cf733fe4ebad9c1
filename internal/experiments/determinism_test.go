package experiments

import (
	"context"
	"testing"
)

// TestExtRDMADeterminism is the RDMA-native repeat-run identity check:
// the six-rung ext-rdma ladder (clean replay, each injected demotion, the
// preflight demotion and the hotplug baseline) must render byte-identical
// across two consecutive runs. With the mode off the rows ARE the hotplug
// baseline, so this also pins the zero-fault observables the bench
// baseline guards.
func TestExtRDMADeterminism(t *testing.T) {
	render := func() string {
		rows, err := ExtRDMA()
		if err != nil {
			t.Fatalf("ladder: %v", err)
		}
		if len(rows) != len(extRDMAScenarios()) {
			t.Fatalf("ladder: %d rows", len(rows))
		}
		return ExtRDMARender(rows).String()
	}
	if run1, run2 := render(), render(); run1 != run2 {
		t.Fatalf("not reproducible across runs:\n--- run 1:\n%s\n--- run 2:\n%s", run1, run2)
	}
}

// TestExtFleetDeterminism is the fleet repeat-run identity check: the
// full 8-row ext-fleet matrix (every directive × policy × fault
// combination) must render byte-identical across two consecutive runs,
// under both sequencing modes. Any divergence in event ordering, PS
// completion order, pooled-event reuse, or sequencer tie-breaking shows
// up here as a table diff.
func TestExtFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run fleet matrix is not short")
	}
	for _, seqMode := range []string{"", "maxflow"} {
		render := func() string {
			rows, err := ExtFleetMatrixCtx(context.Background(), FleetConfig{Jobs: 3}, 2, seqMode)
			if err != nil {
				t.Fatalf("seq %q matrix: %v", seqMode, err)
			}
			if len(rows) != len(ExtFleetScenarios(2, seqMode)) {
				t.Fatalf("seq %q matrix: %d rows", seqMode, len(rows))
			}
			return ExtFleetRender(rows).String()
		}
		if run1, run2 := render(), render(); run1 != run2 {
			t.Fatalf("seq %q: not reproducible across runs:\n--- run 1:\n%s\n--- run 2:\n%s", seqMode, run1, run2)
		}
	}
}
