package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// This file implements the two single-job fault experiments, which share
// one runner. Each scenario deploys a fresh 2-VM testbed, launches an
// iterating MPI job, arms one fault plan, and triggers a migration.
//
// ext-faults is a phase × fault outcome matrix: one fault plan against
// each phase of the Ninja script. The run must end with the job healthy —
// every injected fault resolved by retry, degradation to TCP, or
// rollback-in-place — and the MPI iteration counter strictly monotone
// across the fault (no lost or repeated iterations).
//
// ext-rdma runs the same IB→IB gang migration once per degradation-ladder
// rung. The hotplug baseline pays the paper's fixed overheads
// (detach/attach fan-out plus ≈30 s of destination link training — the
// Fig. 6 / Table II terms); QP checkpoint/replay eliminates both, and
// each injected replay fault (resync stall past the window, stale
// snapshot epoch, incompatible destination HCA) must demote cleanly to
// the hotplug rung rather than fail the migration.

// FaultScenario describes one matrix row's setup.
type FaultScenario struct {
	Name string
	// Phase is the Ninja phase the fault targets (table label).
	Phase string
	// Specs is the fault plan, with At relative to the migration trigger
	// (shifted to absolute simulated time at deploy). Node targets use
	// the deployment's names: source "agc-ib-n<i>", destination
	// "agc-dst-n<i>".
	Specs []faults.Spec
	// Mode selects the entry point: live (Migrate), cold (ColdMigrate) or
	// RDMA-native (RDMAMigrate).
	Mode ninja.Mode
	// DstIB gives the destination cluster InfiniBand.
	DstIB bool
	// Spares adds destination-cluster standby nodes to the orchestrator.
	Spares int
	// Tune adjusts the retry policy (applied over DefaultRetryPolicy).
	Tune func(*ninja.RetryPolicy)
}

// FaultRow is one matrix row's result.
type FaultRow struct {
	Scenario string
	Phase    string
	Outcome  ninja.Outcome
	// Err is the orchestration error (expected only for rollback rows).
	Err         error
	Retries     int
	SparesUsed  int
	DegradedVMs int
	FaultsFired int
	// Rung is the degradation-ladder rung the run terminated on; Demoted
	// counts VMs whose QP replay fell back to the hotplug rung.
	Rung    ninja.RungMode
	Demoted int
	// Hotplug is detach+attach; Linkup the resume-to-traffic span (IB
	// training when a demotion or the baseline re-attached an HCA).
	Hotplug sim.Time
	Linkup  sim.Time
	Total   sim.Time
	// Iters is the number of MPI iterations completed; Monotone is false
	// if the per-rank iteration counter ever repeated or went backwards.
	Iters    int
	Monotone bool
}

// extFaultScenarios is the matrix: every phase of the script crossed with
// the fault class that stresses it, plus the zero-fault control.
func extFaultScenarios() []FaultScenario {
	const trig = 0 // shorthand: offsets below are relative to the trigger
	return []FaultScenario{
		{
			Name: "none", Phase: "-", DstIB: true,
		},
		{
			Name: "drop-device-deleted", Phase: "detach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindDropEvent, Target: "vm00", Arg: "DEVICE_DELETED"}},
			Tune: func(pol *ninja.RetryPolicy) {
				pol.DetachTimeout = 20 * sim.Second // don't wait a full minute on the lost event
			},
		},
		{
			Name: "qmp-error-detach", Phase: "detach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQMPError, Target: "vm00", Arg: "device_del"}},
		},
		{
			Name: "migrate-abort", Phase: "migration", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindMigrateAbort, Target: "vm00", Pass: 1}},
		},
		{
			Name: "dst-node-crash", Phase: "migration", DstIB: true, Spares: 1,
			Specs: []faults.Spec{{Kind: faults.KindNodeCrash, Target: "agc-dst-n00", At: trig + 1*sim.Second}},
		},
		{
			Name: "qmp-error-attach", Phase: "attach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQMPError, Target: "vm00", Arg: "device_add"}},
		},
		{
			Name: "ib-train-stall", Phase: "linkup", DstIB: true,
			Specs: []faults.Spec{
				{Kind: faults.KindTrainStall, Target: "agc-dst-n00", For: 120 * sim.Second},
				{Kind: faults.KindTrainStall, Target: "agc-dst-n01", For: 120 * sim.Second},
			},
		},
		{
			Name: "nfs-outage", Phase: "cold migration", Mode: ninja.Cold,
			Specs: []faults.Spec{{Kind: faults.KindNFSOutage, At: trig, For: 30 * sim.Second}},
			Tune: func(pol *ninja.RetryPolicy) {
				pol.Backoff = 20 * sim.Second // outlast the outage window
			},
		},
		{
			Name: "attach-fails-no-degrade", Phase: "attach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQMPError, Target: "vm00", Arg: "device_add", Count: 10}},
			Tune: func(pol *ninja.RetryPolicy) {
				pol.DegradeToTCP = false // force the rollback rung
				pol.MaxAttempts = 2
			},
		},
	}
}

// extRDMAScenarios is the RDMA-native ladder: the hotplug baseline, a
// clean QP replay, each injected replay fault, and the preflight demotion
// (no destination HCA to replay onto).
func extRDMAScenarios() []FaultScenario {
	return []FaultScenario{
		{Name: "hotplug-baseline", DstIB: true},
		{Name: "rdma-native", Mode: ninja.RDMANative, DstIB: true},
		{Name: "rdma-resync-timeout", Mode: ninja.RDMANative, DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQPResyncStall, Target: "agc-dst-n00", For: 10 * sim.Second}}},
		{Name: "rdma-stale-qp", Mode: ninja.RDMANative, DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQPStale, Target: "agc-ib-n00"}}},
		{Name: "rdma-hca-mismatch", Mode: ninja.RDMANative, DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindHCAMismatch, Target: "agc-dst-n00"}}},
		{Name: "rdma-preflight-no-ib", Mode: ninja.RDMANative},
	}
}

// runFaultScenario executes one matrix row on a fresh 2-VM deployment.
func runFaultScenario(sc FaultScenario) (FaultRow, error) {
	row := FaultRow{Scenario: sc.Name, Phase: sc.Phase, Monotone: true}
	d, err := Deploy(DeployConfig{
		NVMs: 2, RanksPerVM: 1, GuestMemGB: 8,
		AttachHCA: true, DstHasIB: sc.DstIB, ContinueLikeRestart: true,
	})
	if err != nil {
		return row, err
	}
	for _, vm := range d.VMs {
		if _, err := vm.Memory().AddRegion("data", 2*hw.GB, 0, 0); err != nil {
			return row, err
		}
	}

	pol := ninja.DefaultRetryPolicy()
	if sc.Tune != nil {
		sc.Tune(&pol)
	}
	opts := ninja.Options{Retry: &pol}
	n := len(d.VMs)
	dsts := d.DstNodes(n)
	if sc.Spares > 0 {
		opts.Spares = scheduler.NewSpares(d.Dst.Nodes[n : n+sc.Spares]...)
	}
	orch := ninja.New(d.Job, opts)

	// Shift the plan's trigger-relative times to absolute simulated time
	// and arm it, logging firings into the orchestrator's event trail.
	// The victim list spans both clusters, destinations first, so
	// source-side (stale snapshot) and destination-side targets resolve.
	trigger := d.Epoch + 5*sim.Second
	plan := faults.Plan{Name: sc.Name, Seed: 1}
	for _, s := range sc.Specs {
		s.At += trigger
		plan.Specs = append(plan.Specs, s)
	}
	inj := faults.NewInjector(d.K, plan, faults.Env{
		VMs: d.VMs, Nodes: append(append([]*hw.Node(nil), dsts...), d.SrcNodes(n)...), Store: d.NFS,
		Log: func(kind, subject, detail string) {
			orch.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
		},
	})
	if err := inj.Arm(); err != nil {
		return row, err
	}

	// The iterating job: rank 0's iteration counter is the monotonicity
	// witness — every index must be seen exactly once, in order.
	const iters = 1600
	lastIter, lastAt := -1, sim.Time(-1)
	app := d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		for i := 0; i < iters; i++ {
			rk.FTProbe(p)
			rk.Compute(p, 0.2)
			if rk.RankID() == 0 {
				if i != lastIter+1 || p.Now() < lastAt {
					row.Monotone = false
				}
				lastIter, lastAt = i, p.Now()
				row.Iters = i + 1
			}
		}
	})

	var rep ninja.Report
	var migErr error
	d.K.Go("driver", func(p *sim.Proc) {
		if trigger > p.Now() {
			p.Sleep(trigger - p.Now())
		}
		switch sc.Mode {
		case ninja.Cold:
			rep, migErr = orch.ColdMigrate(p, dsts)
		case ninja.RDMANative:
			rep, migErr = orch.RDMAMigrate(p, dsts)
		default:
			rep, migErr = orch.Migrate(p, dsts)
		}
	})
	d.K.Run()

	if !app.Done() {
		return row, fmt.Errorf("experiments: %s: app incomplete (job wedged)", sc.Name)
	}
	row.Outcome = rep.Outcome
	row.Err = migErr
	row.Retries = rep.Retries
	row.SparesUsed = rep.SparesUsed
	row.DegradedVMs = rep.DegradedToTCP
	row.FaultsFired = inj.Fired()
	row.Rung = rep.Mode
	row.Demoted = rep.RDMADemoted
	row.Hotplug = rep.Hotplug()
	row.Linkup = rep.Linkup
	row.Total = rep.Total
	if migErr != nil && rep.Outcome != ninja.OutcomeRolledBack {
		return row, fmt.Errorf("experiments: %s: unexpected error: %w", sc.Name, migErr)
	}
	return row, nil
}

func runFaultScenarios(scs []FaultScenario) ([]FaultRow, error) {
	var rows []FaultRow
	for _, sc := range scs {
		row, err := runFaultScenario(sc)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtFaultMatrix runs every fault scenario and returns the outcome matrix.
func ExtFaultMatrix() ([]FaultRow, error) { return runFaultScenarios(extFaultScenarios()) }

// ExtRDMA runs the RDMA-native ladder matrix.
func ExtRDMA() ([]FaultRow, error) { return runFaultScenarios(extRDMAScenarios()) }

// ExtFaultMatrixRender formats the phase × fault outcome matrix.
func ExtFaultMatrixRender(rows []FaultRow) *metrics.Table {
	t := metrics.NewTable("Ext. — fault injection × Ninja phase outcome matrix",
		"fault", "phase", "outcome", "retries", "spares", "degraded", "fired", "total [s]", "mpi-iters")
	for _, r := range rows {
		iters := fmt.Sprintf("%d monotone", r.Iters)
		if !r.Monotone {
			iters = fmt.Sprintf("%d NON-MONOTONE", r.Iters)
		}
		t.AddRow(r.Scenario, r.Phase, string(r.Outcome),
			r.Retries, r.SparesUsed, r.DegradedVMs, r.FaultsFired, r.Total, iters)
	}
	return t
}

// ExtRDMARender formats the ladder matrix.
func ExtRDMARender(rows []FaultRow) *metrics.Table {
	t := metrics.NewTable("Ext. — RDMA-native (QP replay) vs hotplug ladder",
		"scenario", "rung", "demoted", "fired", "hotplug [s]", "linkup [s]", "total [s]", "outcome")
	for _, r := range rows {
		t.AddRow(r.Scenario, string(r.Rung), r.Demoted, r.FaultsFired,
			r.Hotplug, r.Linkup, r.Total, string(r.Outcome))
	}
	return t
}
