// Package repro's benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, plus ablation benches for the design
// choices called out in DESIGN.md §5/§6. The simulations are deterministic;
// the reported custom metrics are *simulated* seconds (the reproduction
// targets), while ns/op measures harness cost only.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/simfarm"
	"repro/internal/vmm"
	"repro/internal/workloads"
)

// BenchmarkTable1ClusterSpec regenerates Table I (configuration render).
func BenchmarkTable1ClusterSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := experiments.Table1(); len(tab.Rows) != 9 {
			b.Fatal("Table I shape")
		}
	}
}

// BenchmarkTable2HotplugLinkup regenerates Table II and reports the
// IB→IB hotplug and link-up simulated seconds.
func BenchmarkTable2HotplugLinkup(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Hotplug.Seconds(), "sim-hotplug-s")
	b.ReportMetric(rows[0].Linkup.Seconds(), "sim-linkup-s")
}

// BenchmarkFig6MemtestOverhead regenerates Fig. 6 (all four footprints)
// and reports the 2 GB and 16 GB migration times.
func BenchmarkFig6MemtestOverhead(b *testing.B) {
	var rows []experiments.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig6(nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Migration.Seconds(), "sim-mig2GB-s")
	b.ReportMetric(rows[len(rows)-1].Migration.Seconds(), "sim-mig16GB-s")
	b.ReportMetric(rows[0].Linkup.Seconds(), "sim-linkup-s")
}

// BenchmarkFig7NPB regenerates Fig. 7 at 20% iteration scale (the shape —
// baseline vs proposed with a footprint-proportional migration component —
// is scale-invariant; run `ninjabench -run=fig7` for the full class D).
func BenchmarkFig7NPB(b *testing.B) {
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig7(nil, 0.2)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Proposed.Seconds()-r.Baseline.Seconds(), "sim-ovh-"+r.Kernel+"-s")
	}
}

// BenchmarkFig8Fallback1Proc regenerates Fig. 8a (1 process/VM).
func BenchmarkFig8Fallback1Proc(b *testing.B) {
	benchmarkFig8(b, 1)
}

// BenchmarkFig8Fallback8Procs regenerates Fig. 8b (8 processes/VM).
func BenchmarkFig8Fallback8Procs(b *testing.B) {
	benchmarkFig8(b, 8)
}

func benchmarkFig8(b *testing.B, ranks int) {
	var res *experiments.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = experiments.Fig8(ranks, 40)
		if err != nil {
			b.Fatal(err)
		}
	}
	mean := func(lo, hi int) float64 {
		var s float64
		var n int
		for i := lo; i < hi; i++ {
			if i == 10 || i == 20 || i == 30 {
				continue
			}
			s += res.Series.Points[i].Y.Seconds()
			n++
		}
		return s / float64(n)
	}
	b.ReportMetric(mean(0, 10), "sim-IB-step-s")
	b.ReportMetric(mean(10, 20), "sim-2hostTCP-step-s")
	b.ReportMetric(mean(30, 40), "sim-4hostTCP-step-s")
	b.ReportMetric(res.Series.Points[10].Y.Seconds(), "sim-migstep-s")
}

// --- Ablations -----------------------------------------------------------

// ablationDeploy builds a 2-VM IB deployment with custom params.
func ablationDeploy(b *testing.B, params *vmm.Params, clr bool) *experiments.Deployment {
	b.Helper()
	d, err := experiments.Deploy(experiments.DeployConfig{
		NVMs: 2, RanksPerVM: 1, AttachHCA: true, DstHasIB: true,
		ContinueLikeRestart: clr, Params: params,
	})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// runWithOneMigration runs a light iteration workload with one cross-node
// migration and returns the Ninja report plus the post-migration transport.
func runWithOneMigration(b *testing.B, d *experiments.Deployment) (ninja.Report, string) {
	b.Helper()
	app := d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		for i := 0; i < 200; i++ {
			rk.FTProbe(p)
			rk.Compute(p, 1)
			if err := rk.Bcast(p, 0, 1e6); err != nil {
				b.Errorf("bcast: %v", err)
				return
			}
		}
	})
	var rep ninja.Report
	d.K.Go("driver", func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		var err error
		rep, err = d.Orch.Migrate(p, d.DstNodes(2))
		if err != nil {
			b.Errorf("migrate: %v", err)
		}
	})
	d.K.Run()
	if !app.Done() {
		b.Fatal("app incomplete")
	}
	name, _ := d.Job.Rank(0).TransportTo(1)
	return rep, name
}

// BenchmarkAblationContinueLikeRestart contrasts recovery migration with
// and without ompi_cr_continue_like_restart: without it the job stays on
// tcp after returning to InfiniBand (DESIGN.md §5).
func BenchmarkAblationContinueLikeRestart(b *testing.B) {
	run := func(clr bool) string {
		d, err := experiments.Deploy(experiments.DeployConfig{
			NVMs: 2, RanksPerVM: 1, AttachHCA: true, DstHasIB: false,
			ContinueLikeRestart: clr,
		})
		if err != nil {
			b.Fatal(err)
		}
		app := d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
			for i := 0; i < 300; i++ {
				rk.FTProbe(p)
				rk.Compute(p, 1)
				if err := rk.Bcast(p, 0, 1e6); err != nil {
					b.Errorf("bcast: %v", err)
					return
				}
			}
		})
		d.K.Go("driver", func(p *sim.Proc) {
			p.Sleep(2 * sim.Second)
			if _, err := d.Orch.Migrate(p, d.DstNodes(2)); err != nil { // fallback
				b.Errorf("fallback: %v", err)
				return
			}
			p.Sleep(2 * sim.Second)
			if _, err := d.Orch.Migrate(p, d.SrcNodes(2)); err != nil { // recovery
				b.Errorf("recovery: %v", err)
			}
		})
		d.K.Run()
		if !app.Done() {
			b.Fatal("app incomplete")
		}
		name, _ := d.Job.Rank(0).TransportTo(1)
		return name
	}
	for i := 0; i < b.N; i++ {
		if got := run(false); got != "tcp" {
			b.Fatalf("without knob: %s", got)
		}
		if got := run(true); got != "openib" {
			b.Fatalf("with knob: %s", got)
		}
	}
}

// BenchmarkAblationZeroPages contrasts migration time with memtest's
// mostly-uniform pages against fully incompressible data of the same size:
// without compression, migration becomes wire-bound and ∝ footprint.
func BenchmarkAblationZeroPages(b *testing.B) {
	run := func(uniformity float64) float64 {
		// No passthrough devices: this ablation exercises the raw VMM
		// migration engine directly.
		d, err := experiments.Deploy(experiments.DeployConfig{
			NVMs: 2, RanksPerVM: 1, AttachHCA: false, DstHasIB: true,
			ContinueLikeRestart: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, vm := range d.VMs {
			if _, err := vm.Memory().AddRegion("data", 16*hw.GB, uniformity, 0); err != nil {
				b.Fatal(err)
			}
			vm.Guest().SetAppFrozen(true)
		}
		var dur sim.Time
		d.K.Go("driver", func(p *sim.Proc) {
			fut, err := d.VMs[0].Migrate(d.Dst.Nodes[0])
			if err != nil {
				b.Errorf("migrate: %v", err)
				return
			}
			dur = fut.Wait(p).Duration
		})
		d.K.Run()
		return dur.Seconds()
	}
	var compressed, raw float64
	for i := 0; i < b.N; i++ {
		compressed = run(workloads.MemtestUniformity)
		raw = run(0)
	}
	b.ReportMetric(compressed, "sim-compressed-s")
	b.ReportMetric(raw, "sim-raw-s")
	if raw <= compressed {
		b.Fatal("zero-page compression had no effect")
	}
}

// BenchmarkAblationRDMAMigration contrasts the §V RDMA migration transport
// with the default CPU-bound TCP transport.
func BenchmarkAblationRDMAMigration(b *testing.B) {
	run := func(rdma bool) float64 {
		params := vmm.DefaultParams()
		params.RDMAMigration = rdma
		d, err := experiments.Deploy(experiments.DeployConfig{
			NVMs: 2, RanksPerVM: 1, AttachHCA: false, DstHasIB: true,
			ContinueLikeRestart: true, Params: &params,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, vm := range d.VMs {
			vm.Memory().AddRegion("data", 8*hw.GB, 0, 0)
			vm.Guest().SetAppFrozen(true)
		}
		var dur sim.Time
		d.K.Go("driver", func(p *sim.Proc) {
			fut, err := d.VMs[0].Migrate(d.Dst.Nodes[0])
			if err != nil {
				b.Errorf("migrate: %v", err)
				return
			}
			dur = fut.Wait(p).Duration
		})
		d.K.Run()
		return dur.Seconds()
	}
	var tcp, rdma float64
	for i := 0; i < b.N; i++ {
		tcp = run(false)
		rdma = run(true)
	}
	b.ReportMetric(tcp, "sim-tcp-s")
	b.ReportMetric(rdma, "sim-rdma-s")
}

// BenchmarkAblationLinkPrewarm contrasts the ≈30 s link-up cost against
// the prewarmed-attach optimization (§V's main open issue).
func BenchmarkAblationLinkPrewarm(b *testing.B) {
	run := func(prewarm bool) float64 {
		params := vmm.DefaultParams()
		params.IBPrewarmedAttach = prewarm
		d := ablationDeploy(b, &params, true)
		rep, name := runWithOneMigration(b, d)
		if name != "openib" {
			b.Fatalf("transport = %s", name)
		}
		return rep.Linkup.Seconds()
	}
	var normal, prewarmed float64
	for i := 0; i < b.N; i++ {
		normal = run(false)
		prewarmed = run(true)
	}
	b.ReportMetric(normal, "sim-linkup-s")
	b.ReportMetric(prewarmed, "sim-prewarmed-s")
	if prewarmed >= normal {
		b.Fatal("prewarm had no effect")
	}
}

// BenchmarkAblationHotplugNoise quantifies the migration-noise factor on
// hotplug (Table II vs Fig. 6).
func BenchmarkAblationHotplugNoise(b *testing.B) {
	var self, cross float64
	for i := 0; i < b.N; i++ {
		d := ablationDeploy(b, nil, true)
		app := d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
			for j := 0; j < 150; j++ {
				rk.FTProbe(p)
				rk.Compute(p, 1)
			}
		})
		var selfRep, crossRep ninja.Report
		d.K.Go("driver", func(p *sim.Proc) {
			p.Sleep(2 * sim.Second)
			var err error
			selfRep, err = d.Orch.SelfMigrate(p)
			if err != nil {
				b.Errorf("self: %v", err)
				return
			}
			p.Sleep(2 * sim.Second)
			crossRep, err = d.Orch.Migrate(p, d.DstNodes(2))
			if err != nil {
				b.Errorf("cross: %v", err)
			}
		})
		d.K.Run()
		if !app.Done() {
			b.Fatal("app incomplete")
		}
		self = selfRep.Hotplug().Seconds()
		cross = crossRep.Hotplug().Seconds()
	}
	b.ReportMetric(self, "sim-self-hotplug-s")
	b.ReportMetric(cross, "sim-cross-hotplug-s")
}

// BenchmarkAblationQPReplay runs the RDMA-native ladder matrix: the
// hotplug baseline pays detach/attach plus ≈30 s of link training, QP
// checkpoint/replay pays neither, and every injected replay fault
// (resync stall, stale snapshot, HCA mismatch) demotes to the hotplug
// rung instead of failing. The rdma-* metrics are guarded by benchdiff
// alongside the sim-* family.
func BenchmarkAblationQPReplay(b *testing.B) {
	var rows []experiments.FaultRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtRDMA()
		if err != nil {
			b.Fatal(err)
		}
	}
	byName := map[string]experiments.FaultRow{}
	demotions := 0
	for _, r := range rows {
		byName[r.Scenario] = r
		demotions += r.Demoted
	}
	hotplug, native := byName["hotplug-baseline"], byName["rdma-native"]
	if native.Total >= hotplug.Total {
		b.Fatalf("QP replay saved nothing: native %v vs hotplug %v", native.Total, hotplug.Total)
	}
	if native.Rung != ninja.ModeRDMANative || hotplug.Rung != ninja.ModeHotplug {
		b.Fatalf("unexpected rungs: native=%s hotplug=%s", native.Rung, hotplug.Rung)
	}
	b.ReportMetric(hotplug.Total.Seconds(), "rdma-hotplug-total-s")
	b.ReportMetric(native.Total.Seconds(), "rdma-native-total-s")
	b.ReportMetric((hotplug.Total - native.Total).Seconds(), "rdma-saved-s")
	b.ReportMetric(byName["rdma-resync-timeout"].Total.Seconds(), "rdma-demote-resync-total-s")
	b.ReportMetric(float64(demotions), "rdma-demotions")
}

// BenchmarkExtScalabilityWAN runs the §V scalability projection: N
// simultaneous migrations intra-enclosure vs across a shared WAN circuit.
func BenchmarkExtScalabilityWAN(b *testing.B) {
	var rows []experiments.ScalabilityRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtScalability([]int{1, 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].CrossWAN.Seconds(), "sim-wan-1vm-s")
	b.ReportMetric(rows[1].CrossWAN.Seconds(), "sim-wan-8vm-s")
	b.ReportMetric(rows[1].IntraDC.Seconds(), "sim-intra-8vm-s")
}

// BenchmarkExtColdVsLive contrasts live migration with the proactive-FT
// checkpoint/restart path for 4 VMs crossing the WAN.
func BenchmarkExtColdVsLive(b *testing.B) {
	var rows []experiments.ColdVsLiveRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtColdVsLive([]int{4})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Live.Seconds(), "sim-live-s")
	b.ReportMetric(rows[0].Cold.Seconds(), "sim-cold-s")
}

// BenchmarkExtBypassOverhead contrasts VMM-bypass with a para-virtualized
// IB driver — the design motivation quantified.
func BenchmarkExtBypassOverhead(b *testing.B) {
	var rows []experiments.BypassRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtBypassOverhead()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Bandwidth1GB/1e9, "sim-"+r.Mode+"-GBps")
	}
}

// BenchmarkFarmSweep runs a small Monte Carlo sweep (3 directives × 3
// fault plans × 2 seeds, 2-job fleets) through the simfarm worker pool and
// reports the per-row p50 makespans plus the failure count as farm-*
// metrics. These are percentiles of seeded simulations — deterministic at
// any worker count — so benchdiff gates them at the same 1e-6 tolerance as
// the sim-* family. Wall-clock throughput is reported ungated (runs/sec).
func BenchmarkFarmSweep(b *testing.B) {
	m := simfarm.DefaultMatrix(2, 2)
	var res *simfarm.Result
	for i := 0; i < b.N; i++ {
		f, err := simfarm.New(m, simfarm.Options{Parallelism: 4})
		if err != nil {
			b.Fatal(err)
		}
		res, err = f.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range res.Summary.Rows {
		b.ReportMetric(r.Makespan.P50, "farm-p50-"+r.Directive+"-"+r.Plan+"-s")
	}
	b.ReportMetric(float64(res.Summary.Failures), "farm-failures")
	b.ReportMetric(res.Wall.RunsPerSec, "runs/sec")
}

// BenchmarkChurnPolicies runs the online churn matrix (greedy vs
// adaptive destination-swap, fault free and through a node crash) and
// reports the time-weighted affinity cost and corrective-migration spend
// of each row as churn-* metrics. Like sim-* and farm-*, these are
// deterministic simulated observables — benchdiff gates them at 1e-6 —
// and the cost ordering (swap strictly below greedy) is the subsystem's
// headline result.
func BenchmarkChurnPolicies(b *testing.B) {
	var rows []experiments.ChurnRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.ExtChurnMatrix(experiments.ChurnConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	slugs := []string{"greedy", "swap", "greedy-crash", "swap-crash", "swap-maxflow", "swap-maxflow-crash"}
	for i, r := range rows {
		b.ReportMetric(r.CostIntegral, "churn-cost-"+slugs[i]+"-pts")
		b.ReportMetric(float64(r.SwapMigs+r.FaultMigs), "churn-migs-"+slugs[i])
		b.ReportMetric(float64(r.Rejected), "churn-rejected-"+slugs[i])
	}
	if rows[1].CostIntegral >= rows[0].CostIntegral {
		b.Fatalf("destination-swap cost %.0f not below greedy %.0f",
			rows[1].CostIntegral, rows[0].CostIntegral)
	}
}

// BenchmarkSequencerPlan prices both sequencing policies on a
// deterministic 128-gang evacuation (one saturated source uplink, seven
// destination uplinks, staggered payloads and fixed overheads) and
// reports the predicted makespans and round counts as seq-* metrics.
// The policies mirror the ext-fleet matrix: LPT under the default drain
// cap of 4, max-flow uncapped (its rounds are sized by link admission).
// The plans are pure functions of the input, so benchdiff gates the
// seq-* family at the same 1e-6 tolerance as sim-*; ns/op measures
// planning cost only (the LPT insert is memoized — see
// fleet.TestPlanSequenceMemoizedCost for the wall-clock guard).
func BenchmarkSequencerPlan(b *testing.B) {
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
	var lpt, mf fleet.Sequence
	for i := 0; i < b.N; i++ {
		lpt = fleet.PlanSequence(migs, caps, fleet.SeqPolicy{Batched: true, Cap: 4})
		mf = fleet.PlanSequence(migs, caps, fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow})
	}
	b.ReportMetric(lpt.Predicted.Seconds(), "seq-lpt-pred-s")
	b.ReportMetric(mf.Predicted.Seconds(), "seq-maxflow-pred-s")
	b.ReportMetric(float64(len(lpt.Batches)), "seq-lpt-batches")
	b.ReportMetric(float64(len(mf.Batches)), "seq-maxflow-batches")
	if mf.Predicted > lpt.Predicted {
		b.Fatalf("maxflow predicted %v exceeds LPT %v", mf.Predicted, lpt.Predicted)
	}
}
