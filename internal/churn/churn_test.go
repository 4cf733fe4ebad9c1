package churn

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/sim"
)

// rig is one churn deployment: an IB site and an Ethernet site over a
// fresh kernel. The IB site comes first in candidate order, so the
// greedy baseline burns IB slots on whatever arrives first.
type rig struct {
	k    *sim.Kernel
	topo *fleet.Topology
}

func newRig(nfs float64) *rig {
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	ib := tb.AddCluster("ib", 4, hw.AGCNodeSpec)
	ethSpec := hw.AGCNodeSpec
	ethSpec.IBBandwidth = 0
	eth := tb.AddCluster("eth", 4, ethSpec)
	topo := fleet.NewTopology(
		&fleet.Site{Name: "ib", Nodes: ib.Nodes, SlotsPerNode: 2, WANBandwidth: 1.25e9},
		&fleet.Site{Name: "eth", Nodes: eth.Nodes, SlotsPerNode: 2, WANBandwidth: 1.25e9},
	)
	topo.NFSBandwidth = nfs
	return &rig{k: k, topo: topo}
}

func defaultWorkload(seed int64) Workload {
	return Workload{
		Seed:         seed,
		Jobs:         48,
		ArrivalRate:  0.5,
		MeanLifetime: 90 * sim.Second,
		MaxVMs:       2,
		IBFraction:   0.5,
	}
}

func runOnce(t *testing.T, opts Options) Report {
	t.Helper()
	return runOn(t, newRig(0), opts)
}

// runOn runs the engine to completion on an already built rig and closes
// its kernel. Once the kernel drains, every node must be healthy again
// with its books back at empty: full site slots, no resident memory and
// no relocation reservation — whatever placement, relocation, eviction
// and restore did in between.
func runOn(t *testing.T, r *rig, opts Options) Report {
	t.Helper()
	defer r.k.Close()
	eng, err := New(r.k, r.topo, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep, err := eng.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, n := range eng.nodes {
		if n.Failed() || eng.slots[n] != siteSlots(r.topo, n) || eng.mem[n] != 0 || eng.reserved[n] != 0 {
			t.Fatalf("node %s after the run: failed=%v slots=%d (want %d) mem=%g reserved=%d",
				n.Name, n.Failed(), eng.slots[n], siteSlots(r.topo, n), eng.mem[n], eng.reserved[n])
		}
	}
	return rep
}

// The arrival schedule is a pure function of the workload spec: same
// seed, same schedule; the empirical arrival rate tracks the spec over
// many draws (a property of the exponential sampler, not of the
// engine).
func TestWorkloadScheduleDeterministicAndCalibrated(t *testing.T) {
	w := Workload{Seed: 7, Jobs: 4000, ArrivalRate: 2.0}
	a, b := w.schedule(), w.schedule()
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	span := a[len(a)-1].at.Seconds()
	got := float64(len(a)) / span
	if math.Abs(got-2.0) > 0.15 {
		t.Fatalf("empirical arrival rate %.3f/s, want ≈2/s", got)
	}
	other := Workload{Seed: 8, Jobs: 4000, ArrivalRate: 2.0}.schedule()
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Lifetimes respect the configured bounds for every draw.
func TestWorkloadLifetimeBounds(t *testing.T) {
	w := Workload{Seed: 3, Jobs: 2000, MinLifetime: 20 * sim.Second, MaxLifetime: 40 * sim.Second}
	for _, a := range w.schedule() {
		if a.lifetime < 20*sim.Second || a.lifetime > 40*sim.Second {
			t.Fatalf("lifetime %v outside [20s, 40s]", a.lifetime)
		}
	}
}

// A churn run is byte-identical across the kernel's event-storage
// paths: on a fresh kernel every event struct is newly allocated, while
// on a kernel whose pool was pre-warmed by scheduling and cancelling
// events across every wheel level and the overflow heap, the run reuses
// recycled structs with advanced seq tickets. Execution order must not
// depend on either.
func TestChurnDeterministicAcrossBackends(t *testing.T) {
	for _, pol := range []Policy{PolicyGreedy, PolicySwap} {
		opts := Options{Workload: defaultWorkload(11), Policy: pol}
		fresh := runOnce(t, opts)
		r := newRig(0)
		before := r.k.PendingEvents()
		for d := sim.Time(1); d > 0 && d < sim.Time(1)<<56; d *= 8 {
			if !r.k.Schedule(d, func() {}).Cancel() {
				t.Fatalf("warm-up event at %v did not cancel", d)
			}
		}
		if n := r.k.PendingEvents(); n != before {
			t.Fatalf("%d events pending after warm-up, want %d", n, before)
		}
		warm := runOn(t, r, opts)
		if fresh.JSON() != warm.JSON() {
			t.Errorf("%v: reports differ:\nfresh: %s\nwarm:  %s", pol, fresh.JSON(), warm.JSON())
		}
	}
}

// Under either policy, repeated runs with the same seed are
// byte-identical — the kernel executes events in strict (time, seq)
// order and the engine consumes its PRNG before the clock starts — and
// a different seed produces a different run.
func TestChurnSeedStability(t *testing.T) {
	for _, pol := range []Policy{PolicyGreedy, PolicySwap} {
		opts := Options{Workload: defaultWorkload(5), Policy: pol}
		a := runOnce(t, opts)
		b := runOnce(t, opts)
		if a.JSON() != b.JSON() {
			t.Fatalf("%v: same seed, different reports:\n%s\n%s", pol, a.JSON(), b.JSON())
		}
		opts.Workload.Seed = 6
		c := runOnce(t, opts)
		if a.JSON() == c.JSON() {
			t.Fatalf("%v: different seeds produced byte-identical reports", pol)
		}
	}
}

// The adaptive destination-swap policy buys down the time-weighted
// affinity deficit relative to the greedy baseline — the subsystem's
// headline claim — and pays for it with migrations.
func TestSwapBeatsGreedyOnAffinityCost(t *testing.T) {
	greedy := runOnce(t, Options{Workload: defaultWorkload(11), Policy: PolicyGreedy})
	swap := runOnce(t, Options{Workload: defaultWorkload(11), Policy: PolicySwap})
	if greedy.SwapMigs != 0 {
		t.Fatalf("greedy executed %d swap migrations, want 0", greedy.SwapMigs)
	}
	if swap.CostIntegral >= greedy.CostIntegral {
		t.Fatalf("swap cost %.0f not below greedy cost %.0f", swap.CostIntegral, greedy.CostIntegral)
	}
	if swap.SwapMigs == 0 {
		t.Fatal("swap policy executed no corrective migrations on a mixed workload")
	}
}

// Every job reaches a terminal state and the books balance.
func TestChurnConservation(t *testing.T) {
	for _, pol := range []Policy{PolicyGreedy, PolicySwap} {
		rep := runOnce(t, Options{Workload: defaultWorkload(2), Policy: pol})
		if rep.Arrived != 48 {
			t.Fatalf("%v: arrived %d, want 48", pol, rep.Arrived)
		}
		if rep.Departed+rep.Rejected != rep.Arrived {
			t.Fatalf("%v: departed %d + rejected %d != arrived %d", pol, rep.Departed, rep.Rejected, rep.Arrived)
		}
		if rep.Placed > rep.Arrived {
			t.Fatalf("%v: placed %d > arrived %d", pol, rep.Placed, rep.Arrived)
		}
	}
}

// A node crash evicts the jobs running there; the engine re-places them
// (counted as fault migrations) and the run still terminates
// deterministically: a repeat run is byte-identical.
func TestChurnNodeCrashEvictsAndReplaces(t *testing.T) {
	plan, err := faults.ParsePlan("node-crash@30s+120s:node=ib-n00")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	opts := Options{Workload: defaultWorkload(4), Policy: PolicySwap, Faults: plan}
	a := runOnce(t, opts)
	b := runOnce(t, opts)
	if a.JSON() != b.JSON() {
		t.Fatalf("faulted repeat runs differ:\n%s\n%s", a.JSON(), b.JSON())
	}
	if a.Faults != 1 {
		t.Fatalf("faults fired %d, want 1", a.Faults)
	}
	if a.FaultMigs == 0 {
		t.Fatal("node crash at 30s evicted nobody — expected fault re-placements")
	}
	if a.Departed+a.Rejected != a.Arrived {
		t.Fatalf("faulted run leaked jobs: departed %d + rejected %d != arrived %d",
			a.Departed, a.Rejected, a.Arrived)
	}
}

// A crash aimed at a node outside the topology fails the run rather than
// being skipped: New accepts it, and the injector's Arm inside Run
// rejects the target. (A guest-level fault kind is an Options error; see
// TestOptionsValidate.)
func TestChurnRejectsInapplicableFaults(t *testing.T) {
	plan, err := faults.ParsePlan("node-crash@30s:node=nope")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	r := newRig(0)
	defer r.k.Close()
	eng, err := New(r.k, r.topo, Options{Workload: defaultWorkload(4), Faults: plan})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := eng.Run(); err == nil {
		t.Fatal("churn run with an unknown crash target succeeded, want an error")
	}
}

// Option validation rejects caller bugs with the typed error.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Workload: Workload{Jobs: -1}},
		{Workload: Workload{ArrivalRate: -0.5}},
		{Workload: Workload{IBFraction: 1.5}},
		{Workload: Workload{MinLifetime: 10 * sim.Second, MaxLifetime: 5 * sim.Second}},
		// A churn gang has no guest for a migrate-abort to hit.
		{Faults: faults.Plan{Specs: []faults.Spec{
			{Kind: faults.KindNodeCrash, At: 30 * sim.Second},
			{Kind: faults.KindMigrateAbort, At: 30 * sim.Second},
		}}},
	}
	for i, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Errorf("case %d: invalid options accepted", i)
			continue
		}
		if _, ok := err.(*OptionsError); !ok {
			t.Errorf("case %d: error %T, want *OptionsError", i, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// Pricing: a swap migration between WAN-constrained sites crosses both
// uplinks; with a cold model and a priced NFS server it also crosses
// the storage link.
func TestMigrationPricingLinks(t *testing.T) {
	r := newRig(1e9)
	defer r.k.Close()
	eng, err := New(r.k, r.topo, Options{Workload: defaultWorkload(1), Model: fleet.CostModel{Cold: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j := &job{name: "j", ib: true, vms: 1, nodes: []*hw.Node{r.topo.Sites[1].Nodes[0]}}
	mig := eng.migrationFor(j, []*hw.Node{r.topo.Sites[0].Nodes[0]})
	want := map[string]bool{"wan:ib": true, "wan:eth": true, "nfs:shared": true}
	if len(mig.Links) != len(want) {
		t.Fatalf("links %v, want %v", mig.Links, want)
	}
	for _, l := range mig.Links {
		if !want[l] {
			t.Fatalf("unexpected link %q in %v", l, mig.Links)
		}
	}
	if mig.Bytes != eng.opts.Workload.VMBytes {
		t.Fatalf("bytes %g, want one VM payload %g", mig.Bytes, eng.opts.Workload.VMBytes)
	}
}

// Regression for the eviction accounting bug: evictFrom used to release
// a gang's slots and memory back to *every* node it ran on, including
// the crashed one — so the dead node's books showed schedulable
// capacity while it was down, and a restore stacked the stale release
// on top of the reset. Capacity on failed hardware must be stranded
// until reinstate rebuilds the books from ground truth.
func TestEvictFromStrandsFailedCapacity(t *testing.T) {
	r := newRig(0)
	defer r.k.Close()
	eng, err := New(r.k, r.topo, Options{Workload: defaultWorkload(1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	bad := r.topo.Sites[0].Nodes[0]
	good := r.topo.Sites[0].Nodes[1]
	j := &job{name: "gang", ib: true, vms: 2, lifetime: 60 * sim.Second, state: stateRunning, nodes: []*hw.Node{bad, good}}
	eng.jobs = append(eng.jobs, j)
	eng.take(bad)
	eng.take(good)
	full := siteSlots(r.topo, bad)
	if eng.slots[bad] != full-1 {
		t.Fatalf("setup: slots[bad] = %d, want %d", eng.slots[bad], full-1)
	}

	bad.Fail()
	eng.evictFrom(bad)

	// The crashed node's claim is stranded, not freed: its books still
	// show the evicted VM's slot as taken. The buggy release made this
	// full again.
	if eng.slots[bad] != full-1 {
		t.Fatalf("slots on failed node = %d after eviction, want %d (stranded)", eng.slots[bad], full-1)
	}
	if eng.mem[bad] != eng.opts.Workload.VMBytes {
		t.Fatalf("mem on failed node = %g after eviction, want one stranded VM (%g)", eng.mem[bad], eng.opts.Workload.VMBytes)
	}
	// The drain triggered by the eviction re-placed the gang, and only
	// on healthy nodes.
	if j.state != stateRunning {
		t.Fatalf("evicted gang not re-placed: state %v", j.state)
	}
	for _, d := range j.nodes {
		if d == bad || d.Failed() {
			t.Fatalf("gang re-placed onto failed node %s", d.Name)
		}
	}

	// Restore rebuilds the books from ground truth: no resident VMs on
	// the node, minus any relocation reservations still on the wire.
	eng.reserved[bad] = 1
	bad.Restore()
	eng.reinstate(bad)
	if eng.slots[bad] != full-1 {
		t.Fatalf("slots after reinstate = %d, want %d (full minus 1 reservation)", eng.slots[bad], full-1)
	}
	if eng.mem[bad] != eng.opts.Workload.VMBytes {
		t.Fatalf("mem after reinstate = %g, want one reserved VM (%g)", eng.mem[bad], eng.opts.Workload.VMBytes)
	}
	eng.reserved[bad] = 0
	eng.reinstate(bad)
	if eng.slots[bad] != full || eng.mem[bad] != 0 {
		t.Fatalf("slots/mem after clean reinstate = %d/%g, want %d/0", eng.slots[bad], eng.mem[bad], full)
	}
}
