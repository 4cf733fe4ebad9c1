package churn

import (
	"fmt"
	"sort"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/sim"
)

// jobState is where a churn job is in its lifecycle.
type jobState int

const (
	stateQueued jobState = iota
	stateRunning
	stateRejected
	stateDeparted
)

// job is one churn job: an abstract gang (no guest VMs are booted — the
// engine prices and times its migrations through the fleet sequencer,
// which only reads payload, fixed cost, rate and links).
type job struct {
	name     string
	ib       bool
	vms      int
	lifetime sim.Time
	arrived  sim.Time // arrival (or re-queue-after-fault) instant
	state    jobState
	nodes    []*hw.Node // one entry per VM while running
	wait     sim.Time   // queue wait actually paid before placement
	departEv sim.Event  // pending departure, cancelable on eviction
	deadline sim.Event  // pending queue-deadline, cancelable on placement
	evicted  bool       // re-queued by a node fault at least once
}

// moveGroup is one atomic corrective move: either a single-gang
// relocation into free capacity (destination slots reserved while the
// plan is on the wire) or a pairwise destination exchange between two
// equal-shape gangs (net-zero per node, nothing to reserve). The group
// commits all-or-nothing — a half-applied exchange would corrupt the
// occupancy books.
type moveGroup struct {
	jobs     []*job
	dsts     [][]*hw.Node
	exchange bool
}

// miniPlan is one queued unit of migration work: a priced sequence plus
// the move groups to land when the wire time has elapsed.
type miniPlan struct {
	seq    fleet.Sequence
	groups []*moveGroup
}

// Engine runs one churn workload over a fleet topology on the shared
// DES kernel.
type Engine struct {
	k    *sim.Kernel
	topo *fleet.Topology
	opts Options

	nodes    []*hw.Node           // candidate order: site order, then node order
	ibOrder  []*hw.Node           // nodes best-affinity first for an IB-capable gang (stable)
	ethOrder []*hw.Node           // nodes best-affinity first for a TCP-only gang (stable)
	slots    map[*hw.Node]int     // free placement slots
	mem      map[*hw.Node]float64 // bytes of churn payload resident per node
	reserved map[*hw.Node]int     // relocation reservations on the wire, per destination

	jobs    []*job // every job, arrival order (stable iteration)
	queue   []*job // waiting for capacity, FIFO
	pending []*miniPlan
	busy    bool // a mini-plan is on the wire

	clock   sim.Time // last cost-integral checkpoint
	cost    float64  // ∫ fleet affinity deficit dt (points·seconds)
	rep     Report
	stopped bool
}

// New builds an engine over the topology. Sites are taken in topology
// order and nodes in site order — the deterministic candidate order both
// policies share. The two affinity orders are sorted once here: a node's
// fleet.Affinity depends only on the gang's IB capability and on whether
// the node has an HCA, and both are fixed once the topology exists.
func New(k *sim.Kernel, topo *fleet.Topology, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := &Engine{
		k:        k,
		topo:     topo,
		opts:     opts,
		slots:    make(map[*hw.Node]int),
		mem:      make(map[*hw.Node]float64),
		reserved: make(map[*hw.Node]int),
	}
	for _, s := range topo.Sites {
		for _, n := range s.Nodes {
			e.nodes = append(e.nodes, n)
			e.slots[n] = siteSlots(topo, n)
		}
	}
	if len(e.nodes) == 0 {
		return nil, fmt.Errorf("churn: topology has no nodes")
	}
	e.ibOrder, e.ethOrder = byAffinity(e.nodes, true), byAffinity(e.nodes, false)
	return e, nil
}

// byAffinity returns the nodes stable-sorted best-affinity first for a
// gang of the given IB capability.
func byAffinity(nodes []*hw.Node, ib bool) []*hw.Node {
	order := append([]*hw.Node(nil), nodes...)
	sort.SliceStable(order, func(a, b int) bool {
		return fleet.Affinity(ib, order[a]) > fleet.Affinity(ib, order[b])
	})
	return order
}

// affinityOrder is the candidate order best-affinity first for j.
func (e *Engine) affinityOrder(j *job) []*hw.Node {
	if j.ib {
		return e.ibOrder
	}
	return e.ethOrder
}

func siteSlots(topo *fleet.Topology, n *hw.Node) int {
	s := topo.SiteOf(n)
	if s == nil || s.SlotsPerNode < 1 {
		return 1
	}
	return s.SlotsPerNode
}

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Log != nil {
		e.opts.Log(format, args...)
	}
}

// Run schedules the whole workload, arms the fault plan through one
// faults.Injector over the engine's nodes, and drives the kernel until
// every job has departed or been rejected. It returns the injector's Arm
// error (e.g. a crash target not in the topology), or an error when the
// kernel drains with jobs still unresolved. The caller owns the kernel;
// Run uses k.Run, so no other open-ended procs should be left runnable.
func (e *Engine) Run() (Report, error) {
	e.rep.Policy = e.opts.Policy.String()
	e.rep.Seed = e.opts.Workload.Seed
	for _, a := range e.opts.Workload.schedule() {
		e.k.ScheduleAt(a.at, func() { e.onArrival(a) })
	}
	in := faults.NewInjector(e.k, e.opts.Faults, faults.Env{
		Nodes: e.nodes, NodeDown: e.nodeDown, NodeUp: e.nodeUp,
	})
	if err := in.Arm(); err != nil {
		return Report{}, fmt.Errorf("churn: arming faults: %w", err)
	}
	e.k.Run()
	if !e.stopped {
		return Report{}, fmt.Errorf("churn: run incomplete (%d/%d jobs resolved)",
			e.rep.Departed+e.rep.Rejected, e.rep.Arrived)
	}
	r := e.rep
	r.CostIntegral = e.cost
	if r.Duration > 0 {
		r.AvgCost = e.cost / r.Duration.Seconds()
	}
	r.finalize()
	return r, nil
}

// nodeDown is the injector's NodeDown hook: count the crash and evict
// the gangs running on the node.
func (e *Engine) nodeDown(n *hw.Node) {
	e.rep.Faults++
	e.logf("churn: %v node %s down", e.k.Now(), n.Name)
	e.evictFrom(n)
}

// nodeUp is the injector's NodeUp hook: rebuild the node's books, then
// let queued jobs and corrective moves use it again.
func (e *Engine) nodeUp(n *hw.Node) {
	e.reinstate(n)
	e.logf("churn: %v node %s restored", e.k.Now(), n.Name)
	e.drainQueue()
	e.maybeSwap()
}

// onArrival admits one job: place it now or queue it under the
// placement deadline.
func (e *Engine) onArrival(a arrival) {
	j := &job{name: a.name, ib: a.ib, vms: a.vms, lifetime: a.lifetime, arrived: e.k.Now()}
	e.jobs = append(e.jobs, j)
	e.rep.Arrived++
	if e.place(j) {
		e.maybeSwap()
		return
	}
	e.enqueue(j)
	e.maybeSwap()
}

// enqueue parks an unplaceable job behind the placement deadline.
func (e *Engine) enqueue(j *job) {
	j.state = stateQueued
	e.queue = append(e.queue, j)
	jj := j
	j.deadline = e.k.Schedule(placeDeadline, func() { e.onDeadline(jj) })
}

// onDeadline rejects a job that waited out its placement deadline.
func (e *Engine) onDeadline(j *job) {
	if j.state != stateQueued {
		return
	}
	e.removeQueued(j)
	j.state = stateRejected
	e.rep.Rejected++
	e.logf("churn: %v job %s rejected after %v in queue", e.k.Now(), j.name, placeDeadline)
	e.checkDone()
}

// place tries to put the job's gang on nodes now. Greedy takes the
// first free slots in candidate order; swap takes the highest-affinity
// free slots. Returns false when capacity is short.
func (e *Engine) place(j *job) bool {
	dsts := e.findSlots(j)
	if dsts == nil {
		return false
	}
	e.accrue()
	for _, n := range dsts {
		e.take(n)
	}
	j.nodes = dsts
	j.state = stateRunning
	j.wait = e.k.Now() - j.arrived
	j.deadline.Cancel()
	j.deadline = sim.Event{}
	e.rep.WaitTotal += j.wait
	if j.evicted {
		e.rep.FaultMigs++
		e.rep.MigBytes += float64(j.vms) * e.opts.Workload.VMBytes
	} else {
		e.rep.Placed++
		e.rep.waits = append(e.rep.waits, j.wait)
	}
	jj := j
	j.departEv = e.k.Schedule(j.lifetime, func() { e.onDeparture(jj) })
	return true
}

// findSlots places the gang against the live books: greedy first-fit in
// candidate order, swap best-affinity first.
func (e *Engine) findSlots(j *job) []*hw.Node {
	order := e.nodes
	if e.opts.Policy == PolicySwap {
		order = e.affinityOrder(j)
	}
	return e.fit(j, order, e.slots, e.mem)
}

// fit returns one healthy node per VM of j, first-fit in order against
// the given free-slot and resident-memory books, or nil when the gang
// does not fit. A gang may spread across nodes; a node with several
// free slots may hold several of its VMs.
func (e *Engine) fit(j *job, order []*hw.Node, slots map[*hw.Node]int, mem map[*hw.Node]float64) []*hw.Node {
	vmBytes := e.opts.Workload.VMBytes
	dsts := make([]*hw.Node, 0, j.vms)
vm:
	for v := 0; v < j.vms; v++ {
		for _, n := range order {
			taken := 0
			for _, d := range dsts {
				if d == n {
					taken++
				}
			}
			if n.Failed() || slots[n]-taken <= 0 || mem[n]+float64(taken+1)*vmBytes > n.MemoryBytes {
				continue
			}
			dsts = append(dsts, n)
			continue vm
		}
		return nil
	}
	return dsts
}

func (e *Engine) take(n *hw.Node) {
	e.slots[n]--
	e.mem[n] += e.opts.Workload.VMBytes
}

func (e *Engine) release(n *hw.Node) {
	e.slots[n]++
	e.mem[n] -= e.opts.Workload.VMBytes
}

// onDeparture retires a job at end of life.
func (e *Engine) onDeparture(j *job) {
	if j.state != stateRunning {
		return
	}
	e.accrue()
	for _, n := range j.nodes {
		e.release(n)
	}
	j.nodes = nil
	j.state = stateDeparted
	e.rep.Departed++
	e.drainQueue()
	e.maybeSwap()
	e.checkDone()
}

// drainQueue re-tries queued jobs in FIFO order after capacity frees
// up. A job that fits is placed with its accumulated wait; jobs that
// still do not fit keep waiting (their deadline events are armed).
func (e *Engine) drainQueue() {
	var still []*job
	for _, j := range e.queue {
		if j.state != stateQueued {
			continue
		}
		if e.place(j) {
			continue
		}
		still = append(still, j)
	}
	e.queue = still
	e.checkDone()
}

func (e *Engine) removeQueued(j *job) {
	for i, q := range e.queue {
		if q == j {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// evictFrom re-queues every running job with a VM on the failed node.
// The gang's checkpoint survives on the shared store, so the job is not
// lost — it waits for re-placement like a fresh arrival, and the
// re-placement is counted as a fault migration.
//
// Capacity released by an eviction goes back only to healthy nodes: a
// VM's claim on failed hardware is stranded, not freed — dead nodes must
// not appear to hold schedulable slots while down. (fit skips Failed
// nodes as well, so this is defense-in-depth for the books themselves.)
// reinstate rebuilds the node's books from ground truth when it
// restores.
func (e *Engine) evictFrom(n *hw.Node) {
	e.accrue()
	evicted := false
	for _, j := range e.jobs {
		if j.state != stateRunning {
			continue
		}
		hit := false
		for _, d := range j.nodes {
			if d == n {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		for _, d := range j.nodes {
			if d.Failed() {
				continue
			}
			e.release(d)
		}
		j.nodes = nil
		j.evicted = true
		j.arrived = e.k.Now()
		j.departEv.Cancel()
		j.departEv = sim.Event{}
		e.logf("churn: %v job %s evicted from %s", e.k.Now(), j.name, n.Name)
		e.enqueue(j)
		evicted = true
	}
	if evicted {
		e.drainQueue()
		e.maybeSwap()
	}
}

// reinstate rebuilds a restored node's capacity books from ground truth.
// While the node was down, evicted occupants' claims were deliberately
// not released back to it (dead hardware holds no schedulable capacity),
// so the stale counters are replaced wholesale: full site slots minus
// VMs still resident (none, after eviction) and minus relocation
// reservations still on the wire.
func (e *Engine) reinstate(n *hw.Node) {
	occ := 0
	for _, j := range e.jobs {
		if j.state != stateRunning {
			continue
		}
		for _, d := range j.nodes {
			if d == n {
				occ++
			}
		}
	}
	held := occ + e.reserved[n]
	e.slots[n] = siteSlots(e.topo, n) - held
	e.mem[n] = float64(held) * e.opts.Workload.VMBytes
}

// maybeSwap proposes up to maxSwapsPerEvent affinity-improving move
// groups and queues them as one priced mini-plan. Only one mini-plan is
// on the wire at a time; further proposals are deferred until it lands
// so they are always computed against fresh state. Relocation
// destinations are reserved immediately — an arrival racing the wire
// must not claim the same slot.
func (e *Engine) maybeSwap() {
	if e.opts.Policy != PolicySwap || e.busy || e.stopped {
		return
	}
	groups := e.proposeGroups()
	if len(groups) == 0 {
		return
	}
	var migs []*fleet.Migration
	for _, g := range groups {
		for i, j := range g.jobs {
			migs = append(migs, e.migrationFor(j, g.dsts[i]))
		}
		if !g.exchange {
			for _, dst := range g.dsts {
				for _, n := range dst {
					e.take(n)
					e.reserved[n]++
				}
			}
		}
	}
	seq := fleet.PlanSequence(migs, e.topo.LinkCaps(), e.opts.Seq)
	e.submit(&miniPlan{seq: seq, groups: groups})
}

// proposeGroups scans for strictly improving corrective moves against a
// shadow of the current occupancy: gang relocations into free capacity
// first, then pairwise destination exchanges between equal-shape gangs.
// Earlier proposals update the shadow so later ones see their effect.
// One group counts one move against the maxSwapsPerEvent budget.
func (e *Engine) proposeGroups() []*moveGroup {
	shadowSlots := make(map[*hw.Node]int, len(e.slots))
	for n, s := range e.slots {
		shadowSlots[n] = s
	}
	shadowMem := make(map[*hw.Node]float64, len(e.mem))
	for n, m := range e.mem {
		shadowMem[n] = m
	}
	loc := make(map[*job][]*hw.Node)
	var running []*job
	for _, j := range e.jobs {
		if j.state == stateRunning {
			running = append(running, j)
			loc[j] = append([]*hw.Node(nil), j.nodes...)
		}
	}
	vmBytes := e.opts.Workload.VMBytes
	score := func(j *job, nodes []*hw.Node) int {
		s := 0
		for _, n := range nodes {
			s += fleet.Affinity(j.ib, n)
		}
		return s
	}
	var groups []*moveGroup
	// Relocations: best free slots strictly better than the current ones.
	for _, j := range running {
		if len(groups) >= maxSwapsPerEvent {
			return groups
		}
		dst := e.fit(j, e.affinityOrder(j), shadowSlots, shadowMem)
		if dst == nil || score(j, dst) <= score(j, loc[j]) {
			continue
		}
		for _, n := range loc[j] {
			shadowSlots[n]++
			shadowMem[n] -= vmBytes
		}
		for _, n := range dst {
			shadowSlots[n]--
			shadowMem[n] += vmBytes
		}
		loc[j] = dst
		groups = append(groups, &moveGroup{jobs: []*job{j}, dsts: [][]*hw.Node{dst}})
	}
	// Pairwise destination exchanges: swap two equal-shape gangs' node
	// sets when the summed affinity strictly rises. Slot counts per node
	// are unchanged by an exchange; with uniform VMBytes so is memory.
	for i := 0; i < len(running); i++ {
		if len(groups) >= maxSwapsPerEvent {
			return groups
		}
		for jdx := i + 1; jdx < len(running); jdx++ {
			a, b := running[i], running[jdx]
			if a.vms != b.vms {
				continue
			}
			before := score(a, loc[a]) + score(b, loc[b])
			after := score(a, loc[b]) + score(b, loc[a])
			if after <= before {
				continue
			}
			loc[a], loc[b] = loc[b], loc[a]
			groups = append(groups, &moveGroup{
				jobs: []*job{a, b}, dsts: [][]*hw.Node{loc[a], loc[b]}, exchange: true,
			})
			break
		}
	}
	return groups
}

// migrationFor prices moving the gang to dsts: per-VM payload and wire
// rate, coordination plus IB re-attach overheads, the WAN circuits the
// gang crosses, and the shared NFS link when the model streams
// checkpoints (fleet.MigrationOf's pricing, applied to an abstract
// gang).
func (e *Engine) migrationFor(j *job, dsts []*hw.Node) *fleet.Migration {
	m := e.opts.Model.WithDefaults()
	mig := &fleet.Migration{Job: &fleet.Job{Name: j.name, IBCapable: j.ib}, Dsts: dsts, Fixed: m.Coordination}
	links := map[string]bool{}
	dstIB := false
	for i, d := range dsts {
		mig.Bytes += e.opts.Workload.VMBytes
		mig.MaxRate += m.PerVMWireRate
		var src *fleet.Site
		if i < len(j.nodes) {
			src = e.topo.SiteOf(j.nodes[i])
		}
		dst := e.topo.SiteOf(d)
		if src != dst {
			for _, s := range []*fleet.Site{src, dst} {
				if s != nil && s.WANBandwidth > 0 {
					links["wan:"+s.Name] = true
				}
			}
		}
		if d.HasInfiniBand() {
			dstIB = true
		}
	}
	if j.ib {
		mig.Fixed += m.Hotplug
		if dstIB {
			mig.Fixed += m.IBLinkup
		}
	}
	if m.Cold && e.topo.NFSBandwidth > 0 {
		links[e.topo.NFSLink()] = true
	}
	for l := range links {
		mig.Links = append(mig.Links, l)
	}
	sort.Strings(mig.Links)
	return mig
}

// submit queues a mini-plan and starts the wire pump if idle.
func (e *Engine) submit(p *miniPlan) {
	e.pending = append(e.pending, p)
	if !e.busy {
		e.pump()
	}
}

// pump executes pending mini-plans one at a time: each batch holds the
// wire for its predicted duration (the sequencer's contention-aware
// estimate), then the plan's commit flips engine state atomically.
func (e *Engine) pump() {
	if len(e.pending) == 0 {
		e.busy = false
		e.maybeSwap()
		e.checkDone()
		return
	}
	e.busy = true
	p := e.pending[0]
	e.pending = e.pending[1:]
	e.k.Schedule(p.seq.Predicted, func() {
		e.commitGroups(p.groups)
		e.pump()
	})
}

// commitGroups lands a mini-plan's move groups all-or-nothing each:
// source slots free, destination slots fill, and the cost integral
// switches to the new affinities. A group whose job departed, was
// evicted, or whose destination failed while the plan was on the wire
// is abandoned — its relocation reservation is returned.
func (e *Engine) commitGroups(groups []*moveGroup) {
	e.accrue()
	for _, g := range groups {
		ok := true
		for _, j := range g.jobs {
			if j.state != stateRunning {
				ok = false
			}
		}
		for _, dst := range g.dsts {
			for _, n := range dst {
				if n.Failed() {
					ok = false
				}
			}
		}
		if !ok {
			if !g.exchange {
				// Return the relocation reservation. A destination that
				// failed on the wire keeps nothing — its books are rebuilt
				// by reinstate on restore.
				for _, dst := range g.dsts {
					for _, n := range dst {
						e.reserved[n]--
						if n.Failed() {
							continue
						}
						e.release(n)
					}
				}
			}
			continue
		}
		for i, j := range g.jobs {
			for _, n := range j.nodes {
				e.release(n)
			}
			if g.exchange {
				for _, n := range g.dsts[i] {
					e.take(n)
				}
			} else {
				// The reservation (taken at proposal time) becomes
				// occupancy.
				for _, n := range g.dsts[i] {
					e.reserved[n]--
				}
			}
			j.nodes = g.dsts[i]
			e.rep.SwapMigs++
			e.rep.MigBytes += float64(j.vms) * e.opts.Workload.VMBytes
		}
	}
}

// accrue folds the elapsed interval into the cost integral at the
// current fleet-wide affinity deficit. Call before any state change.
func (e *Engine) accrue() {
	now := e.k.Now()
	if now > e.clock {
		e.cost += float64(e.deficitNow()) * (now - e.clock).Seconds()
		e.clock = now
	}
}

// deficitNow sums the per-VM affinity deficit over running jobs.
func (e *Engine) deficitNow() int {
	d := 0
	for _, j := range e.jobs {
		if j.state != stateRunning {
			continue
		}
		for _, n := range j.nodes {
			d += deficit(j.ib, fleet.Affinity(j.ib, n))
		}
	}
	return d
}

// checkDone finishes the run once every job is departed or rejected and
// no migration work is pending.
func (e *Engine) checkDone() {
	if e.stopped || e.busy || len(e.pending) > 0 {
		return
	}
	if e.rep.Departed+e.rep.Rejected < e.opts.Workload.Jobs {
		return
	}
	e.finish()
}

func (e *Engine) finish() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.accrue()
	e.rep.Duration = e.k.Now()
}
