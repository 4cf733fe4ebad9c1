// Package churn is an online, continuous-workload simulator layered on
// the fleet control plane. Where a fleet directive plans a batch of
// known jobs up front, churn drives the steady state of a heterogeneous
// data center: jobs arrive on a seeded Poisson process, live for a
// bounded random lifetime, and depart — and the placement engine has to
// decide, online, which nodes each gang lands on and whether to pay for
// corrective swap migrations as the mix drifts.
//
// Two placement policies are pluggable:
//
//   - PolicyGreedy: capacity-driven first-fit in node order — the
//     affinity-blind baseline an online bin-packer would produce.
//   - PolicySwap: best-fit by interconnect affinity on arrival, plus, on
//     every arrival and departure, up to maxSwapsPerEvent (2) affinity-
//     improving moves (gang relocations into free capacity and pairwise
//     destination swaps, after Avin et al., "Simple Destination-Swap
//     Strategies for Adaptive Intra- and Inter-Tenant VM Migration").
//     Each accepted move is priced through fleet.CostModel, sequenced
//     with fleet.PlanSequence against the topology's shared links, and
//     executed as an incremental mini-plan on the shared DES kernel.
//
// Placement and relocation share one gang-fit (first-fit over a node
// order sorted once in New). A job still queued placeDeadline (60 s)
// after arrival is rejected. Node crashes arm through one
// faults.Injector over the engine's nodes, whose NodeDown/NodeUp hooks
// evict and reinstate capacity.
//
// Everything runs on the simulated clock from one per-run PRNG: the
// whole arrival schedule is drawn up front in a fixed order, decisions
// iterate slices (never maps), and mini-plans execute at the sequencer's
// predicted batch times — so a run is byte-identical across repeat runs
// and host parallelism.
package churn

import (
	"fmt"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/sim"
)

// Policy selects the online placement algorithm.
type Policy int

const (
	// PolicyGreedy is first-fit in node order, no corrective migrations.
	PolicyGreedy Policy = iota
	// PolicySwap is affinity best-fit plus adaptive destination-swap
	// migrations on every arrival and departure.
	PolicySwap
)

// String returns the policy label.
func (p Policy) String() string {
	switch p {
	case PolicyGreedy:
		return "greedy"
	case PolicySwap:
		return "destination-swap"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// OptionsError reports an option field set to a value that is always a
// caller bug (mirrors fleet.OptionsError; the zero value of every
// tunable selects the documented default).
type OptionsError struct {
	Field  string
	Value  float64
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("churn: invalid %s %g: %s", e.Field, e.Value, e.Reason)
}

// Workload is the seeded arrival process: how jobs enter and leave the
// fleet. Every random draw comes from one rand.Rand seeded with Seed,
// consumed in a fixed order before the clock starts, so the schedule is
// a pure function of the spec.
type Workload struct {
	// Seed seeds the per-run PRNG (0 is a valid, fixed seed).
	Seed int64
	// Jobs is the total number of arrivals to generate (default 64).
	Jobs int
	// ArrivalRate is the Poisson arrival intensity in jobs per simulated
	// second (default 0.1 — one job every 10 s on average, which runs
	// the default two-site deployment at high-but-survivable utilization:
	// queues form, a few placements miss the deadline, most land).
	ArrivalRate float64
	// MeanLifetime is the exponential mean of a job's lifetime (default
	// 120 s), clamped to [MinLifetime, MaxLifetime].
	MeanLifetime sim.Time
	// MinLifetime / MaxLifetime bound the lifetime draw (defaults 10 s
	// and 600 s).
	MinLifetime sim.Time
	MaxLifetime sim.Time
	// MaxVMs bounds a job's gang size, drawn uniformly from [1, MaxVMs]
	// (default 2).
	MaxVMs int
	// IBFraction is the probability an arriving job is IB-capable
	// (default 0.5).
	IBFraction float64
	// VMBytes is one VM's wire payload for pricing migrations (default
	// 4 GiB of touched guest memory).
	VMBytes float64
}

func (w Workload) withDefaults() Workload {
	if w.Jobs <= 0 {
		w.Jobs = 64
	}
	if w.ArrivalRate <= 0 {
		w.ArrivalRate = 0.1
	}
	if w.MeanLifetime <= 0 {
		w.MeanLifetime = 120 * sim.Second
	}
	if w.MinLifetime <= 0 {
		w.MinLifetime = 10 * sim.Second
	}
	if w.MaxLifetime <= 0 {
		w.MaxLifetime = 600 * sim.Second
	}
	if w.MaxVMs <= 0 {
		w.MaxVMs = 2
	}
	if w.IBFraction <= 0 {
		w.IBFraction = 0.5
	}
	if w.VMBytes <= 0 {
		w.VMBytes = 4 * (1 << 30)
	}
	return w
}

// Validate rejects spec values that are always caller bugs.
func (w Workload) Validate() error {
	if w.Jobs < 0 {
		return &OptionsError{Field: "Workload.Jobs", Value: float64(w.Jobs),
			Reason: "arrival count must not be negative (0 selects the default)"}
	}
	if w.ArrivalRate < 0 {
		return &OptionsError{Field: "Workload.ArrivalRate", Value: w.ArrivalRate,
			Reason: "arrival rate must not be negative"}
	}
	if w.IBFraction > 1 {
		return &OptionsError{Field: "Workload.IBFraction", Value: w.IBFraction,
			Reason: "a probability cannot exceed 1"}
	}
	if w.MinLifetime > 0 && w.MaxLifetime > 0 && w.MinLifetime > w.MaxLifetime {
		return &OptionsError{Field: "Workload.MinLifetime", Value: w.MinLifetime.Seconds(),
			Reason: "lifetime floor above the ceiling"}
	}
	return nil
}

// arrival is one pre-drawn job arrival.
type arrival struct {
	name     string
	at       sim.Time
	lifetime sim.Time
	vms      int
	ib       bool
}

// schedule draws the full arrival schedule from one PRNG in a fixed
// order (per job: inter-arrival gap, lifetime, gang size, IB flag). The
// PRNG is exhausted before the clock starts, so event execution order
// can never perturb the workload.
func (w Workload) schedule() []arrival {
	w = w.withDefaults()
	rng := rand.New(rand.NewSource(w.Seed))
	out := make([]arrival, w.Jobs)
	var t sim.Time
	for i := range out {
		gap := sim.FromSeconds(rng.ExpFloat64() / w.ArrivalRate)
		t += gap
		life := sim.FromSeconds(rng.ExpFloat64() * w.MeanLifetime.Seconds())
		if life < w.MinLifetime {
			life = w.MinLifetime
		}
		if life > w.MaxLifetime {
			life = w.MaxLifetime
		}
		out[i] = arrival{
			name:     fmt.Sprintf("churn-%03d", i),
			at:       t,
			lifetime: life,
			vms:      1 + rng.Intn(w.MaxVMs),
			ib:       rng.Float64() < w.IBFraction,
		}
	}
	return out
}

const (
	// maxSwapsPerEvent bounds the corrective moves proposed per arrival
	// or departure under PolicySwap.
	maxSwapsPerEvent = 2
	// placeDeadline bounds a job's queue wait: a job still unplaced
	// after this long is rejected and counted as a deadline miss.
	placeDeadline = 60 * sim.Second
)

// Options configures one churn run.
type Options struct {
	// Workload is the seeded arrival process.
	Workload Workload
	// Policy selects greedy or destination-swap placement.
	Policy Policy
	// Model prices swap and fault migrations (zero value → fleet
	// defaults). Set Model.Cold to stream re-placements through the
	// topology's NFS link.
	Model fleet.CostModel
	// Seq selects how mini-plan migrations overlap (default batched).
	Seq fleet.SeqPolicy
	// Faults is the node-fault script, armed through one faults.Injector
	// over the topology's nodes. Only node-crash specs apply — an
	// abstract churn job has no guest to aim a QMP or migrate-abort
	// fault at — so Validate rejects every other kind, and Run fails on
	// a target that names no node.
	Faults faults.Plan
	// Log receives one line per engine decision (nil discards).
	Log func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	o.Workload = o.Workload.withDefaults()
	if o.Seq == (fleet.SeqPolicy{}) {
		o.Seq = fleet.SeqPolicy{Batched: true}
	}
	return o
}

// Validate rejects option values that are always caller bugs.
func (o Options) Validate() error {
	if err := o.Workload.Validate(); err != nil {
		return err
	}
	for i, s := range o.Faults.Specs {
		if s.Kind != faults.KindNodeCrash {
			return &OptionsError{Field: "Options.Faults", Value: float64(i),
				Reason: fmt.Sprintf("spec %d is %s, but only %s applies to an abstract churn gang",
					i, s.Kind, faults.KindNodeCrash)}
		}
	}
	return o.Seq.Validate()
}

// idealAffinity is the best per-VM score a job of this capability can
// achieve anywhere in the fleet: AffinityIB for IB-capable jobs,
// AffinityEth for TCP-only jobs (an IB slot would score lower for them).
func idealAffinity(ib bool) int {
	if ib {
		return fleet.AffinityIB
	}
	return fleet.AffinityEth
}

// deficit is the per-VM affinity cost of a concrete placement: ideal
// minus achieved, always ≥ 0. The time integral of the fleet-wide
// deficit is the run's headline metric.
func deficit(ib bool, achieved int) int {
	d := idealAffinity(ib) - achieved
	if d < 0 {
		return 0
	}
	return d
}
