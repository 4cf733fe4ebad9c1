package simfarm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ninja"
)

// Spec is the single declaration of a scenario: the JSON body ninjad
// accepts on POST /jobs and the entry of a sweep matrix's directive axis.
// Every knob is declared here once; Fleet, Churn and SweepMatrix are the
// only places its strings are translated into experiment types, and
// Validate the only place they are checked. A run is a pure function of
// its Spec, which is what makes re-executing an interrupted ninjad job
// after a crash converge on the identical report.
type Spec struct {
	// Kind is "evacuate" (default), "rolling-maintenance", "sweep" — a
	// Monte Carlo fault sweep over a simfarm matrix, sized by
	// jobs/seeds/seed_base/parallelism and shaped by matrix/fault_plans
	// below — or "churn", the continuous online-placement workload of
	// internal/churn under one policy. "consolidate" is rejected: the
	// fleet testbed boots one VM per source node, so there is no packing
	// headroom to consolidate into.
	Kind string `json:"kind,omitempty"`
	// Placement is "greedy" (default) or "swap". For kind "churn" it
	// selects the online policy: greedy first-fit or adaptive
	// destination-swap.
	Placement string `json:"placement,omitempty"`
	// Batched enables concurrent gang execution; Cap bounds concurrent
	// migrations per batch (0 = unlimited).
	Batched bool `json:"batched,omitempty"`
	Cap     int  `json:"cap,omitempty"`
	// Seq selects the sequencing algorithm: "lpt" (default) or "maxflow"
	// (time-expanded max-flow rounds). For kind "churn" it sequences the
	// engine's mini-plans; not valid for kind "sweep" (the matrix carries
	// its own policies).
	Seq string `json:"seq,omitempty"`
	// Mode selects the transfer mechanism for evacuate/rolling-maintenance
	// directives: "live" (default), "rdma" (RDMA-native QP checkpoint/
	// replay — IB-capable jobs skip hotplug and link training, demoting
	// per VM to the hotplug rung on replay faults), or "cold"
	// (checkpoint/restart through the shared store).
	Mode string `json:"mode,omitempty"`
	// MaxInFlight caps jobs migrating concurrently per rolling-maintenance
	// mini-plan (0 = 2).
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// ReturnHome makes an evacuation bidirectional (site outage + return).
	ReturnHome bool `json:"return_home,omitempty"`
	// Faulted crashes a planned destination mid-directive (for kind
	// "churn": the default node-crash plan; not valid for
	// rolling-maintenance, which plans no batches up front);
	// ForcedRollback forces job00 into a rollback-in-place re-queue.
	Faulted        bool `json:"faulted,omitempty"`
	ForcedRollback bool `json:"forced_rollback,omitempty"`
	// Jobs / VMsPerJob size the fleet (defaults 8 × 2). For kind "sweep",
	// Jobs sizes each cell (default 4 for the default matrix, 32 arrivals
	// for the churn matrix); for kind "churn" it is the arrival count
	// (default 64).
	Jobs      int `json:"jobs,omitempty"`
	VMsPerJob int `json:"vms_per_job,omitempty"`
	// Seeds / SeedBase / Parallelism apply to kind "sweep" only: seeds per
	// matrix row (0 = 16), first seed (0 = 1), and worker count (0 =
	// GOMAXPROCS). Parallelism affects wall-clock only — the committed
	// result is byte-identical at any worker count, which is what lets a
	// crashed sweep job re-execute and converge on the identical record.
	Seeds       int   `json:"seeds,omitempty"`
	SeedBase    int64 `json:"seed_base,omitempty"`
	Parallelism int   `json:"parallelism,omitempty"`
	// Matrix selects the sweep matrix (kind "sweep" only): "default" (the
	// evacuation directive × fault-plan matrix) or "churn" (online
	// placement policies × node-crash).
	Matrix string `json:"matrix,omitempty"`
	// FaultPlans restricts the sweep's fault axis to the named plans
	// (kind "sweep" only; empty keeps the matrix's full axis). Unknown
	// names are rejected with the matrix's plan list.
	FaultPlans []string `json:"fault_plans,omitempty"`
	// Seed seeds a churn run's arrival workload (kind "churn" only; 0 is
	// a valid, fixed seed). In a sweep the cell seed replaces it.
	Seed int64 `json:"seed,omitempty"`
}

// DecodeSpec decodes and validates one JSON spec. Unknown fields are
// rejected so a typo ("placment") cannot silently run the default fleet.
// Errors read "directive: ..."; a bad fault-plan name wraps the matrix's
// *OptionsError.
func DecodeSpec(raw []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("directive: %w", err)
	}
	if err := s.Validate(); err != nil {
		return s, fmt.Errorf("directive: %w", err)
	}
	if len(s.FaultPlans) == 0 {
		s.FaultPlans = nil // an empty selection keeps the full axis
	}
	return s, nil
}

// Validate rejects a spec whose fields do not apply to its kind, whose
// enums are unknown, whose counts are negative, or — for a sweep — whose
// fault-plan names the selected matrix does not have.
func (s Spec) Validate() error {
	switch s.Kind {
	case "", "evacuate", "rolling-maintenance":
		if s.Seeds != 0 || s.SeedBase != 0 || s.Parallelism != 0 ||
			s.Matrix != "" || s.FaultPlans != nil {
			return errors.New(`seeds/seed_base/parallelism/matrix/fault_plans apply to kind "sweep" only`)
		}
		if s.Seed != 0 {
			return errors.New(`seed applies to kind "churn" only`)
		}
	case "sweep":
		if s.Mode != "" {
			return errors.New("mode applies to evacuate/rolling-maintenance only")
		}
		if s.Placement != "" || s.Batched || s.Cap != 0 || s.Seq != "" || s.MaxInFlight != 0 ||
			s.ReturnHome || s.Faulted || s.ForcedRollback || s.VMsPerJob != 0 || s.Seed != 0 {
			return errors.New("a sweep runs a directive × fault-plan matrix; only jobs, seeds, seed_base, parallelism, matrix and fault_plans apply")
		}
		if s.Seeds < 0 || s.SeedBase < 0 || s.Parallelism < 0 {
			return errors.New("negative counts are not valid")
		}
		switch s.Matrix {
		case "", "default", "churn":
		default:
			return fmt.Errorf("unknown matrix %q (want default or churn)", s.Matrix)
		}
		if _, err := s.SweepMatrix(); err != nil {
			return err
		}
	case "churn":
		if s.Mode != "" {
			return errors.New("mode applies to evacuate/rolling-maintenance only")
		}
		if s.Batched || s.Cap != 0 || s.MaxInFlight != 0 || s.ReturnHome ||
			s.ForcedRollback || s.VMsPerJob != 0 || s.Seeds != 0 || s.SeedBase != 0 ||
			s.Parallelism != 0 || s.Matrix != "" || s.FaultPlans != nil {
			return errors.New("a churn run takes only placement, seq, jobs, seed and faulted")
		}
		if s.Seed < 0 {
			return errors.New("negative counts are not valid")
		}
	case "consolidate":
		return fmt.Errorf("kind %q not supported: the fleet testbed has no packing headroom (one VM per source node)", s.Kind)
	default:
		return fmt.Errorf("unknown kind %q (want evacuate, rolling-maintenance, sweep or churn)", s.Kind)
	}
	switch s.Placement {
	case "", "greedy", "swap":
	default:
		return fmt.Errorf("unknown placement %q (want greedy or swap)", s.Placement)
	}
	if err := (fleet.SeqPolicy{Mode: s.Seq}).Validate(); err != nil {
		return fmt.Errorf("unknown seq %q (want %s or %s)", s.Seq, fleet.SeqLPT, fleet.SeqMaxFlow)
	}
	switch s.Mode {
	case "", "live", "rdma", "cold":
	default:
		return fmt.Errorf("unknown mode %q (want live, rdma or cold)", s.Mode)
	}
	if s.MaxInFlight < 0 || s.Cap < 0 || s.Jobs < 0 || s.VMsPerJob < 0 {
		return errors.New("negative counts are not valid")
	}
	if s.Kind == "rolling-maintenance" && s.ReturnHome {
		return errors.New("return_home applies to evacuations only")
	}
	if s.Kind == "rolling-maintenance" && s.Faulted {
		return errors.New("faulted applies to evacuate and churn only: a rolling drain has no planned batch to crash")
	}
	return nil
}

// Fleet translates an evacuate or rolling-maintenance spec into the
// deployment shape and scenario experiments.RunFleetScenario runs. A
// rolling drain without a cap gets the default of 2 jobs in flight.
func (s Spec) Fleet() (experiments.FleetConfig, experiments.FleetScenario) {
	cfg := experiments.FleetConfig{Jobs: s.Jobs, VMsPerJob: s.VMsPerJob}
	sc := experiments.FleetScenario{
		Seq:            fleet.SeqPolicy{Batched: s.Batched, Cap: s.Cap, Mode: s.Seq},
		MaxInFlight:    s.MaxInFlight,
		ReturnHome:     s.ReturnHome,
		Faulted:        s.Faulted,
		ForcedRollback: s.ForcedRollback,
	}
	if s.Kind == "rolling-maintenance" {
		sc.Kind = fleet.RollingMaintenance
		if sc.MaxInFlight <= 0 {
			sc.MaxInFlight = 2
		}
	}
	if s.Placement == "swap" {
		sc.Placement = fleet.PlaceSwap
	}
	switch s.Mode {
	case "rdma":
		sc.Mode = ninja.RDMANative
	case "cold":
		sc.Mode = ninja.Cold
	}
	return cfg, sc
}

// Churn translates a churn spec into the deployment and scenario
// experiments.RunChurnScenario runs: placement picks the online policy,
// seq "maxflow" routes mini-plans through the max-flow planner, and
// faulted arms the default node-crash plan.
func (s Spec) Churn() (experiments.ChurnConfig, experiments.ChurnScenario) {
	var cfg experiments.ChurnConfig
	cfg.Workload.Jobs = s.Jobs
	cfg.Workload.Seed = s.Seed
	var sc experiments.ChurnScenario
	if s.Placement == "swap" {
		sc.Policy = churn.PolicySwap
	}
	if s.Seq == fleet.SeqMaxFlow {
		sc.Seq = fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow}
	}
	if s.Faulted {
		sc.Faults = experiments.ChurnCrashPlan()
	}
	return cfg, sc
}

// SweepMatrix builds a sweep spec's matrix: the selected base matrix
// sized by jobs and seeds, starting at seed_base, with the fault axis
// restricted to any named plans. Unknown plan names surface as an
// *OptionsError naming the plans the matrix has.
func (s Spec) SweepMatrix() (Matrix, error) {
	var m Matrix
	if s.Matrix == "churn" {
		m = ChurnMatrix(s.Jobs, s.Seeds)
	} else {
		m = DefaultMatrix(s.Jobs, s.Seeds)
	}
	m.Seeds.Base = s.SeedBase
	return m.SelectPlans(s.FaultPlans...)
}
