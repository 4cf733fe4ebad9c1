package faults

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vmm"
)

// Env is the blast surface an Injector may touch. Nodes is the victim
// list for node-scoped faults (crash, flap, stall) — pass the migration
// destinations there to model destination-side failures; Store is the
// shared NFS server, if any.
type Env struct {
	VMs   []*vmm.VM
	Nodes []*hw.Node
	Store *storage.NFS
	// Log, when non-nil, receives one call per fault firing (kind,
	// subject, detail) — wire it into the orchestrator's event log so
	// injections appear on the same timeline as recoveries.
	Log func(kind, subject, detail string)
	// NodeDown and NodeUp, when non-nil, run right after a node-crash
	// fails its node (after Log) and right after the node restores at
	// At+For — the hooks through which a scheduler that keeps its own
	// capacity books evicts and reinstates.
	NodeDown func(*hw.Node)
	NodeUp   func(*hw.Node)
}

// Injector binds a Plan to an environment and arms it on the simulation
// clock. Spec targets left empty resolve deterministically: VM-scoped
// faults pick via the plan's seeded PRNG over the name-sorted VM list;
// node-scoped faults hit every HCA (stall/flap) or the first victim
// (crash).
type Injector struct {
	k     *sim.Kernel
	plan  Plan
	env   Env
	rng   *rand.Rand
	armed bool
	fired int
}

// ErrArmed reports a double Arm.
var ErrArmed = errors.New("faults: plan already armed")

// NewInjector builds an injector for the plan over the environment.
func NewInjector(k *sim.Kernel, plan Plan, env Env) *Injector {
	return &Injector{
		k:    k,
		plan: plan,
		env:  env,
		rng:  rand.New(rand.NewSource(plan.Seed)),
	}
}

// Plan returns the bound plan.
func (in *Injector) Plan() Plan { return in.plan }

// Fired returns how many fault firings have occurred so far.
func (in *Injector) Fired() int { return in.fired }

func (in *Injector) log(kind Kind, subject, detail string) {
	in.fired++
	if in.env.Log != nil {
		in.env.Log(string(kind), subject, detail)
	}
}

// armedSpec tracks a VM-hook spec's firing budget.
type armedSpec struct {
	spec  Spec
	fired int
}

// active reports whether the spec may fire now, without consuming budget.
func (a *armedSpec) active(now sim.Time) bool {
	return a.fired < a.spec.count() && now >= a.spec.At
}

// Arm resolves every spec's targets and schedules/installs the faults.
// Call once, before (or during) the run; specs whose At is already past
// fire immediately.
func (in *Injector) Arm() error {
	if in.armed {
		return ErrArmed
	}
	in.armed = true

	hooked := make(map[*vmm.VM][]*armedSpec)
	for _, s := range in.plan.Specs {
		s := s
		switch s.Kind {
		case KindMigrateAbort, KindQMPError, KindDropEvent:
			vm, err := in.pickVM(s.Target)
			if err != nil {
				return err
			}
			hooked[vm] = append(hooked[vm], &armedSpec{spec: s})

		case KindTrainStall:
			hcas, err := in.pickHCAs(s.Target)
			if err != nil {
				return err
			}
			in.schedule(s.At, func() {
				for _, t := range hcas {
					t.hca.InjectTrainingStall(s.stall())
					in.log(s.Kind, t.name, fmt.Sprintf("next training stalls +%v", s.stall()))
				}
			})

		case KindLinkFlap:
			hcas, err := in.pickHCAs(s.Target)
			if err != nil {
				return err
			}
			in.schedule(s.At, func() {
				for _, t := range hcas {
					t.hca.Flap()
					in.log(s.Kind, t.name, "port bounced; retraining")
				}
			})

		case KindNFSSlow:
			if in.env.Store == nil {
				return fmt.Errorf("faults: %s with no store in environment", s.Kind)
			}
			store, f, w := in.env.Store, s.factor(), s.window()
			in.schedule(s.At, func() {
				store.SetSlowdown(f)
				in.log(s.Kind, store.Name, fmt.Sprintf("service time ×%g for %v", f, w))
			})
			in.schedule(s.At+w, func() { store.SetSlowdown(1) })

		case KindNFSOutage:
			if in.env.Store == nil {
				return fmt.Errorf("faults: %s with no store in environment", s.Kind)
			}
			store, w := in.env.Store, s.window()
			in.schedule(s.At, func() {
				store.SetOffline(true)
				in.log(s.Kind, store.Name, fmt.Sprintf("offline for %v", w))
			})
			in.schedule(s.At+w, func() { store.SetOffline(false) })

		case KindQPResyncStall:
			hcas, err := in.pickHCAs(s.Target)
			if err != nil {
				return err
			}
			in.schedule(s.At, func() {
				for _, t := range hcas {
					t.hca.InjectResyncStall(s.resyncStall())
					in.log(s.Kind, t.name, fmt.Sprintf("next QP resync stalls +%v", s.resyncStall()))
				}
			})

		case KindQPStale:
			hcas, err := in.pickHCAs(s.Target)
			if err != nil {
				return err
			}
			in.schedule(s.At, func() {
				for _, t := range hcas {
					t.hca.InjectStaleQPState()
					in.log(s.Kind, t.name, "next QP snapshot replays stale")
				}
			})

		case KindHCAMismatch:
			hcas, err := in.pickHCAs(s.Target)
			if err != nil {
				return err
			}
			in.schedule(s.At, func() {
				for _, t := range hcas {
					t.hca.InjectHCAMismatch()
					in.log(s.Kind, t.name, "next QP restore rejected: incompatible HCA")
				}
			})

		case KindNodeCrash:
			node, err := in.pickNode(s.Target)
			if err != nil {
				return err
			}
			in.schedule(s.At, func() {
				node.Fail()
				in.log(s.Kind, node.Name, "node down")
				if in.env.NodeDown != nil {
					in.env.NodeDown(node)
				}
			})
			if s.For > 0 {
				in.schedule(s.At+s.For, func() {
					node.Restore()
					if in.env.NodeUp != nil {
						in.env.NodeUp(node)
					}
				})
			}

		default:
			return fmt.Errorf("faults: unknown kind %q", s.Kind)
		}
	}
	// Install in name order: map iteration order must never reach the
	// simulation (hook installation is order-insensitive today, but a
	// sorted walk keeps any future cross-VM bookkeeping deterministic).
	vms := make([]*vmm.VM, 0, len(hooked))
	for vm := range hooked {
		vms = append(vms, vm)
	}
	sort.Slice(vms, func(i, j int) bool { return vms[i].Name() < vms[j].Name() })
	for _, vm := range vms {
		in.installHooks(vm, hooked[vm])
	}
	return nil
}

// installHooks merges every VM-scoped spec for one VM into a single
// FaultHooks registration.
func (in *Injector) installHooks(vm *vmm.VM, specs []*armedSpec) {
	vm.SetFaultHooks(&vmm.FaultHooks{
		MigrationPass: func(v *vmm.VM, pass int) error {
			for _, a := range specs {
				if a.spec.Kind != KindMigrateAbort || !a.active(in.k.Now()) || pass != a.spec.pass() {
					continue
				}
				a.fired++
				in.log(a.spec.Kind, v.Name(), fmt.Sprintf("migration socket dropped at pass %d", pass))
				return fmt.Errorf("faults: injected socket drop at precopy pass %d", pass)
			}
			return nil
		},
		QMPExec: func(v *vmm.VM, execute string) *vmm.QMPError {
			for _, a := range specs {
				if a.spec.Kind != KindQMPError || !a.active(in.k.Now()) || execute != a.spec.arg("device_add") {
					continue
				}
				a.fired++
				in.log(a.spec.Kind, v.Name(), fmt.Sprintf("%s errored", execute))
				return &vmm.QMPError{
					Class: "GenericError",
					Desc:  fmt.Sprintf("faults: injected failure of %s", execute),
				}
			}
			return nil
		},
		DropEvent: func(v *vmm.VM, event string) bool {
			for _, a := range specs {
				if a.spec.Kind != KindDropEvent || !a.active(in.k.Now()) || event != a.spec.arg("DEVICE_DELETED") {
					continue
				}
				a.fired++
				in.log(a.spec.Kind, v.Name(), event+" swallowed")
				return true
			}
			return false
		},
	})
}

// schedule runs fn at absolute simulated time at (immediately when past).
func (in *Injector) schedule(at sim.Time, fn func()) {
	delay := at - in.k.Now()
	if delay < 0 {
		delay = 0
	}
	in.k.Schedule(delay, fn)
}

func (in *Injector) pickVM(target string) (*vmm.VM, error) {
	if len(in.env.VMs) == 0 {
		return nil, errors.New("faults: no VMs in environment")
	}
	vms := append([]*vmm.VM(nil), in.env.VMs...)
	sort.Slice(vms, func(i, j int) bool { return vms[i].Name() < vms[j].Name() })
	if target == "" {
		return vms[in.rng.Intn(len(vms))], nil
	}
	for _, vm := range vms {
		if vm.Name() == target {
			return vm, nil
		}
	}
	return nil, fmt.Errorf("faults: no VM named %q", target)
}

func (in *Injector) pickNode(target string) (*hw.Node, error) {
	if len(in.env.Nodes) == 0 {
		return nil, errors.New("faults: no nodes in environment")
	}
	if target == "" {
		return in.env.Nodes[0], nil
	}
	for _, n := range in.env.Nodes {
		if n.Name == target {
			return n, nil
		}
	}
	return nil, fmt.Errorf("faults: no node named %q", target)
}

// hcaTarget pairs an HCA with its node name for deterministic iteration.
type hcaTarget struct {
	name string
	hca  *fabric.HCA
}

// pickHCAs returns the targeted node's HCA, or every HCA-equipped node in
// the environment when target is empty — in environment (victim-list)
// order, never map order, so multi-victim firings log deterministically.
func (in *Injector) pickHCAs(target string) ([]hcaTarget, error) {
	if target != "" {
		n, err := in.pickNode(target)
		if err != nil {
			return nil, err
		}
		if n.HCA == nil {
			return nil, fmt.Errorf("faults: node %q has no HCA", target)
		}
		return []hcaTarget{{n.Name, n.HCA}}, nil
	}
	var out []hcaTarget
	for _, n := range in.env.Nodes {
		if n.HCA != nil {
			out = append(out, hcaTarget{n.Name, n.HCA})
		}
	}
	if len(out) == 0 {
		return nil, errors.New("faults: no HCA-equipped nodes in environment")
	}
	return out, nil
}
