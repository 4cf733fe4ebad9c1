package faults

import (
	"errors"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
)

func TestInjectorDoubleArm(t *testing.T) {
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	c := tb.AddCluster("c", 1, hw.AGCNodeSpec)
	in := NewInjector(k, Plan{Specs: []Spec{{Kind: KindNodeCrash, At: sim.Second}}},
		Env{Nodes: c.Nodes})
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := in.Arm(); !errors.Is(err, ErrArmed) {
		t.Fatalf("second Arm err = %v, want ErrArmed", err)
	}
}

func TestInjectorNodeCrashAndRestore(t *testing.T) {
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	c := tb.AddCluster("c", 2, hw.AGCNodeSpec)
	logged := 0
	in := NewInjector(k, Plan{Specs: []Spec{
		{Kind: KindNodeCrash, Target: c.Nodes[1].Name, At: sim.Second, For: 2 * sim.Second},
	}}, Env{Nodes: c.Nodes, Log: func(kind, subject, detail string) { logged++ }})
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(1500 * sim.Millisecond)
	if !c.Nodes[1].Failed() {
		t.Fatal("node not failed at t=1.5s")
	}
	if c.Nodes[0].Failed() {
		t.Fatal("wrong victim: node 0 failed")
	}
	k.RunUntil(4 * sim.Second)
	if c.Nodes[1].Failed() {
		t.Fatal("node not restored at t=4s")
	}
	if logged != 1 || in.Fired() != 1 {
		t.Fatalf("logged %d / fired %d firings, want 1", logged, in.Fired())
	}
}

// NodeDown runs once, at At, on a node that already reads Failed;
// NodeUp runs once, at At+For, after the restore cleared it. A crash
// with no For never restores, so NodeUp never runs.
func TestInjectorNodeHooks(t *testing.T) {
	k := sim.NewKernel()
	defer k.Close()
	tb := hw.NewTestbed(k)
	c := tb.AddCluster("c", 2, hw.AGCNodeSpec)
	type call struct {
		at     sim.Time
		node   string
		failed bool
	}
	var downs, ups []call
	in := NewInjector(k, Plan{Specs: []Spec{
		{Kind: KindNodeCrash, Target: c.Nodes[1].Name, At: sim.Second, For: 2 * sim.Second},
		{Kind: KindNodeCrash, Target: c.Nodes[0].Name, At: 5 * sim.Second},
	}}, Env{
		Nodes:    c.Nodes,
		NodeDown: func(n *hw.Node) { downs = append(downs, call{k.Now(), n.Name, n.Failed()}) },
		NodeUp:   func(n *hw.Node) { ups = append(ups, call{k.Now(), n.Name, n.Failed()}) },
	})
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	k.Run()
	wantDowns := []call{{sim.Second, c.Nodes[1].Name, true}, {5 * sim.Second, c.Nodes[0].Name, true}}
	wantUps := []call{{3 * sim.Second, c.Nodes[1].Name, false}}
	if len(downs) != len(wantDowns) || downs[0] != wantDowns[0] || downs[1] != wantDowns[1] {
		t.Fatalf("NodeDown calls %+v, want %+v", downs, wantDowns)
	}
	if len(ups) != len(wantUps) || ups[0] != wantUps[0] {
		t.Fatalf("NodeUp calls %+v, want %+v (a crash with no For never restores)", ups, wantUps)
	}
	if !c.Nodes[0].Failed() {
		t.Fatal("node with For == 0 restored")
	}
}

func TestInjectorNFSOutageWindow(t *testing.T) {
	k := sim.NewKernel()
	nfs := storage.NewNFS("nfs0")
	in := NewInjector(k, Plan{Specs: []Spec{
		{Kind: KindNFSOutage, At: sim.Second, For: 2 * sim.Second},
	}}, Env{Store: nfs})
	if err := in.Arm(); err != nil {
		t.Fatal(err)
	}
	k.RunUntil(1500 * sim.Millisecond)
	if !nfs.Offline() {
		t.Fatal("store online mid-outage")
	}
	k.RunUntil(4 * sim.Second)
	if nfs.Offline() {
		t.Fatal("store still offline after window")
	}
}

func TestInjectorUnknownTargets(t *testing.T) {
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	c := tb.AddCluster("c", 1, hw.AGCNodeSpec)
	for _, plan := range []Plan{
		{Specs: []Spec{{Kind: KindNodeCrash, Target: "nope"}}},
		{Specs: []Spec{{Kind: KindQMPError, Target: "vmX"}}}, // no VMs in env
		{Specs: []Spec{{Kind: KindNFSSlow}}},                 // no store in env
	} {
		in := NewInjector(k, plan, Env{Nodes: c.Nodes})
		if err := in.Arm(); err == nil {
			t.Errorf("Arm(%v) succeeded, want error", plan.String())
		}
	}
}

func TestInjectorSeededDrawsAreDeterministic(t *testing.T) {
	// Random victim selection (pickVM with an empty target) draws from
	// the plan-seeded PRNG: two injectors with the same seed must draw
	// identical sequences, so replays pick identical victims.
	a := NewInjector(sim.NewKernel(), Plan{Seed: 42}, Env{})
	b := NewInjector(sim.NewKernel(), Plan{Seed: 42}, Env{})
	for i := 0; i < 8; i++ {
		if x, y := a.rng.Intn(1000), b.rng.Intn(1000); x != y {
			t.Fatalf("draw %d: %d != %d with equal seeds", i, x, y)
		}
	}
}
