package simfarm

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/ninja"
)

// A typo'd fault-plan name is refused at decode time with the typed
// simfarm error, naming the plans the matrix actually has.
func TestSweepFaultPlanValidation(t *testing.T) {
	_, err := DecodeSpec([]byte(`{"kind":"sweep","fault_plans":["dst-crash","bogus"]}`))
	var oe *OptionsError
	if !errors.As(err, &oe) {
		t.Fatalf("DecodeSpec = %v, want wrapped *OptionsError", err)
	}
	for _, want := range []string{"bogus", "dst-crash", "migrate-abort"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if _, err := DecodeSpec([]byte(`{"kind":"sweep","matrix":"churn","fault_plans":["node-crash"]}`)); err != nil {
		t.Fatalf("valid churn-matrix plan selection rejected: %v", err)
	}
}

func TestSpecDefaults(t *testing.T) {
	for body, wantLabel := range map[string]string{
		`{}`: "greedy/sequential",
		`{"placement":"swap","batched":true,"cap":4}`:                         "swap/batched(cap=4)",
		`{"kind":"rolling-maintenance"}`:                                      "rolling(cap=2)/greedy",
		`{"kind":"rolling-maintenance","placement":"swap","max_in_flight":3}`: "rolling(cap=3)/swap",
	} {
		spec, err := DecodeSpec([]byte(body))
		if err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		_, sc := spec.Fleet()
		if got := sc.Label(); got != wantLabel {
			t.Errorf("%s → %q, want %q", body, got, wantLabel)
		}
	}
}

// The named matrix specs translate to exactly the fleet and churn
// literals the matrices declared before they were written as Specs, so
// every cell — and every summary digest — is unchanged.
func TestMatrixSpecsTranslateToLiterals(t *testing.T) {
	fleetCfg := experiments.FleetConfig{Jobs: 4}
	wantFleet := []struct {
		name string
		sc   experiments.FleetScenario
	}{
		{"evac-greedy", experiments.FleetScenario{Placement: fleet.PlaceGreedy}},
		{"evac-swap-batched", experiments.FleetScenario{
			Placement: fleet.PlaceSwap,
			Seq:       fleet.SeqPolicy{Batched: true, Cap: 4},
		}},
		{"rolling-cap2", experiments.FleetScenario{
			Kind:        fleet.RollingMaintenance,
			Placement:   fleet.PlaceSwap,
			MaxInFlight: 2,
		}},
		{"evac-swap-maxflow", experiments.FleetScenario{
			Placement: fleet.PlaceSwap,
			Seq:       fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow},
		}},
		{"evac-swap-rdma", experiments.FleetScenario{
			Placement: fleet.PlaceSwap,
			Seq:       fleet.SeqPolicy{Batched: true, Cap: 4},
			Mode:      ninja.RDMANative,
		}},
	}
	m := DefaultMatrix(0, 1)
	if len(m.Directives) != len(wantFleet) {
		t.Fatalf("DefaultMatrix has %d directives, want %d", len(m.Directives), len(wantFleet))
	}
	for i, w := range wantFleet {
		d := m.Directives[i]
		cfg, sc := d.Spec.Fleet()
		if d.Name != w.name || !reflect.DeepEqual(cfg, fleetCfg) || !reflect.DeepEqual(sc, w.sc) {
			t.Errorf("DefaultMatrix[%d] %s → %+v %+v, want %s → %+v %+v", i, d.Name, cfg, sc, w.name, fleetCfg, w.sc)
		}
	}

	var churnCfg experiments.ChurnConfig
	churnCfg.Workload.Jobs = 32
	wantChurn := []struct {
		name string
		sc   experiments.ChurnScenario
	}{
		{"churn-greedy", experiments.ChurnScenario{Policy: churn.PolicyGreedy}},
		{"churn-swap", experiments.ChurnScenario{Policy: churn.PolicySwap}},
	}
	m = ChurnMatrix(0, 1)
	if len(m.Directives) != len(wantChurn) {
		t.Fatalf("ChurnMatrix has %d directives, want %d", len(m.Directives), len(wantChurn))
	}
	for i, w := range wantChurn {
		d := m.Directives[i]
		cfg, sc := d.Spec.Churn()
		if d.Name != w.name || !reflect.DeepEqual(cfg, churnCfg) || !reflect.DeepEqual(sc, w.sc) {
			t.Errorf("ChurnMatrix[%d] %s → %+v %+v, want %s → %+v %+v", i, d.Name, cfg, sc, w.name, churnCfg, w.sc)
		}
	}
}

// FuzzDecodeSpec: decoding never panics, and any accepted spec survives
// a marshal/decode round trip as an equal, valid Spec whose translations
// do not panic either. The seed corpus under testdata/fuzz holds ninjad's
// rejected bodies, the benchmark's control-plane mix and the defaults
// bodies.
func FuzzDecodeSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := DecodeSpec(raw)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec %+v fails Validate: %v", s, err)
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeSpec(out)
		if err != nil {
			t.Fatalf("round trip of %s rejected: %v", out, err)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("round trip changed the spec: %+v → %s → %+v", s, out, back)
		}
		switch s.Kind {
		case "sweep":
			if _, err := s.SweepMatrix(); err != nil {
				t.Fatalf("accepted sweep %s has no matrix: %v", out, err)
			}
		case "churn":
			s.Churn()
		default:
			s.Fleet()
		}
	})
}

// The README's wire-field table lists every Spec field, and each ✓ marks
// exactly the kinds that accept the field set to a sample value.
func TestReadmeSpecTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	sample := map[string]string{
		"placement": `"swap"`, "batched": `true`, "cap": `1`, "seq": `"maxflow"`,
		"mode": `"rdma"`, "max_in_flight": `1`, "return_home": `true`, "faulted": `true`,
		"forced_rollback": `true`, "jobs": `1`, "vms_per_job": `1`, "seed": `1`,
		"seeds": `1`, "seed_base": `1`, "parallelism": `1`, "matrix": `"default"`,
		"fault_plans": `["none"]`,
	}
	kinds := []string{"evacuate", "rolling-maintenance", "churn", "sweep"}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(raw), "\n") {
		cols := strings.Split(line, "|")
		if len(cols) != 8 || !strings.HasPrefix(strings.TrimSpace(cols[1]), "`") {
			continue
		}
		field := strings.Trim(strings.TrimSpace(cols[1]), "`")
		rows[field] = true
		if field == "kind" {
			continue
		}
		val, ok := sample[field]
		if !ok {
			t.Errorf("README field %q is not a Spec field", field)
			continue
		}
		for i, kind := range kinds {
			body := fmt.Sprintf(`{"kind":%q,%q:%s}`, kind, field, val)
			_, err := DecodeSpec([]byte(body))
			if marked := strings.TrimSpace(cols[2+i]) != ""; marked != (err == nil) {
				t.Errorf("README marks %s for kind %s as %v, DecodeSpec(%s) = %v", field, kind, marked, body, err)
			}
		}
	}
	st := reflect.TypeOf(Spec{})
	for i := 0; i < st.NumField(); i++ {
		name, _, _ := strings.Cut(st.Field(i).Tag.Get("json"), ",")
		if !rows[name] {
			t.Errorf("Spec field %q missing from the README table", name)
		}
	}
}
