package fuzzyho

import (
	"math"
	"strings"
	"testing"
)

func TestFacadeFLCQuickstart(t *testing.T) {
	flc := NewFLC()
	// Crossing profile: must vote handover.
	hd, err := flc.Evaluate(-3.5, -93.7, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if hd <= HandoverThreshold {
		t.Errorf("crossing HD = %g, want > %g", hd, HandoverThreshold)
	}
	// Mid-cell profile: must not.
	hd, err = flc.Evaluate(-0.5, -100, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if hd > HandoverThreshold {
		t.Errorf("mid-cell HD = %g, want ≤ %g", hd, HandoverThreshold)
	}
}

func TestFacadeControllerPipeline(t *testing.T) {
	d, err := NewFuzzyAlgorithm(NewController()).Decide(Measurement{
		ServingDB:  -98,
		CSSPdB:     -3.5,
		NeighborDB: -93.7,
		DMBNorm:    1.2,
	}, -96.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Handover || d.Reason != "execute-handover" {
		t.Errorf("decision = %+v", d)
	}
}

func TestFacadeCustomRuleDSL(t *testing.T) {
	rb, err := ParseRules(`
		IF load IS high THEN action IS shed
		IF load IS low THEN action IS keep
	`)
	if err != nil {
		t.Fatal(err)
	}
	load, err := NewVariable("load", 0, 1,
		Term{Name: "low", MF: ShoulderLeft(0, 1)},
		Term{Name: "high", MF: ShoulderRight(0, 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	action, err := NewVariable("action", 0, 1,
		Term{Name: "keep", MF: Tri(0, 0.25, 0.5)},
		Term{Name: "shed", MF: Tri(0.5, 0.75, 1)},
	)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewInferenceSystem(action, rb, InferenceOptions{}, load)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := sys.Evaluate(map[string]float64{"load": 0.9})
	if err != nil {
		t.Fatal(err)
	}
	lo, err := sys.Evaluate(map[string]float64{"load": 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if !(lo < hi) {
		t.Errorf("custom system outputs not ordered: %g vs %g", lo, hi)
	}
}

func TestFacadeSimRoundTrip(t *testing.T) {
	lattice := NewLattice(2)
	cfg := SimConfig{
		Seed:         1,
		CellRadiusKm: 2,
	}
	cfg.Walk = lineWalk(lattice)
	res, err := RunSim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoverCount() != 1 {
		t.Errorf("corridor handovers = %d", res.HandoverCount())
	}
}

// lineWalk builds a corridor walk via the facade types only.
func lineWalk(lattice *Lattice) MobilityModel {
	return corridorModel{to: lattice.Center(Cell{I: 2, J: -1})}
}

type corridorModel struct{ to Vec }

func (m corridorModel) Name() string { return "facade-corridor" }
func (m corridorModel) Generate(RandSource) Path {
	return Path{Points: []Vec{{}, m.to}}
}

func TestFacadeDipole(t *testing.T) {
	d := NewDipole(10)
	if d.ReceivedPowerDB(1) >= d.ReceivedPowerDB(2) == false {
		t.Error("dipole not monotone through the facade")
	}
}

func TestFacadeCSVAndPlot(t *testing.T) {
	var b strings.Builder
	s := Series{Name: "p", X: []float64{0, 1}, Y: []float64{-60, -80}}
	if err := WriteCSV(&b, "km", s); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "km,p\n") {
		t.Errorf("csv = %q", b.String())
	}
	if out := LinePlot(40, 8, "x", "y", s); !strings.Contains(out, "*") {
		t.Error("plot empty")
	}
}

func TestDeriveSeedExposed(t *testing.T) {
	if DeriveSeed(100, 1) == DeriveSeed(100, 2) {
		t.Error("derived seeds collide")
	}
}

func TestFacadeFCLRoundTrip(t *testing.T) {
	src, err := WriteFCL("paper", NewFLC().System())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := ParseFCL(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewFLC().Evaluate(-3.5, -93.7, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sys.Evaluate(map[string]float64{"CSSP": -3.5, "SSN": -93.7, "DMB": 1.2})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("FCL round trip: %g vs %g", got, want)
	}
}

func TestFacadeJSONRoundTrip(t *testing.T) {
	data, err := MarshalSystemJSON(NewFLC().System())
	if err != nil {
		t.Fatal(err)
	}
	sys, err := UnmarshalSystemJSON(data, InferenceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := NewFLC().Evaluate(-2, -95, 1.0)
	got, err := sys.Evaluate(map[string]float64{"CSSP": -2, "SSN": -95, "DMB": 1.0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("JSON round trip: %g vs %g", got, want)
	}
}

func TestFacadeQoS(t *testing.T) {
	res, err := RunQoS(QoSConfig{Seed: 3, SimHours: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Error("no calls offered")
	}
	b, err := ErlangB(4, 6)
	if err != nil {
		t.Fatal(err)
	}
	inv, err := ErlangBInverse(b, 6)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(inv-4) > 1e-3 {
		t.Errorf("ErlangB inverse = %g, want 4", inv)
	}
}
