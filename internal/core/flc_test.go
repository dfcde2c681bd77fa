package core

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/fuzzy"
)

func TestVariablesMatchFig5Anchors(t *testing.T) {
	cssp := NewCSSP()
	if cssp.Min != -10 || cssp.Max != 10 {
		t.Errorf("CSSP universe [%g, %g], want [-10, 10]", cssp.Min, cssp.Max)
	}
	// NC ("no change") peaks at 0 as drawn.
	if g := cssp.FuzzifyMap(0)[CsspNC]; g != 1 {
		t.Errorf("μ_NC(0) = %g, want 1", g)
	}
	if g := cssp.FuzzifyMap(-10)[CsspSM]; g != 1 {
		t.Errorf("μ_SM(-10) = %g, want 1", g)
	}
	if g := cssp.FuzzifyMap(10)[CsspBG]; g != 1 {
		t.Errorf("μ_BG(10) = %g, want 1", g)
	}

	ssn := NewSSN()
	if ssn.Min != -120 || ssn.Max != -80 {
		t.Errorf("SSN universe [%g, %g], want [-120, -80]", ssn.Min, ssn.Max)
	}
	if g := ssn.FuzzifyMap(-120)[SsnWK]; g != 1 {
		t.Errorf("μ_WK(-120) = %g, want 1", g)
	}
	if g := ssn.FuzzifyMap(-80)[SsnST]; g != 1 {
		t.Errorf("μ_ST(-80) = %g, want 1", g)
	}

	dmb := NewDMB()
	if g := dmb.FuzzifyMap(0.25)[DmbNR]; g != 1 {
		t.Errorf("μ_NR(0.25) = %g, want 1 (printed anchor)", g)
	}
	if g := dmb.FuzzifyMap(0.4)[DmbNSN]; g != 1 {
		t.Errorf("μ_NSN(0.4) = %g, want 1 (printed anchor)", g)
	}
	if g := dmb.FuzzifyMap(0.75)[DmbNSF]; g != 1 {
		t.Errorf("μ_NSF(0.75) = %g, want 1 (printed anchor)", g)
	}
	if g := dmb.FuzzifyMap(1.0)[DmbFA]; g != 1 {
		t.Errorf("μ_FA(1.0) = %g, want 1 (printed anchor)", g)
	}

	hd := NewHD()
	if hd.Min != 0 || hd.Max != 1 {
		t.Errorf("HD universe [%g, %g], want [0, 1]", hd.Min, hd.Max)
	}
	for term, x := range map[string]float64{HdLO: 0.4, HdLH: 0.6, HdHG: 1.0} {
		if g := hd.FuzzifyMap(x)[term]; g != 1 {
			t.Errorf("μ_%s(%g) = %g, want 1", term, x, g)
		}
	}
}

func TestInputPartitionsAreComplete(t *testing.T) {
	for _, v := range []*fuzzy.Variable{NewCSSP(), NewSSN()} {
		if !v.IsRuspiniPartition(201, 1e-9) {
			t.Errorf("%s is not a Ruspini partition", v.Name)
		}
	}
	// DMB overlaps NSF and FA between 0.8 and 1.0, and HD's HG shoulder
	// overlaps LH, exactly as the Fig. 5 anchors dictate — not Ruspini, but
	// both must cover their universes with no grade holes.
	for _, v := range []*fuzzy.Variable{NewDMB(), NewHD()} {
		if gaps := v.CoverageGaps(201, 0.3); len(gaps) != 0 {
			t.Errorf("%s has coverage gaps: %v", v.Name, gaps)
		}
	}
}

// TestClampInputs pins the FLC's input saturation: EvaluateRow and
// EvaluateCols clamp every input in place to its own variable's universe,
// NaN to the floor, on the exact and the compiled path, and score the
// clamped row as the system itself does.  The DMB override over [0, 2]
// pins that an overridden universe replaces the Fig. 5 one.
func TestClampInputs(t *testing.T) {
	wideDMB, err := NewFLCWithOptions(FLCOptions{DMB: fuzzy.MustVariable(VarDMB, 0, 2,
		fuzzy.Term{Name: DmbNR, MF: fuzzy.ShoulderLeft(0.25, 0.4)},
		fuzzy.Term{Name: DmbNSN, MF: fuzzy.Tri(0.25, 0.4, 0.75)},
		fuzzy.Term{Name: DmbNSF, MF: fuzzy.Tri(0.4, 0.75, 1.6)},
		fuzzy.Term{Name: DmbFA, MF: fuzzy.ShoulderRight(1.2, 2.0)},
	)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		flc      *FLC
		in, want [3]float64
	}{
		{"paper saturation", NewFLC(), [3]float64{-50, -300, 9}, [3]float64{-10, -120, 1.5}},
		{"paper NaN", NewFLC(), [3]float64{math.NaN(), -90, 0.5}, [3]float64{-10, -90, 0.5}},
		{"DMB override inside", wideDMB, [3]float64{-3.5, -93.7, 1.8}, [3]float64{-3.5, -93.7, 1.8}},
		{"DMB override saturation", wideDMB, [3]float64{-3.5, -93.7, 9}, [3]float64{-3.5, -93.7, 2}},
	} {
		compiled, err := tc.flc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.flc.System().EvaluateInto(tc.flc.NewScratch(), tc.want[:])
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*FLC{tc.flc, compiled} {
			row := tc.in
			hd, err := f.EvaluateRow(f.NewScratch(), row[:])
			if err != nil {
				t.Fatal(err)
			}
			var cols [3][]float64
			for k := range cols {
				cols[k] = []float64{tc.in[k]}
			}
			dst := []float64{0}
			if err := f.EvaluateCols(dst, cols[:]); err != nil {
				t.Fatal(err)
			}
			for k := range row {
				if row[k] != tc.want[k] || cols[k][0] != tc.want[k] {
					t.Errorf("%s compiled=%v input %d: row %g, column %g, want %g",
						tc.name, f.Surface() != nil, k, row[k], cols[k][0], tc.want[k])
				}
			}
			if math.Abs(hd-want) > 1e-12 || math.Abs(dst[0]-want) > 1e-12 {
				t.Errorf("%s compiled=%v: row %g, column %g, system %g",
					tc.name, f.Surface() != nil, hd, dst[0], want)
			}
		}
	}
}

func TestFLCAlwaysProducesOutput(t *testing.T) {
	// The complete 64-rule grid over complete partitions means the FLC can
	// never fail for any finite input.
	flc := NewFLC()
	if err := quick.Check(func(a, b, c float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsNaN(c) {
			return true
		}
		hd, err := flc.Evaluate(a, b, c)
		return err == nil && hd >= 0 && hd <= 1
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFLCScenarioSeparation(t *testing.T) {
	// The paper's headline behaviour: boundary-hover epochs stay below the
	// 0.7 threshold, genuine crossings exceed it.  Inputs transcribed from
	// the calibrated dipole geometry (DESIGN.md §4 success criteria).
	flc := NewFLC()
	below := []struct{ cssp, ssn, dmb float64 }{
		{-1.9, -92.5, 0.90},  // R=1 km boundary hover, 0 km/h
		{-1.9, -102.5, 0.90}, // same point, 50 km/h penalty
		{-1.0, -93.0, 1.00},  // exactly at a 3-cell vertex
		{-0.5, -100, 0.30},   // mid-cell
		{+2.0, -95, 0.50},    // approaching own BS
	}
	for _, p := range below {
		hd, err := flc.Evaluate(p.cssp, p.ssn, p.dmb)
		if err != nil {
			t.Fatal(err)
		}
		if hd > DefaultHandoverThreshold {
			t.Errorf("boundary-class point %+v: HD = %.3f > 0.7", p, hd)
		}
	}
	above := []struct{ cssp, ssn, dmb float64 }{
		{-3.5, -93.7, 1.20}, // crossing into neighbor, 0 km/h
		{-3.5, -98.1, 1.30}, // crossing deep, 50 km/h penalty
		{-6.0, -90.0, 1.40}, // far corner, strong neighbor
		{-4.0, -85.0, 1.10}, // very strong neighbor past boundary
	}
	for _, p := range above {
		hd, err := flc.Evaluate(p.cssp, p.ssn, p.dmb)
		if err != nil {
			t.Fatal(err)
		}
		if hd <= DefaultHandoverThreshold {
			t.Errorf("crossing-class point %+v: HD = %.3f ≤ 0.7", p, hd)
		}
	}
}

// quasiMonotoneTol bounds the small non-monotone ripple that height
// defuzzification is known to introduce when activation mass shifts between
// consequent terms: the symbolic rule table is strictly monotone
// (TestFRBMonotoneTrends), and the numeric surface may dip by at most this
// much between adjacent samples.
const quasiMonotoneTol = 0.02

func TestFLCQuasiMonotoneInSSN(t *testing.T) {
	// Stronger neighbor ⇒ HD must not decrease beyond the defuzzifier
	// ripple, and the universe endpoints must be strictly ordered.
	flc := NewFLC()
	for _, fixed := range []struct{ cssp, dmb float64 }{
		{-3, 1.0}, {-6, 0.9}, {0, 1.2}, {-2, 0.6},
	} {
		prev := -1.0
		for ssn := -120.0; ssn <= -80; ssn += 0.5 {
			hd, err := flc.Evaluate(fixed.cssp, ssn, fixed.dmb)
			if err != nil {
				t.Fatal(err)
			}
			if hd < prev-quasiMonotoneTol {
				t.Fatalf("HD ripple in SSN beyond tolerance at cssp=%g dmb=%g ssn=%g: %g -> %g",
					fixed.cssp, fixed.dmb, ssn, prev, hd)
			}
			prev = hd
		}
		weakest, _ := flc.Evaluate(fixed.cssp, -120, fixed.dmb)
		strongest, _ := flc.Evaluate(fixed.cssp, -80, fixed.dmb)
		if !(weakest < strongest) {
			t.Errorf("endpoints not ordered at %+v: HD(-120)=%g, HD(-80)=%g", fixed, weakest, strongest)
		}
	}
}

func TestFLCQuasiMonotoneInDMB(t *testing.T) {
	flc := NewFLC()
	for _, fixed := range []struct{ cssp, ssn float64 }{
		{-3, -95}, {-6, -100}, {0, -90},
	} {
		prev := -1.0
		for dmb := 0.0; dmb <= 1.5; dmb += 0.01 {
			hd, err := flc.Evaluate(fixed.cssp, fixed.ssn, dmb)
			if err != nil {
				t.Fatal(err)
			}
			if hd < prev-quasiMonotoneTol {
				t.Fatalf("HD ripple in DMB beyond tolerance at cssp=%g ssn=%g dmb=%g: %g -> %g",
					fixed.cssp, fixed.ssn, dmb, prev, hd)
			}
			prev = hd
		}
		near, _ := flc.Evaluate(fixed.cssp, fixed.ssn, 0)
		far, _ := flc.Evaluate(fixed.cssp, fixed.ssn, 1.5)
		if !(near < far) {
			t.Errorf("endpoints not ordered at %+v: HD(0)=%g, HD(1.5)=%g", fixed, near, far)
		}
	}
}

func TestFLCDegradingSignalRaisesHD(t *testing.T) {
	// A sharply falling serving signal (SM) must produce at least the HD of
	// a flat one (NC), other inputs equal.
	flc := NewFLC()
	for _, p := range []struct{ ssn, dmb float64 }{
		{-95, 0.9}, {-100, 1.1}, {-90, 0.7},
	} {
		falling, err := flc.Evaluate(-8, p.ssn, p.dmb)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := flc.Evaluate(0, p.ssn, p.dmb)
		if err != nil {
			t.Fatal(err)
		}
		if falling < flat-1e-9 {
			t.Errorf("HD(falling)=%g < HD(flat)=%g at %+v", falling, flat, p)
		}
	}
}

func TestFLCRisingSignalSuppressesHandover(t *testing.T) {
	// BG (signal getting much better) should keep HD low even far out with
	// a strong neighbor — the anti-ping-pong core of Table 1's BG block.
	flc := NewFLC()
	hd, err := flc.Evaluate(+8, -85, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if hd > DefaultHandoverThreshold {
		t.Errorf("HD with recovering signal = %.3f, want ≤ 0.7", hd)
	}
}

func TestFLCTraceNamesPaperRules(t *testing.T) {
	flc := NewFLC()
	_, tr, err := flc.EvaluateTrace(-7, -85, 1.3)
	if err != nil {
		t.Fatal(err)
	}
	// At (-7, -85, 1.3) the dominant rule is SM & ST & FA → HG: rule 16.
	found := false
	for _, f := range tr.Firings {
		if f.Index == 16 {
			found = true
			if f.Rule.Then.Term != HdHG {
				t.Errorf("rule 16 consequent = %s, want HG", f.Rule.Then.Term)
			}
		}
	}
	if !found {
		t.Errorf("rule 16 did not fire; firings: %v", tr.Firings)
	}
}

func TestNewFLCWithOptionsOverrides(t *testing.T) {
	// Larsen variant must build and differ from Mamdani on interior points.
	larsen, err := NewFLCWithOptions(FLCOptions{
		Engine: fuzzy.Options{
			AndNorm:     fuzzy.ProductNorm,
			Implication: fuzzy.ProductImplication,
			Defuzzifier: fuzzy.Centroid{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	mamdani := NewFLC()
	a, _ := mamdani.Evaluate(-3.3, -96, 0.95)
	b, _ := larsen.Evaluate(-3.3, -96, 0.95)
	if a == b {
		t.Error("Larsen override had no effect")
	}
}

func TestNewFLCWithOptionsRejectsMisnamedVariables(t *testing.T) {
	wrong := fuzzy.MustVariable("NOT_CSSP", -10, 10,
		fuzzy.Term{Name: CsspSM, MF: fuzzy.ShoulderLeft(-10, -5)},
		fuzzy.Term{Name: CsspLC, MF: fuzzy.Tri(-10, -5, 0)},
		fuzzy.Term{Name: CsspNC, MF: fuzzy.Tri(-5, 0, 10)},
		fuzzy.Term{Name: CsspBG, MF: fuzzy.ShoulderRight(0, 10)},
	)
	if _, err := NewFLCWithOptions(FLCOptions{CSSP: wrong}); err == nil {
		t.Error("misnamed CSSP variable accepted")
	}
}

func TestFLCSystemExposed(t *testing.T) {
	flc := NewFLC()
	if flc.System() == nil || flc.System().Rules().Len() != 64 {
		t.Error("System() accessor broken")
	}
}
