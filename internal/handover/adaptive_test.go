package handover

import (
	"math"
	"testing"
)

func TestAdaptiveThresholdSchedule(t *testing.T) {
	a := NewAdaptiveFuzzy()
	if got := a.Threshold(0); got != 0.7 {
		t.Errorf("threshold(0) = %g, want 0.7", got)
	}
	if got := a.Threshold(50); math.Abs(got-(0.7-50*DefaultAdaptiveSlope)) > 1e-12 {
		t.Errorf("threshold(50) = %g", got)
	}
	// Negative speeds treated as magnitudes; floor applies.
	if a.Threshold(-50) != a.Threshold(50) {
		t.Error("threshold not symmetric in speed")
	}
	if got := a.Threshold(100); got != MinThreshold {
		t.Errorf("floored threshold = %g, want %g", got, MinThreshold)
	}
}

func TestAdaptiveMatchesPaperControllerAtZeroSpeed(t *testing.T) {
	adaptive := NewAdaptiveFuzzy()
	paper := NewFuzzy(nil)
	cases := []struct {
		serving, prev         float64
		cssp, ssn, dmb, speed float64
	}{
		{-98, -96.5, -3.5, -93.7, 1.2, 0},
		{-83, -82.5, -1.0, -93, 0.9, 0},
		{-70, -69, -0.5, -100, 0.3, 0},
	}
	for _, c := range cases {
		m := meas(c.serving, c.ssn, c.dmb, c.cssp)
		m.SpeedKmh = c.speed
		da, err := adaptive.Decide(m, c.prev, true)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := paper.Decide(m, c.prev, true)
		if err != nil {
			t.Fatal(err)
		}
		if da.Handover != dp.Handover {
			t.Errorf("at 0 km/h adaptive (%v) and paper (%v) disagree on %+v", da, dp, c)
		}
	}
}

func TestAdaptiveFiresAtHighSpeedWherePaperStalls(t *testing.T) {
	// The crossing profile at 50 km/h: SSN penalised by 10 dB pushes HD to
	// ≈ 0.55-0.62, below the fixed 0.7 threshold but above the adaptive one.
	m := meas(-101, -103.7, 1.2, -3.5)
	m.SpeedKmh = 50
	paper := NewFuzzy(nil)
	dp, err := paper.Decide(m, -99.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if dp.Handover {
		t.Fatalf("fixed-threshold controller unexpectedly fired (HD=%g)", dp.Score)
	}
	adaptive := NewAdaptiveFuzzy()
	da, err := adaptive.Decide(m, -99.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !da.Handover {
		t.Errorf("adaptive controller did not fire at 50 km/h (HD=%g, threshold=%g)",
			da.Score, adaptive.Threshold(50))
	}
}

func TestAdaptiveKeepsHoverCleanAtHighSpeed(t *testing.T) {
	// Boundary-hover profile at 50 km/h: HD ≈ 0.49-0.51 must stay below the
	// adaptive threshold (0.53) — the separation that makes the extension
	// safe.
	adaptive := NewAdaptiveFuzzy()
	m := meas(-83, -102.5, 0.9, -1.9)
	m.SpeedKmh = 50
	d, err := adaptive.Decide(m, -82.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Handover {
		t.Errorf("adaptive controller flapped on hover profile (HD=%g, threshold=%g)",
			d.Score, adaptive.Threshold(50))
	}
}

func TestAdaptiveQualityGate(t *testing.T) {
	adaptive := NewAdaptiveFuzzy()
	m := meas(-60, -93.7, 1.2, -3.5)
	d, err := adaptive.Decide(m, -59, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Handover || d.Scored {
		t.Errorf("gate did not short-circuit: %+v", d)
	}
	if adaptive.Name() != "fuzzy-adaptive" {
		t.Errorf("Name = %q", adaptive.Name())
	}
	adaptive.Reset() // no-op
}

func TestAlgorithmFactoryFor(t *testing.T) {
	for _, tc := range []struct{ selector, name string }{
		{"fuzzy", "fuzzy"}, {"", "fuzzy"}, {"adaptive", "fuzzy-adaptive"}, {"trendfuzzy", "trendfuzzy"},
	} {
		for _, compiled := range []bool{false, true} {
			f, err := AlgorithmFactoryFor(tc.selector, compiled)
			if err != nil || f == nil {
				t.Fatalf("%q compiled=%v: (non-nil=%v, %v)", tc.selector, compiled, f != nil, err)
			}
			a, ok := f().(*Fuzzy)
			if !ok || a.Name() != tc.name || (a.FLC().Surface() != nil) != compiled {
				t.Errorf("%q compiled=%v: factory built %T %q", tc.selector, compiled, f(), f().Name())
			}
		}
	}
	if _, err := AlgorithmFactoryFor("bogus", false); err == nil {
		t.Error("unknown selector accepted")
	}
}

func TestSIRThresholdBaseline(t *testing.T) {
	s := SIRThreshold{ThresholdDB: 3, MarginDB: 0}
	// Strong SIR: stay.
	if d, _ := s.Decide(meas(-85, -95, 0.8, -1), 0, false); d.Handover {
		t.Error("handed over at 10 dB SIR")
	}
	// Weak SIR with stronger neighbor: hand over.
	d, _ := s.Decide(meas(-95, -93, 1.1, -2), 0, false)
	if !d.Handover {
		t.Error("did not hand over at -2 dB SIR")
	}
	// Weak SIR but neighbor below margin: stay.
	s2 := SIRThreshold{ThresholdDB: 3, MarginDB: 5}
	if d, _ := s2.Decide(meas(-95, -93, 1.1, -2), 0, false); d.Handover {
		t.Error("margin not enforced")
	}
	if s.Name() != "sir-3dB" {
		t.Errorf("Name = %q", s.Name())
	}
	s.Reset() // no-op
}

func TestPassiveBaseline(t *testing.T) {
	p := Passive{}
	d, err := p.Decide(meas(-120, -80, 1.5, -9), 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if d.Handover {
		t.Error("passive handed over")
	}
	if p.Name() != "passive" {
		t.Errorf("Name = %q", p.Name())
	}
	p.Reset()
}
