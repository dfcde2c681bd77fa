package core_test

import (
	"math"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/handover"
)

// crossing is a measurement deep in a crossing: the FLC votes handover
// (HD ≈ 0.867), and against crossingPrevDB the signal is still falling.
func crossing() cell.Measurement {
	return cell.Measurement{ServingDB: -98, CSSPdB: -3.5, NeighborDB: -93.7, DMBNorm: 1.2}
}

const crossingPrevDB = -96.5

// hover turns m into the boundary-hover profile, where HD = 0.60.
func hover(m cell.Measurement) cell.Measurement {
	m.CSSPdB, m.NeighborDB, m.DMBNorm = -1.0, -93, 0.9
	return m
}

// decide runs one epoch through handover.Fuzzy, the one Fig. 4 pipeline,
// built from cfg on the exact FLC and on the shared compiled one.  It
// fails unless both reach the same verdict, and returns the exact
// decision.
func decide(t *testing.T, cfg core.ControllerConfig, m cell.Measurement, prevDB float64, havePrev bool) handover.Decision {
	t.Helper()
	d, err := handover.NewFuzzy(core.NewControllerWithConfig(cfg)).Decide(m, prevDB, havePrev)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.FLC, err = core.DefaultCompiledFLC(); err != nil {
		t.Fatal(err)
	}
	c, err := handover.NewFuzzy(core.NewControllerWithConfig(cfg)).Decide(m, prevDB, havePrev)
	if err != nil {
		t.Fatal(err)
	}
	if c.Handover != d.Handover || c.Reason != d.Reason || c.Scored != d.Scored || math.Abs(c.Score-d.Score) > 1e-9 {
		t.Fatalf("compiled decision %+v, exact %+v", c, d)
	}
	return d
}

func TestControllerDefaults(t *testing.T) {
	c := core.NewController()
	if c.Threshold() != core.DefaultHandoverThreshold {
		t.Errorf("threshold = %g, want 0.7", c.Threshold())
	}
	if c.QualityGateDB() != core.DefaultQualityGateDB {
		t.Errorf("gate = %g, want %g", c.QualityGateDB(), core.DefaultQualityGateDB)
	}
	if c.FLC() == nil {
		t.Error("FLC not constructed")
	}
}

func TestQualityGateShortCircuits(t *testing.T) {
	m := crossing()
	m.ServingDB = -60 // strong serving signal: POTLC keeps the call
	d := decide(t, core.ControllerConfig{}, m, crossingPrevDB, true)
	if d.Handover || d.Reason != "POTLC-quality-gate" || d.Scored {
		t.Errorf("decision = %+v, want POTLC stay without FLC evaluation", d)
	}
}

func TestFLCStageRejectsLowHD(t *testing.T) {
	d := decide(t, core.ControllerConfig{}, hover(crossing()), crossingPrevDB, true)
	if d.Handover || d.Reason != "FLC-threshold" || !d.Scored {
		t.Errorf("decision = %+v, want FLC-threshold stay", d)
	}
	if d.Score <= 0 || d.Score > core.DefaultHandoverThreshold {
		t.Errorf("HD = %g, want in (0, 0.7]", d.Score)
	}
}

func TestPRTLCCancelsWhenSignalRecovers(t *testing.T) {
	// present (-98) ≥ previous (-99): recovering
	d := decide(t, core.ControllerConfig{}, crossing(), -99, true)
	if d.Handover || d.Reason != "PRTLC-confirmation" {
		t.Errorf("decision = %+v, want PRTLC cancel", d)
	}
	if !d.Scored || d.Score <= core.DefaultHandoverThreshold {
		t.Errorf("PRTLC cancel must carry the FLC vote, got %+v", d)
	}
}

func TestPRTLCRequiresHistory(t *testing.T) {
	d := decide(t, core.ControllerConfig{}, crossing(), 0, false)
	if d.Handover || d.Reason != "PRTLC-confirmation" {
		t.Errorf("decision without history = %+v, want PRTLC cancel", d)
	}
}

func TestExecuteHandover(t *testing.T) {
	d := decide(t, core.ControllerConfig{}, crossing(), crossingPrevDB, true)
	if !d.Handover || d.Reason != "execute-handover" {
		t.Errorf("decision = %+v, want executed handover", d)
	}
	if d.Score <= core.DefaultHandoverThreshold {
		t.Errorf("executed handover with HD = %g ≤ threshold", d.Score)
	}
}

func TestDisablePRTLCAblation(t *testing.T) {
	cfg := core.ControllerConfig{DisablePRTLC: true}
	if core.NewControllerWithConfig(cfg).ConfirmPRTLC() {
		t.Error("DisablePRTLC left the confirmation on")
	}
	// recovering — PRTLC would cancel
	d := decide(t, cfg, crossing(), -99, true)
	if !d.Handover {
		t.Errorf("with PRTLC disabled, decision = %+v, want handover", d)
	}
}

func TestDisableQualityGateAblation(t *testing.T) {
	cfg := core.ControllerConfig{DisableQualityGate: true}
	if !math.IsInf(core.NewControllerWithConfig(cfg).QualityGateDB(), 1) {
		t.Error("disabled gate should report +Inf level")
	}
	m := crossing()
	m.ServingDB = -60
	// Gate bypassed: the FLC runs even on a strong signal, and a signal
	// still falling (-59 → -60) executes.
	d := decide(t, cfg, m, -59, true)
	if !d.Handover || d.Reason != "execute-handover" {
		t.Errorf("gate not bypassed: %+v", d)
	}
}

func TestCustomThreshold(t *testing.T) {
	d := decide(t, core.ControllerConfig{Threshold: 0.95}, crossing(), crossingPrevDB, true)
	if d.Handover || d.Reason != "FLC-threshold" {
		t.Errorf("0.95-threshold controller handed over at HD=%g", d.Score)
	}
	d = decide(t, core.ControllerConfig{Threshold: 0.3}, hover(crossing()), crossingPrevDB, true)
	if !d.Handover {
		t.Errorf("0.3-threshold controller stayed at HD=%g", d.Score)
	}
}

func TestPipelineOrderGateBeforeFLC(t *testing.T) {
	// A report that would trip the FLC must still be short-circuited by the
	// quality gate — the POTLC runs first per Fig. 4's system operation.
	m := crossing()
	m.ServingDB = core.DefaultQualityGateDB // exactly at the gate: "still good"
	d := decide(t, core.ControllerConfig{}, m, crossingPrevDB, true)
	if d.Reason != "POTLC-quality-gate" {
		t.Errorf("reason = %q, want quality gate at the boundary level", d.Reason)
	}
}
