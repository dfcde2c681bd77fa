package core

import (
	"fmt"
	"math"

	"repro/internal/fuzzy"
)

// DefaultHandoverThreshold is the paper's decision threshold: "the handover
// is carried out when the output value is bigger than 0.7" (§5).
const DefaultHandoverThreshold = 0.7

// DefaultQualityGateDB is the POTLC's "predefined value": while the serving
// signal is at least this strong, no handover machinery runs ("if the signal
// strength is still good enough the handover is not carried out", §4).
// −75 dB corresponds to roughly 0.4 cell radii under the paper's calibrated
// dipole model, so the FLC engages only in the outer part of the cell.
const DefaultQualityGateDB = -75.0

// Stage identifies where in the Fig. 4 pipeline a decision was made.
type Stage int

// Pipeline stages, in evaluation order.
const (
	// StageQualityGate: the POTLC found the serving signal still good.
	StageQualityGate Stage = iota
	// StageFLC: the FLC output did not exceed the handover threshold.
	StageFLC
	// StagePRTLC: the FLC voted handover but the pre test-loop controller
	// found the signal recovering (present ≥ previous) and cancelled.
	StagePRTLC
	// StageExecute: all checks passed; the handover is carried out.
	StageExecute
)

// String implements fmt.Stringer.  Every named stage returns a
// package-level string constant, so the serve decision loop delivers
// reasons without allocating.
//
//fuzzyho:hotpath
func (s Stage) String() string {
	switch s {
	case StageQualityGate:
		return "POTLC-quality-gate"
	case StageFLC:
		return "FLC-threshold"
	case StagePRTLC:
		return "PRTLC-confirmation"
	case StageExecute:
		return "execute-handover"
	default:
		//fuzzyho:allow unreachable for the four defined stages; only an out-of-range Stage value formats
		return fmt.Sprintf("Stage(%d)", int(s))
	}
}

// Report is the controller's per-epoch input: the radio measurements the
// RNC collects from the Node-B (Fig. 4).
type Report struct {
	// ServingDB is the present received power from the serving BS.
	ServingDB float64
	// PrevServingDB is the serving power at the previous epoch; HavePrev
	// reports whether one exists (false right after attachment).
	PrevServingDB float64
	HavePrev      bool
	// CSSPdB is the change of the serving signal strength (FLC input 1).
	CSSPdB float64
	// SSNdB is the strongest-neighbor signal strength including the speed
	// penalty (FLC input 2).
	SSNdB float64
	// DMBNorm is the serving-BS distance over the cell radius (FLC input 3).
	DMBNorm float64
}

// Decision is the controller's verdict for one epoch.
type Decision struct {
	// Handover reports whether the handover is to be carried out.
	Handover bool
	// Stage tells which pipeline stage produced the verdict.
	Stage Stage
	// HD is the FLC output; valid only when Evaluated is true (the POTLC
	// gate short-circuits the FLC entirely).
	HD        float64
	Evaluated bool
}

// String implements fmt.Stringer.
func (d Decision) String() string {
	verdict := "stay"
	if d.Handover {
		verdict = "handover"
	}
	if d.Evaluated {
		return fmt.Sprintf("%s (stage %s, HD=%.3f)", verdict, d.Stage, d.HD)
	}
	return fmt.Sprintf("%s (stage %s)", verdict, d.Stage)
}

// Controller is the complete fuzzy-based handover system of Fig. 4: POTLC
// quality gate, FLC decision, PRTLC confirmation.  A Controller is stateless
// across epochs (all history arrives in the Report) and safe for concurrent
// use.
type Controller struct {
	flc *FLC
	// Threshold is the HD level above which the handover path is taken.
	threshold float64
	// qualityGateDB is the POTLC's predefined serving-signal level.
	qualityGateDB float64
	// confirmPRTLC enables the PRTLC check (disabled in the ablation).
	confirmPRTLC bool
}

// ControllerConfig configures a Controller; see DefaultControllerConfig.
type ControllerConfig struct {
	// FLC overrides the fuzzy controller (nil = paper's).
	FLC *FLC
	// Threshold is the HD handover threshold (0 = paper's 0.7).
	Threshold float64
	// QualityGateDB is the POTLC gate level (0 = default −75 dB; use
	// DisableQualityGate to bypass the gate).
	QualityGateDB float64
	// DisableQualityGate bypasses the POTLC check entirely.
	DisableQualityGate bool
	// DisablePRTLC bypasses the PRTLC confirmation (ablation).
	DisablePRTLC bool
}

// NewController returns the paper's controller with default configuration.
func NewController() *Controller {
	return NewControllerWithConfig(ControllerConfig{})
}

// NewControllerWithConfig builds a controller with overrides.
func NewControllerWithConfig(cfg ControllerConfig) *Controller {
	c := &Controller{
		flc:           cfg.FLC,
		threshold:     cfg.Threshold,
		qualityGateDB: cfg.QualityGateDB,
		confirmPRTLC:  !cfg.DisablePRTLC,
	}
	if c.flc == nil {
		c.flc = NewFLC()
	}
	if c.threshold == 0 {
		c.threshold = DefaultHandoverThreshold
	}
	if cfg.DisableQualityGate {
		c.qualityGateDB = math.Inf(1) // gate never passes a "good" signal
	} else if c.qualityGateDB == 0 {
		c.qualityGateDB = DefaultQualityGateDB
	}
	return c
}

// FLC returns the controller's fuzzy logic controller.
//
//fuzzyho:hotpath
func (c *Controller) FLC() *FLC { return c.flc }

// Threshold returns the HD handover threshold.
func (c *Controller) Threshold() float64 { return c.threshold }

// ConfirmPRTLC reports whether the PRTLC confirmation runs (false in the
// DisablePRTLC ablation).
func (c *Controller) ConfirmPRTLC() bool { return c.confirmPRTLC }

// QualityGateDB returns the POTLC gate level.
//
//fuzzyho:hotpath
func (c *Controller) QualityGateDB() float64 { return c.qualityGateDB }

// Decide runs one epoch through the Fig. 4 pipeline:
//
//  1. POTLC: if the serving signal is still at least the predefined quality
//     level, no handover is considered.
//  2. FLC: CSSP, SSN and DMB are fuzzified and the FRB evaluated; the
//     handover path continues only if HD exceeds the threshold.
//  3. PRTLC: the present signal strength is compared with the previous one;
//     the handover is carried out only if the signal is still falling.
func (c *Controller) Decide(r Report) (Decision, error) {
	// Stage 1: POTLC quality gate (checked before borrowing buffers so the
	// common in-cell epoch stays branch-only).
	if r.ServingDB >= c.qualityGateDB {
		return Decision{Handover: false, Stage: StageQualityGate}, nil
	}
	sc := c.flc.getScratch()
	d, err := c.DecideInto(sc, r)
	c.flc.putScratch(sc)
	return d, err
}

// DecideInto is Decide on caller-owned inference buffers: the whole POTLC →
// FLC → PRTLC pipeline runs without heap allocations.  sc must come from
// this controller's FLC().NewScratch() and must not be shared across
// goroutines.
//
//fuzzyho:hotpath
func (c *Controller) DecideInto(sc *fuzzy.Scratch, r Report) (Decision, error) {
	// Stage 1: POTLC quality gate.
	if r.ServingDB >= c.qualityGateDB {
		return Decision{Handover: false, Stage: StageQualityGate}, nil
	}
	// Stage 2: FLC.
	hd, err := c.flc.EvaluateInto(sc, r.CSSPdB, r.SSNdB, r.DMBNorm)
	if err != nil {
		//fuzzyho:allow error path: only a no-rule-fired ablation reaches this wrap, never a steady-state decision
		return Decision{}, fmt.Errorf("core: FLC evaluation: %w", err)
	}
	return c.DecideFromHD(r, hd), nil
}

// DecideFromHD completes the Fig. 4 pipeline for a report whose FLC output
// was already computed: the threshold, then the PRTLC confirmation.
// DecideInto finishes every decision here.  The POTLC gate must have been
// applied by the caller (a report that passes the gate never reaches the
// FLC).
//
//fuzzyho:hotpath
func (c *Controller) DecideFromHD(r Report, hd float64) Decision {
	if hd <= c.threshold {
		return Decision{Handover: false, Stage: StageFLC, HD: hd, Evaluated: true}
	}
	// Stage 3: PRTLC confirmation.  "When the present signal strength is
	// lower than the strength of the previous signal, the handover
	// procedure is carried out."
	if c.confirmPRTLC {
		if !r.HavePrev || r.ServingDB >= r.PrevServingDB {
			return Decision{Handover: false, Stage: StagePRTLC, HD: hd, Evaluated: true}
		}
	}
	return Decision{Handover: true, Stage: StageExecute, HD: hd, Evaluated: true}
}
