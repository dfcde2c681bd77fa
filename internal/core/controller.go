package core

import "math"

// DefaultHandoverThreshold is the paper's decision threshold: "the handover
// is carried out when the output value is bigger than 0.7" (§5).
const DefaultHandoverThreshold = 0.7

// DefaultQualityGateDB is the POTLC's "predefined value": while the serving
// signal is at least this strong, no handover machinery runs ("if the signal
// strength is still good enough the handover is not carried out", §4).
// −75 dB corresponds to roughly 0.4 cell radii under the paper's calibrated
// dipole model, so the FLC engages only in the outer part of the cell.
const DefaultQualityGateDB = -75.0

// Controller is the resolved configuration of the Fig. 4 handover system:
// the FLC, the HD threshold, the POTLC quality-gate level and whether the
// PRTLC confirmation runs.  handover.NewFuzzy reads it once and runs the
// pipeline (POTLC → FLC → threshold → PRTLC); a Controller decides
// nothing itself.  It is immutable and safe for concurrent use.
type Controller struct {
	flc *FLC
	// threshold is the HD level above which the handover path is taken.
	threshold float64
	// qualityGateDB is the POTLC's predefined serving-signal level.
	qualityGateDB float64
	// confirmPRTLC enables the PRTLC check (disabled in the ablation).
	confirmPRTLC bool
}

// ControllerConfig configures a Controller; the zero value is the paper's.
type ControllerConfig struct {
	// FLC overrides the fuzzy controller (nil = the paper's, built once per
	// process and shared).
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
		c.flc = defaultFLC()
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
