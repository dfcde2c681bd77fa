package handover

import (
	"fmt"

	"repro/internal/core"
)

// The speed-adaptive configuration extends the paper's controller with a
// decision threshold that falls with terminal speed: the −2 dB / 10 km/h
// SSN penalty systematically lowers the FLC output for fast terminals, so
// a fixed 0.7 threshold makes them hand over late (EXPERIMENTS.md
// documents the effect at 40-50 km/h).  Lowering the threshold by
// DefaultAdaptiveSlope per km/h compensates; the slope keeps the
// hover-walk maximum and the crossing-walk minimum separated across the
// paper's whole 0-50 km/h sweep.
//
// This is an extension beyond the paper (its future-work section asks for
// algorithm comparisons; this is the natural next step the comparison
// suggests), evaluated in BenchmarkAblationAdaptiveThreshold.  The
// threshold depends only on the report's score and speed, so
// DecideScored settles it per report like the fixed one.

// DefaultAdaptiveSlope is the per-km/h threshold reduction that offsets the
// paper's SSN speed penalty: 2 dB per 10 km/h shifts the FLC output by
// roughly 0.017 near the operating point, i.e. ≈ 0.0034 per km/h.
const DefaultAdaptiveSlope = 0.0034

// MinThreshold floors the speed-adaptive threshold.
const MinThreshold = 0.5

// NewAdaptiveFuzzy returns the speed-adaptive controller: the paper's
// controller with a threshold that falls by DefaultAdaptiveSlope per km/h.
func NewAdaptiveFuzzy() *Fuzzy { return newAdaptiveFuzzy(core.NewController()) }

// NewCompiledAdaptiveFuzzy returns the speed-adaptive controller on the
// process-wide compiled control surface (core.DefaultCompiledFLC) — the
// same shared kernel the sim, serve and CLI compiled modes use for the
// paper controller.
func NewCompiledAdaptiveFuzzy() (*Fuzzy, error) {
	flc, err := core.DefaultCompiledFLC()
	if err != nil {
		return nil, err
	}
	return newAdaptiveFuzzy(core.NewControllerWithConfig(core.ControllerConfig{FLC: flc})), nil
}

func newAdaptiveFuzzy(ctrl *core.Controller) *Fuzzy {
	return newFuzzy(ctrl, paperSchema, DefaultAdaptiveSlope, "fuzzy-adaptive", "below-adaptive-threshold")
}

// AlgorithmFactoryFor resolves an algorithm selector (the -algo flag of
// the CLIs) into an algorithm factory: "fuzzy" (or "") the paper's
// controller, "adaptive" the speed-adaptive extension and "trendfuzzy"
// the 4-input SSN-trend variant — on the shared compiled kernels when
// compiled is set.  A build that can fail (a compiled kernel, the trend
// system) is verified once up front, so the factory itself cannot fail.
func AlgorithmFactoryFor(name string, compiled bool) (func() Algorithm, error) {
	var build func() (*Fuzzy, error)
	switch name {
	case "fuzzy", "":
		if !compiled {
			return func() Algorithm { return NewFuzzy(nil) }, nil
		}
		build = NewCompiledFuzzy
	case "adaptive":
		if !compiled {
			return func() Algorithm { return NewAdaptiveFuzzy() }, nil
		}
		build = NewCompiledAdaptiveFuzzy
	case "trendfuzzy":
		build = NewTrendFuzzy
		if compiled {
			build = NewCompiledTrendFuzzy
		}
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want fuzzy, adaptive or trendfuzzy)", name)
	}
	if _, err := build(); err != nil {
		return nil, err
	}
	return func() Algorithm {
		f, _ := build() // the build already succeeded above
		return f
	}, nil
}
