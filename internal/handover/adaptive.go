package handover

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fuzzy"
)

// AdaptiveFuzzy extends the paper's controller with a speed-adaptive
// decision threshold: the −2 dB / 10 km/h SSN penalty systematically lowers
// the FLC output for fast terminals, so a fixed 0.7 threshold makes them
// hand over late (EXPERIMENTS.md documents the effect at 40-50 km/h).
// Lowering the threshold by SlopePerKmh per km/h compensates; the default
// slope keeps the hover-walk maximum and the crossing-walk minimum
// separated across the paper's whole 0-50 km/h sweep.
//
// This is an extension beyond the paper (its future-work section asks for
// algorithm comparisons; this is the natural next step the comparison
// suggests), evaluated in BenchmarkAblationAdaptiveThreshold.
//
// AdaptiveFuzzy also implements BatchScorer, so serve shards drive it
// through the columnar decision pipeline: the POTLC gate, the FLC score
// and the speed-adaptive threshold comparison are all row-stateless, so
// ScoreFrame settles everything but the PRTLC history stage — the frame's
// speed column is what lets the threshold schedule run in batch.
type AdaptiveFuzzy struct {
	flc     *core.FLC
	scratch *fuzzy.Scratch
	// BaseThreshold is the 0 km/h threshold (the paper's 0.7).
	BaseThreshold float64
	// SlopePerKmh is the threshold reduction per km/h of terminal speed.
	SlopePerKmh float64
	// MinThreshold floors the adaptive threshold.
	MinThreshold float64
	// qualityGateDB mirrors the POTLC gate of the core controller.
	qualityGateDB float64
	// gather holds the dense batch-path buffers (pure per-call scratch;
	// Reset keeps it, see the Fuzzy.gather rationale).
	gather batchGather
}

// DefaultAdaptiveSlope is the per-km/h threshold reduction that offsets the
// paper's SSN speed penalty: 2 dB per 10 km/h shifts the FLC output by
// roughly 0.017 near the operating point, i.e. ≈ 0.0034 per km/h.
const DefaultAdaptiveSlope = 0.0034

// NewAdaptiveFuzzy returns the speed-adaptive controller with default
// calibration.
func NewAdaptiveFuzzy() *AdaptiveFuzzy {
	return newAdaptiveFuzzy(core.NewFLC())
}

// NewCompiledAdaptiveFuzzy returns the speed-adaptive controller on the
// process-wide compiled control surface (core.DefaultCompiledFLC) — the
// same shared kernel the sim, serve and CLI compiled modes use for the
// paper controller.
func NewCompiledAdaptiveFuzzy() (*AdaptiveFuzzy, error) {
	flc, err := core.DefaultCompiledFLC()
	if err != nil {
		return nil, err
	}
	return newAdaptiveFuzzy(flc), nil
}

// AlgorithmFactoryFor resolves an algorithm selector (the -algo flag of
// the serve CLIs) into a serve-layer algorithm factory.  "fuzzy" (or "")
// returns a nil factory: the caller should use the engine's default
// algorithm, which honors the engine's own compiled flag.  "adaptive"
// returns a factory for the speed-adaptive extension and "trendfuzzy" one
// for the 4-input SSN-trend variant — on the shared compiled kernels when
// compiled is set, with the build verified once up front so the factory
// itself cannot fail.
func AlgorithmFactoryFor(name string, compiled bool) (func() Algorithm, error) {
	switch name {
	case "fuzzy", "":
		return nil, nil
	case "adaptive":
		if compiled {
			if _, err := NewCompiledAdaptiveFuzzy(); err != nil {
				return nil, err
			}
			return func() Algorithm {
				a, _ := NewCompiledAdaptiveFuzzy() // compile already succeeded above
				return a
			}, nil
		}
		return func() Algorithm { return NewAdaptiveFuzzy() }, nil
	case "trendfuzzy":
		if compiled {
			if _, err := NewCompiledTrendFuzzy(); err != nil {
				return nil, err
			}
			return func() Algorithm {
				a, _ := NewCompiledTrendFuzzy() // compile already succeeded above
				return a
			}, nil
		}
		if _, err := NewTrendFuzzy(); err != nil {
			return nil, err
		}
		return func() Algorithm {
			a, _ := NewTrendFuzzy() // system build already succeeded above
			return a
		}, nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want fuzzy, adaptive or trendfuzzy)", name)
	}
}

func newAdaptiveFuzzy(flc *core.FLC) *AdaptiveFuzzy {
	return &AdaptiveFuzzy{
		flc:           flc,
		BaseThreshold: core.DefaultHandoverThreshold,
		SlopePerKmh:   DefaultAdaptiveSlope,
		MinThreshold:  0.5,
		qualityGateDB: core.DefaultQualityGateDB,
	}
}

// Name implements Algorithm.
func (a *AdaptiveFuzzy) Name() string { return "fuzzy-adaptive" }

// Reset implements Algorithm.
//
//fuzzyho:hotpath
func (a *AdaptiveFuzzy) Reset() {}

// Threshold returns the effective threshold at the given speed.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (a *AdaptiveFuzzy) Threshold(speedKmh float64) float64 {
	return max(a.MinThreshold, a.BaseThreshold-a.SlopePerKmh*math.Abs(speedKmh))
}

// Decide implements Algorithm with the same POTLC → FLC → PRTLC pipeline as
// the paper's controller, but comparing HD against the speed-adaptive
// threshold.
//
//fuzzyho:hotpath
func (a *AdaptiveFuzzy) Decide(m cell.Measurement, prevServingDB float64, havePrev bool) (Decision, error) {
	if m.ServingDB >= a.qualityGateDB {
		return Decision{Reason: "POTLC-quality-gate"}, nil
	}
	if a.scratch == nil {
		//fuzzyho:allow one-time lazy scratch construction on the instance's first decision; every later call reuses it
		a.scratch = a.flc.NewScratch()
	}
	hd, err := a.flc.EvaluateInto(a.scratch, m.CSSPdB, m.NeighborDB, m.DMBNorm)
	if err != nil {
		//fuzzyho:allow error path: only a no-rule-fired ablation reaches this wrap, never a steady-state decision
		return Decision{}, fmt.Errorf("handover: adaptive FLC: %w", err)
	}
	return a.complete(&m, prevServingDB, havePrev, hd, hd <= a.Threshold(m.SpeedKmh)), nil
}

// complete finishes the pipeline from a computed score: the threshold
// verdict is passed in so the batch path (which settles it per column row)
// and the scalar path share one PRTLC implementation.
//
//fuzzyho:hotpath
func (a *AdaptiveFuzzy) complete(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, below bool) Decision {
	if below {
		// Static reason string: the serving hot path delivers one of
		// these per sub-threshold decision, and the effective threshold
		// is recomputable as Threshold(m.SpeedKmh).
		return Decision{Score: hd, Scored: true, Reason: "below-adaptive-threshold"}
	}
	if !havePrev || m.ServingDB >= prevServingDB {
		return Decision{Score: hd, Scored: true, Reason: "PRTLC-confirmation"}
	}
	return Decision{Handover: true, Score: hd, Scored: true, Reason: "execute-handover"}
}

// Schema implements BatchScorer: the adaptive threshold reads the frame's
// speed column, but the FLC inputs are the paper's three antecedents.
func (a *AdaptiveFuzzy) Schema() *FeatureSchema { return paperSchema }

// ScoreFrame implements BatchScorer.  Beyond the shared gate + FLC stage,
// the speed-adaptive threshold comparison is itself row-stateless — it
// depends only on the row's score and speed — so it is settled here:
// evaluated rows at or below the row's adaptive threshold come back as
// ScoreBelowThreshold and only the PRTLC history comparison is left for
// DecideScored.
//
//fuzzyho:hotpath
func (a *AdaptiveFuzzy) ScoreFrame(fr *FeatureFrame) error {
	//fuzzyho:allow schema guard: formats an error only when the caller scores a frame built for a different schema; shard-owned frames never do
	if err := frameSchemaErr("fuzzy-adaptive", paperSchema, fr); err != nil {
		return err
	}
	g := &a.gather
	if g.gate(a.qualityGateDB, fr) == 0 {
		return nil
	}
	if err := a.flc.EvaluateBatch(g.hd, g.dense[0], g.dense[1], g.dense[2]); err != nil {
		return err
	}
	g.scatter(fr)
	status, hd, speed := fr.Status, fr.HD, fr.Speed
	for i := range status {
		if status[i] == ScoreEvaluated && hd[i] <= a.Threshold(speed[i]) {
			status[i] = ScoreBelowThreshold
		}
	}
	return nil
}

// DecideScored implements BatchScorer: it completes the adaptive pipeline
// for one report from its precomputed score and threshold verdict,
// producing exactly the decision Decide would for the same measurement.
//
//fuzzyho:hotpath
func (a *AdaptiveFuzzy) DecideScored(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, st ScoreStatus) (Decision, error) {
	switch st {
	case ScoreGated:
		return Decision{Reason: "POTLC-quality-gate"}, nil
	case ScoreError:
		// Mirrors the Decide error wrapping so errors.Is behaves
		// identically on both paths (NaN inputs are clamped before
		// evaluation, so only a no-rule-fired ablation NaNs a score).
		//fuzzyho:allow error path: only a no-rule-fired ablation reaches this wrap, never a steady-state decision
		return Decision{}, fmt.Errorf("handover: adaptive FLC: %w", fuzzy.ErrNoActivation)
	}
	return a.complete(m, prevServingDB, havePrev, hd, st == ScoreBelowThreshold), nil
}
