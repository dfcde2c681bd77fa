package handover

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fuzzy"
)

// This file is the proof that the feature schema carries real weight: a
// 4-input FLC variant whose extra antecedent — the per-terminal EWMA
// slope of SSN (TrendState) — is a derived, stateful feature no fixed
// 3-column pipeline could serve.  The design follows trend/derivative
// handover inputs from the literature (deltaRSRQ-style criteria): a
// rising neighbor makes the controller more willing to hand over, a
// fading one less, damping boundary ping-pong beyond what the paper's
// static antecedents achieve.

// Trend variable identity: term names follow the core naming style.
const (
	// VarTrend is the EWMA slope of SSN [dB/epoch].
	VarTrend = "TREND"
	// TrendFL: the neighbor is fading.
	TrendFL = "FL"
	// TrendFT: the neighbor holds steady.
	TrendFT = "FT"
	// TrendRS: the neighbor is strengthening.
	TrendRS = "RS"
)

// Trend universe bounds [dB/epoch].  The EWMA (alpha 0.5) of per-epoch
// SSN deltas stays within a few dB even under the sim's shadowing jitter;
// ±5 saturates only on genuine cell-approach slopes.
const (
	TrendMin = -5.0
	TrendMax = 5.0
)

// trendShoulder is where the fading/strengthening shoulders saturate: a
// sustained 2.5 dB/epoch approach reads as fully Rising.
const trendShoulder = 2.5

// NewTrendVariable returns the TREND linguistic variable: a three-term
// Ruspini partition (piecewise linear, ≤ 2 terms active anywhere), which
// keeps the 4-input system eligible for the exact compiled kernel.
func NewTrendVariable() *fuzzy.Variable {
	return fuzzy.MustVariable(VarTrend, TrendMin, TrendMax,
		fuzzy.Term{Name: TrendFL, MF: fuzzy.ShoulderLeft(-trendShoulder, 0)},
		fuzzy.Term{Name: TrendFT, MF: fuzzy.Tri(-trendShoulder, 0, trendShoulder)},
		fuzzy.Term{Name: TrendRS, MF: fuzzy.ShoulderRight(0, trendShoulder)},
	)
}

// trendTermOrder and the core term orders fix rule enumeration.
var (
	trendCsspOrder = [4]string{core.CsspSM, core.CsspLC, core.CsspNC, core.CsspBG}
	trendSsnOrder  = [4]string{core.SsnWK, core.SsnNSW, core.SsnNO, core.SsnST}
	trendDmbOrder  = [4]string{core.DmbNR, core.DmbNSN, core.DmbNSF, core.DmbFA}
	trendOrder     = [3]string{TrendFL, TrendFT, TrendRS}
	hdOrder        = [4]string{core.HdVL, core.HdLO, core.HdLH, core.HdHG}
)

// NewTrendFRB returns the 192-rule base of the trend variant: the paper's
// Table 1 consequent for every (CSSP, SSN, DMB) triple, shifted one HD
// term up when the trend is Rising and one down when Falling (clamped at
// the VL/HG ends).  Flat reproduces Table 1 exactly, so a terminal whose
// neighbor holds steady decides as the paper does.
func NewTrendFRB() fuzzy.RuleBase {
	hdIdx := map[string]int{}
	for i, t := range hdOrder {
		hdIdx[t] = i
	}
	var rb fuzzy.RuleBase
	for _, cssp := range trendCsspOrder {
		for _, ssn := range trendSsnOrder {
			for _, dmb := range trendDmbOrder {
				cons, err := core.RuleConsequent(cssp, ssn, dmb)
				if err != nil {
					panic(err) // unreachable: the orders enumerate Table 1 exactly
				}
				for ti, trend := range trendOrder {
					idx := hdIdx[cons] + (ti - 1) // FL −1, FT 0, RS +1
					if idx < 0 {
						idx = 0
					}
					if idx > len(hdOrder)-1 {
						idx = len(hdOrder) - 1
					}
					rb.Add(fuzzy.Rule{
						If: []fuzzy.Clause{
							{Var: core.VarCSSP, Term: cssp},
							{Var: core.VarSSN, Term: ssn},
							{Var: core.VarDMB, Term: dmb},
							{Var: VarTrend, Term: trend},
						},
						Then: fuzzy.Clause{Var: core.VarHD, Term: hdOrder[idx]},
					})
				}
			}
		}
	}
	return rb
}

// NewTrendSystem builds the 4-input system (CSSP, SSN, DMB, TREND → HD).
// Input order matches TrendFeatureSchema's column order.
func NewTrendSystem() (*fuzzy.System, error) {
	return fuzzy.NewSystem(core.NewHD(), NewTrendFRB(), fuzzy.Options{},
		core.NewCSSP(), core.NewSSN(), core.NewDMB(), NewTrendVariable())
}

var (
	trendSysOnce sync.Once
	trendSys     *fuzzy.System
	trendSysErr  error

	trendSurfOnce sync.Once
	trendSurf     *fuzzy.CompiledSurface
	trendSurfErr  error
)

// defaultTrendSystem returns the shared immutable trend system (instances
// share it and own only their scratch).
func defaultTrendSystem() (*fuzzy.System, error) {
	trendSysOnce.Do(func() {
		trendSys, trendSysErr = NewTrendSystem()
	})
	return trendSys, trendSysErr
}

// DefaultTrendSurface returns the process-wide compiled surface of the
// trend system — the 4-axis exercise of the generalized exact kernel, and
// the one instance all compiled trendfuzzy users share.
func DefaultTrendSurface() (*fuzzy.CompiledSurface, error) {
	trendSurfOnce.Do(func() {
		sys, err := defaultTrendSystem()
		if err != nil {
			trendSurfErr = err
			return
		}
		trendSurf, trendSurfErr = fuzzy.CompileSurface(sys)
	})
	return trendSurf, trendSurfErr
}

// TrendFuzzy is the 4-input trend variant: the paper's POTLC → FLC →
// threshold → PRTLC pipeline, with the FLC consuming the SSN trend as a
// fourth antecedent.  The trend is per-terminal derived state: the scalar
// Decide path advances the instance's own DerivedState (one instance per
// terminal, as sim fleets construct), while the columnar path
// (ScoreFrame) consumes trend columns the caller gathered against each
// terminal's own DerivedState — which is why Schema().Stateful() is true
// and serve shards route every trendfuzzy report through the frame.
type TrendFuzzy struct {
	sys     *fuzzy.System
	surface *fuzzy.CompiledSurface // nil on the exact path
	scratch *fuzzy.Scratch
	// Threshold is the fixed HD decision threshold (the paper's 0.7).
	threshold     float64
	qualityGateDB float64
	// state backs the scalar Decide path's trend derivation.
	state DerivedState
	// xs is the scalar compiled path's reusable input vector.
	xs [4]float64
	// gather holds the dense batch-path buffers (pure per-call scratch;
	// Reset keeps it, see the Fuzzy.gather rationale).
	gather batchGather
}

// NewTrendFuzzy returns the trend variant on the exact inference path.
func NewTrendFuzzy() (*TrendFuzzy, error) {
	sys, err := defaultTrendSystem()
	if err != nil {
		return nil, err
	}
	return &TrendFuzzy{
		sys:           sys,
		threshold:     core.DefaultHandoverThreshold,
		qualityGateDB: core.DefaultQualityGateDB,
	}, nil
}

// NewCompiledTrendFuzzy returns the trend variant on the shared compiled
// 4-axis surface (DefaultTrendSurface).
func NewCompiledTrendFuzzy() (*TrendFuzzy, error) {
	surf, err := DefaultTrendSurface()
	if err != nil {
		return nil, err
	}
	t, err := NewTrendFuzzy()
	if err != nil {
		return nil, err
	}
	t.surface = surf
	return t, nil
}

// System exposes the 4-input system (hosurface renders its slices).
func (t *TrendFuzzy) System() *fuzzy.System { return t.sys }

// Threshold returns the fixed decision threshold.
func (t *TrendFuzzy) Threshold() float64 { return t.threshold }

// Name implements Algorithm.
func (t *TrendFuzzy) Name() string { return "trendfuzzy" }

// Reset implements Algorithm: clears the trend derivation (the scratch
// and gather buffers are pure inference scratch and are kept).
//
//fuzzyho:hotpath
func (t *TrendFuzzy) Reset() { t.state.Reset() }

// Decide implements Algorithm.  The trend observes every report — before
// the POTLC gate, exactly as the columnar path gathers the feature for
// every row before gating — so both paths advance the derivation
// identically.
//
//fuzzyho:hotpath
func (t *TrendFuzzy) Decide(m cell.Measurement, prevServingDB float64, havePrev bool) (Decision, error) {
	trend := t.state.Trend.Observe(m.NeighborDB)
	if m.ServingDB >= t.qualityGateDB {
		return Decision{Reason: "POTLC-quality-gate"}, nil
	}
	hd, err := t.eval(m.CSSPdB, m.NeighborDB, m.DMBNorm, trend)
	if err != nil {
		//fuzzyho:allow error path: the 192-rule base is complete, so no steady-state decision reaches this wrap
		return Decision{}, fmt.Errorf("handover: trend FLC: %w", err)
	}
	return t.complete(&m, prevServingDB, havePrev, hd, hd <= t.threshold), nil
}

// eval runs one 4-input inference with the paper's input saturation
// semantics (clamp to the universe, NaN to the floor).
//
//fuzzyho:hotpath
func (t *TrendFuzzy) eval(cssp, ssn, dmb, trend float64) (float64, error) {
	cssp, ssn, dmb = core.ClampInputs(cssp, ssn, dmb)
	trend = core.Clamp(trend, TrendMin, TrendMax)
	if t.surface != nil {
		t.xs[0], t.xs[1], t.xs[2], t.xs[3] = cssp, ssn, dmb, trend
		return t.surface.Evaluate(t.xs[:])
	}
	if t.scratch == nil {
		//fuzzyho:allow one-time lazy scratch construction on the instance's first decision; every later call reuses it
		t.scratch = t.sys.NewScratch()
	}
	xs := t.scratch.Xs()
	xs[0], xs[1], xs[2], xs[3] = cssp, ssn, dmb, trend
	return t.sys.EvaluateInto(t.scratch, xs)
}

// complete finishes the pipeline from a computed score (shared by the
// scalar and batch paths, like AdaptiveFuzzy.complete).
//
//fuzzyho:hotpath
func (t *TrendFuzzy) complete(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, below bool) Decision {
	if below {
		return Decision{Score: hd, Scored: true, Reason: "below-threshold"}
	}
	if !havePrev || m.ServingDB >= prevServingDB {
		return Decision{Score: hd, Scored: true, Reason: "PRTLC-confirmation"}
	}
	return Decision{Handover: true, Score: hd, Scored: true, Reason: "execute-handover"}
}

// Schema implements BatchScorer: the paper's antecedents plus the
// stateful SSN trend.
func (t *TrendFuzzy) Schema() *FeatureSchema { return trendSchema }

// ScoreFrame implements BatchScorer.  The caller gathered the trend
// column against each terminal's DerivedState (the stateful-schema
// contract), so scoring itself is row-stateless: gate, clamp, evaluate
// the 4 dense columns, scatter, and settle the fixed threshold.
//
//fuzzyho:hotpath
func (t *TrendFuzzy) ScoreFrame(fr *FeatureFrame) error {
	//fuzzyho:allow schema guard: formats an error only when the caller scores a frame built for a different schema; shard-owned frames never do
	if err := frameSchemaErr("trendfuzzy", trendSchema, fr); err != nil {
		return err
	}
	g := &t.gather
	n := g.gate(t.qualityGateDB, fr)
	if n == 0 {
		return nil
	}
	// Clamp the dense columns in place — the pack buffers, or the frame's
	// own per-batch scratch columns when nothing gated (the batchGather
	// contract) — exactly like FLC.EvaluateBatch saturates the paper
	// columns.
	cssp, ssn, dmb, trend := g.dense[0], g.dense[1], g.dense[2], g.dense[3]
	for i := 0; i < n; i++ {
		cssp[i], ssn[i], dmb[i] = core.ClampInputs(cssp[i], ssn[i], dmb[i])
		trend[i] = core.Clamp(trend[i], TrendMin, TrendMax)
	}
	if t.surface != nil {
		if err := t.surface.EvaluateBatch(g.hd, g.dense); err != nil {
			return err
		}
	} else {
		if t.scratch == nil {
			//fuzzyho:allow one-time lazy scratch construction on the instance's first frame; every later call reuses it
			t.scratch = t.sys.NewScratch()
		}
		xs := t.scratch.Xs()
		for i := 0; i < n; i++ {
			xs[0], xs[1], xs[2], xs[3] = cssp[i], ssn[i], dmb[i], trend[i]
			hd, err := t.sys.EvaluateInto(t.scratch, xs)
			if err != nil {
				hd = math.NaN() // mark the row, keep the batch going
			}
			g.hd[i] = hd
		}
	}
	g.scatter(fr)
	status, hd := fr.Status, fr.HD
	for i := range status {
		if status[i] == ScoreEvaluated && hd[i] <= t.threshold {
			status[i] = ScoreBelowThreshold
		}
	}
	return nil
}

// DecideScored implements BatchScorer: completes the trend pipeline from
// a precomputed score and threshold verdict, producing exactly the
// decision Decide would for the same measurement and trend observation.
//
//fuzzyho:hotpath
func (t *TrendFuzzy) DecideScored(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, st ScoreStatus) (Decision, error) {
	switch st {
	case ScoreGated:
		return Decision{Reason: "POTLC-quality-gate"}, nil
	case ScoreError:
		// Mirrors the Decide error wrapping so errors.Is behaves
		// identically on both paths.
		//fuzzyho:allow error path: the 192-rule base is complete, so no steady-state decision reaches this wrap
		return Decision{}, fmt.Errorf("handover: trend FLC: %w", fuzzy.ErrNoActivation)
	}
	return t.complete(m, prevServingDB, havePrev, hd, st == ScoreBelowThreshold), nil
}
