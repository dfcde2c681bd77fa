package handover

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fuzzy"
)

// This file is the proof that the feature schema carries real weight: a
// 4-input FLC variant whose extra antecedent — the per-terminal EWMA
// slope of SSN (TrendState) — is a derived, stateful feature no fixed
// 3-column pipeline could serve.  It is a configuration of Fuzzy over a
// 4-input core.FLC.  The design follows trend/derivative
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

// trendFLC and compiledTrendFLC are the process-wide trend controllers:
// the exact FLC and its compiled form (the 4-axis exercise of the
// generalized exact kernel), each built once and shared by every instance
// (an FLC is immutable; instances own only their scratch).
var (
	trendFLC = sync.OnceValues(func() (*core.FLC, error) {
		sys, err := NewTrendSystem()
		if err != nil {
			return nil, err
		}
		return core.NewFLCFromSystem(sys)
	})
	compiledTrendFLC = sync.OnceValues(func() (*core.FLC, error) {
		exact, err := trendFLC()
		if err != nil {
			return nil, err
		}
		return exact.Compile()
	})
)

// DefaultTrendSurface returns the compiled control surface of the shared
// compiled trend FLC, the one all compiled trendfuzzy users share.
func DefaultTrendSurface() (*fuzzy.CompiledSurface, error) {
	flc, err := compiledTrendFLC()
	if err != nil {
		return nil, err
	}
	return flc.Surface(), nil
}

// NewTrendFuzzy returns the 4-input trend variant on the exact inference
// path: the paper's POTLC → FLC → threshold → PRTLC pipeline, with the
// FLC reading the SSN trend as a fourth antecedent.  The trend is
// per-terminal derived state, so Schema().Stateful() is true: the scalar
// Decide path advances the instance's own derivation (one instance per
// terminal, as sim fleets construct), and serve shards gather the trend
// column against each terminal's own DerivedState.
func NewTrendFuzzy() (*Fuzzy, error) { return newTrendFuzzy(trendFLC) }

// NewCompiledTrendFuzzy returns the trend variant on the shared compiled
// 4-axis surface (DefaultTrendSurface).
func NewCompiledTrendFuzzy() (*Fuzzy, error) { return newTrendFuzzy(compiledTrendFLC) }

func newTrendFuzzy(flc func() (*core.FLC, error)) (*Fuzzy, error) {
	f, err := flc()
	if err != nil {
		return nil, err
	}
	return newFuzzy(core.NewControllerWithConfig(core.ControllerConfig{FLC: f}), trendSchema, 0, "trendfuzzy", "below-threshold"), nil
}
