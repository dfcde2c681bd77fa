// Package handover defines the common decision interface the simulator
// and the serve engine drive, the one fuzzy scorer (Fuzzy: the paper's
// POTLC → FLC → threshold → PRTLC pipeline, in its paper, speed-adaptive
// and SSN-trend configurations), and the classic non-fuzzy baselines the
// paper names as future-work comparisons (§6): absolute RSS threshold, RSS
// hysteresis, hysteresis + time-to-trigger, and distance-based handover.
package handover

import (
	"fmt"
	"math"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fuzzy"
)

// Decision is an algorithm's verdict for one measurement epoch.
type Decision struct {
	// Handover requests attachment to the measurement's strongest neighbor.
	Handover bool
	// Score is the algorithm's internal decision value, where one exists
	// (the FLC's HD output, a hysteresis margin in dB, …); Scored reports
	// whether it is meaningful.
	Score  float64
	Scored bool
	// Reason is a short human-readable justification for traces.
	Reason string
}

// Algorithm decides handovers from successive measurements.  Implementations
// may keep state across epochs (e.g. time-to-trigger counters) and must
// reset it in Reset; the simulator calls Reset once per run and after every
// executed handover.  The serve engine never calls it: one instance decides
// every terminal of a shard, so an algorithm it serves must keep no
// per-terminal cross-epoch state (the engine holds each terminal's history
// itself).
//
// Reset contract: after Reset, the instance must be indistinguishable from
// a freshly constructed one for every future Decide call — no cross-epoch
// decision state (streaks, histories, previous inputs) may survive.
// Retaining pure buffers (inference scratch memory whose contents are
// fully overwritten by each evaluation) is allowed and encouraged: that is
// what makes pooled reuse allocation-free.  TestResetMatchesFreshInstance
// enforces this contract for every algorithm in the package.
type Algorithm interface {
	// Name identifies the algorithm in tables and traces.
	Name() string
	// Decide inspects one epoch.  Implementations run on the serve
	// decision loop: steady state must not allocate.
	//
	//fuzzyho:hotpath
	Decide(m cell.Measurement, prevServingDB float64, havePrev bool) (Decision, error)
	// Reset clears cross-epoch state (see the contract above).  The
	// simulator calls it per executed handover on its decision loop: it
	// must not allocate.
	//
	//fuzzyho:hotpath
	Reset()
}

// ScoreStatus classifies one row of a ScoreFrame result.
type ScoreStatus uint8

const (
	// ScoreGated: the POTLC quality gate settled the report; the FLC never
	// ran and the score is meaningless.
	ScoreGated ScoreStatus = iota
	// ScoreEvaluated: the FLC scored the report; the decision completes
	// with DecideScored.
	ScoreEvaluated
	// ScoreError: the FLC could not score the report (no rule fired on an
	// ablated rulebase); DecideScored reproduces the per-report error.
	ScoreError
)

// BatchScorer is the optional Algorithm extension behind the columnar
// decision pipeline: the history-free part of a decision (the POTLC gate
// and the FLC score, which depend only on the gathered feature row) is
// computed for a whole frame of reports at once, and the stateful
// remainder (PRTLC history comparison, commit) completes per report with
// DecideScored.  Splitting the pipeline this way amortizes the
// per-report call and branch overhead across a reusable FeatureFrame,
// and lets the serve engine score a stateless schema's frames on the
// submitting goroutine, off the shard that completes them, while
// preserving exactly the per-terminal decision sequence of the
// one-report Decide path.
//
// The scorer declares its input shape with Schema(): the frame a caller
// scores must have been gathered for that schema (same features, same
// column order).  Schemas with stateful features (per-terminal derived
// state such as the SSN trend) additionally require the caller to gather
// each terminal's rows in report order against that terminal's
// DerivedState — and the scalar Decide path of such an algorithm advances
// the same derivation internally, so the two paths stay equivalent.
type BatchScorer interface {
	Algorithm
	// Schema declares the feature columns ScoreFrame consumes, in order.
	// The returned schema is immutable and may be shared.
	Schema() *FeatureSchema
	// ScoreFrame scores a gathered frame: for every row i, either
	// f.Status[i] = ScoreGated (gate settled it), or ScoreEvaluated with
	// f.HD[i] the FLC output, or ScoreError.  Steady state performs no
	// heap allocations.
	//
	//fuzzyho:hotpath
	ScoreFrame(f *FeatureFrame) error
	// DecideScored completes one report's decision from its precomputed
	// score, equivalent to Decide on the same measurement and history.
	// The measurement is passed by pointer — the batch completion loop
	// runs once per report and a Measurement is ~100 bytes — and is not
	// retained.  The caller must have scored a frame gathered from the
	// same measurements it completes against (serve shards do).
	//
	//fuzzyho:hotpath
	DecideScored(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, st ScoreStatus) (Decision, error)
}

// AsBatchScorer returns a's BatchScorer view: a itself when it already is
// one, otherwise an adapter that declares the paper schema (schema-less
// algorithms consume the paper's measurement features), has no batch
// stage, and completes every row with a.Decide — so one frame pipeline
// serves every algorithm.
func AsBatchScorer(a Algorithm) BatchScorer {
	if bs, ok := a.(BatchScorer); ok {
		return bs
	}
	return &decideScorer{a}
}

// decideScorer is AsBatchScorer's adapter for per-report algorithms.
type decideScorer struct{ Algorithm }

func (*decideScorer) Schema() *FeatureSchema { return paperSchema }

//fuzzyho:hotpath
func (*decideScorer) ScoreFrame(*FeatureFrame) error { return nil }

//fuzzyho:hotpath
func (d *decideScorer) DecideScored(m *cell.Measurement, prevServingDB float64, havePrev bool, _ float64, _ ScoreStatus) (Decision, error) {
	return d.Algorithm.Decide(*m, prevServingDB, havePrev)
}

// The reasons of the Fig. 4 pipeline's verdicts.  Every fuzzy
// configuration shares the gate, PRTLC and execute reasons; the
// below-threshold reason is the configuration's own (Fuzzy.below), and
// reasonFLC is the paper controller's.
const (
	reasonGate = "POTLC-quality-gate"
	reasonFLC  = "FLC-threshold"
	// ReasonPRTLC is the one scored verdict that is not below a
	// threshold: the FLC voted handover and the PRTLC confirmation
	// cancelled it on a recovering signal.
	ReasonPRTLC   = "PRTLC-confirmation"
	reasonExecute = "execute-handover"
)

// Fuzzy is the paper's Fig. 4 pipeline as an Algorithm and a BatchScorer:
// the POTLC gate, the FLC score, the threshold and the PRTLC
// confirmation.  One type serves every fuzzy configuration: the paper's
// controller (NewFuzzy), the speed-adaptive threshold (NewAdaptiveFuzzy)
// and the SSN-trend antecedent (NewTrendFuzzy), each exact or compiled.
// A configuration fixes the feature schema the FLC reads, how the
// threshold falls with speed (not at all for a fixed threshold) and the
// reason a below-threshold decision carries.
//
// The gate and the FLC score depend only on the gathered feature row, so
// ScoreFrame scores whole frames (through the compiled control surface
// when the FLC is compiled) and DecideScored completes each report
// against the terminal's history.  Decisions run allocation-free on a
// per-instance scratch, so — like every stateful Algorithm — one
// instance must not be driven from multiple goroutines at once.
type Fuzzy struct {
	// flc, gateDB, base and prtlc are read from the configuring
	// core.Controller once, at construction.
	flc    *core.FLC
	gateDB float64
	base   float64 // the threshold at 0 km/h
	prtlc  bool
	// slope is the threshold's fall per km/h of terminal speed (0: a
	// fixed threshold).
	slope  float64
	schema *FeatureSchema
	name   string
	below  string
	// scratch holds the scalar path's inference buffers and input row;
	// gather the batch path's dense buffers.  Both are pure per-call
	// scratch (fully rewritten by each evaluation), so Reset keeps them.
	scratch *fuzzy.Scratch
	gather  batchGather
	// state backs a stateful schema's derivation on the scalar Decide
	// path (sim drives one terminal per instance); the columnar path
	// reads columns the caller gathered against each terminal's own
	// DerivedState.
	state DerivedState
}

// newFuzzy builds a configuration over ctrl (nil: the paper's).
func newFuzzy(ctrl *core.Controller, schema *FeatureSchema, slope float64, name, below string) *Fuzzy {
	if ctrl == nil {
		ctrl = core.NewController()
	}
	return &Fuzzy{
		flc:    ctrl.FLC(),
		gateDB: ctrl.QualityGateDB(),
		base:   ctrl.Threshold(),
		prtlc:  ctrl.ConfirmPRTLC(),
		slope:  slope,
		schema: schema,
		name:   name,
		below:  below,
	}
}

// batchGather is Fuzzy's column-scoring stage: the POTLC gate settles
// what it can, the surviving rows' feature columns are made dense (gate),
// evaluated by the FLC through dense, and the scores scattered back to
// the frame (scatter).  When no row gates out — the common steady-state
// shape — dense borrows the frame's own columns and no packing copy runs
// at all; otherwise the survivors are packed into the gather's own
// buffers.  The FLC saturates (clamps) dense columns in place either way: frame feature
// columns are per-batch scratch with no post-score readers, and the
// saturated values are exactly what the FLC consumed.  The buffers are
// pure per-call scratch — fully rewritten by each score — so keeping them
// across calls is what makes the steady state allocation-free.
type batchGather struct {
	idx    []int32
	cols   [][]float64 // pack buffers, used only when some rows gate out
	dense  [][]float64 // columns to score: f.cols borrowed, or g.cols packed
	hd     []float64
	packed bool // whether dense was packed (idx maps dense row -> frame row)
}

// gate settles gated rows and presents the survivors' feature columns
// dense; it returns the dense row count.  The frame must already be
// schema-checked against the scorer.
//
//fuzzyho:hotpath
func (g *batchGather) gate(gateDB float64, f *FeatureFrame) int {
	g.idx = g.idx[:0]
	serving := f.Serving
	for i := range serving {
		if serving[i] >= gateDB {
			f.Status[i] = ScoreGated
			continue
		}
		g.idx = append(g.idx, int32(i))
	}
	n := len(g.idx)
	if n == 0 {
		return 0
	}
	if n == len(serving) {
		// Nothing gated: score the frame's columns where they lie.
		g.dense = f.cols
		g.packed = false
	} else {
		if g.cols == nil {
			//fuzzyho:allow one-time lazy column-header construction on the instance's first frame; every later call reuses it
			g.cols = make([][]float64, len(f.cols))
		}
		for k := range g.cols {
			src := f.cols[k]
			dst := g.cols[k][:0]
			for _, i := range g.idx {
				dst = append(dst, src[i])
			}
			g.cols[k] = dst
		}
		g.dense = g.cols
		g.packed = true
	}
	if cap(g.hd) < n {
		//fuzzyho:allow grows once to the largest sub-batch ever scored (≤ maxSubBatch) and is reused for every later call
		g.hd = make([]float64, n)
	}
	g.hd = g.hd[:n]
	return n
}

// scatter writes the dense scores back to the frame: ScoreEvaluated with
// the score, or ScoreError for NaN rows the engine could not score.
//
//fuzzyho:hotpath
func (g *batchGather) scatter(f *FeatureFrame) {
	if !g.packed {
		for i, v := range g.hd {
			if v == v {
				f.HD[i] = v
				f.Status[i] = ScoreEvaluated
			} else {
				f.Status[i] = ScoreError // NaN marks a row the FLC could not score
			}
		}
		return
	}
	for k, i := range g.idx {
		if v := g.hd[k]; v == v {
			f.HD[i] = v
			f.Status[i] = ScoreEvaluated
		} else {
			f.Status[i] = ScoreError // NaN marks a row the FLC could not score
		}
	}
}

// NewFuzzy runs the pipeline on the given controller configuration; nil
// uses the paper's defaults.
func NewFuzzy(ctrl *core.Controller) *Fuzzy {
	return newFuzzy(ctrl, paperSchema, 0, "fuzzy", reasonFLC)
}

// NewCompiledFuzzy returns the paper's controller on the process-wide
// compiled control surface (core.DefaultCompiledFLC) — the one recipe the
// sim, serve and CLI compiled modes share.
func NewCompiledFuzzy() (*Fuzzy, error) {
	flc, err := core.DefaultCompiledFLC()
	if err != nil {
		return nil, err
	}
	return NewFuzzy(core.NewControllerWithConfig(core.ControllerConfig{FLC: flc})), nil
}

// FLC returns the fuzzy logic controller the pipeline scores with: the
// 3-input paper FLC, or the 4-input one of the SSN-trend configuration.
func (f *Fuzzy) FLC() *core.FLC { return f.flc }

// Name implements Algorithm.
func (f *Fuzzy) Name() string { return f.name }

// Reset implements Algorithm: it clears a stateful schema's derivation.
// The controller itself keeps no cross-epoch decision state (all history
// arrives with the report), and the scratch buffers are kept: that is
// what makes pooled reuse (sim fleets, serve shards) allocation-free.
//
//fuzzyho:hotpath
func (f *Fuzzy) Reset() { f.state.Reset() }

// Threshold returns the HD threshold at the given terminal speed: the
// controller's fixed threshold, or — for the speed-adaptive
// configuration — one that falls by the slope per km/h down to
// MinThreshold.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *Fuzzy) Threshold(speedKmh float64) float64 {
	if f.slope == 0 {
		return f.base
	}
	return max(MinThreshold, f.base-f.slope*math.Abs(speedKmh))
}

// Decide implements Algorithm.
//
//fuzzyho:hotpath
func (f *Fuzzy) Decide(m cell.Measurement, prevServingDB float64, havePrev bool) (Decision, error) {
	if f.scratch == nil {
		//fuzzyho:allow one-time lazy scratch construction on the instance's first decision; every later call reuses it
		f.scratch = f.flc.NewScratch()
	}
	xs := f.scratch.Xs()
	if f.schema.Stateful() {
		// The derivation observes every report — before the POTLC gate,
		// exactly as the columnar path gathers the feature for every row
		// before gating — so both paths advance it identically.
		xs[3] = f.state.Trend.Observe(m.NeighborDB)
	}
	if m.ServingDB >= f.gateDB {
		return Decision{Reason: reasonGate}, nil
	}
	xs[0], xs[1], xs[2] = m.CSSPdB, m.NeighborDB, m.DMBNorm
	hd, err := f.flc.EvaluateRow(f.scratch, xs)
	if err != nil {
		//fuzzyho:allow error path: only a no-rule-fired ablation reaches this wrap, never a steady-state decision
		return Decision{}, fmt.Errorf("core: FLC evaluation: %w", err)
	}
	return f.DecideScored(&m, prevServingDB, havePrev, hd, ScoreEvaluated)
}

// Schema implements BatchScorer.
func (f *Fuzzy) Schema() *FeatureSchema { return f.schema }

// ScoreFrame implements BatchScorer: the POTLC gate settles what it can,
// and the surviving rows' feature columns are scored through
// FLC.EvaluateCols in one call.  A stateful schema's columns were
// gathered against each terminal's DerivedState, so scoring itself is
// row-stateless.
//
//fuzzyho:hotpath
func (f *Fuzzy) ScoreFrame(fr *FeatureFrame) error {
	//fuzzyho:allow schema guard: formats an error only when the caller scores a frame built for a different schema; shard-owned frames never do
	if err := frameSchemaErr(f.name, f.schema, fr); err != nil {
		return err
	}
	g := &f.gather
	if g.gate(f.gateDB, fr) == 0 {
		return nil
	}
	if err := f.flc.EvaluateCols(g.hd, g.dense); err != nil {
		return err
	}
	g.scatter(fr)
	return nil
}

// DecideScored implements BatchScorer: it completes the pipeline for one
// report from its precomputed FLC score, producing exactly the decision
// Decide would: the threshold at the report's speed, then the PRTLC
// confirmation ("when the present signal strength is lower than the
// strength of the previous signal, the handover procedure is carried
// out").  Each verdict returns its Decision directly: a shared completion
// helper, once inlined, builds a temporary whose copy-out costs a
// store-forwarding stall per report.
//
//fuzzyho:hotpath
func (f *Fuzzy) DecideScored(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, st ScoreStatus) (Decision, error) {
	switch st {
	case ScoreGated:
		return Decision{Reason: reasonGate}, nil
	case ScoreError:
		// A scoring failure means no rule fired for the row (inputs are
		// clamped before evaluation, so nothing else NaNs a score); wrap
		// the sentinel exactly like Decide so errors.Is behaves
		// identically on the batch and per-report paths.
		//fuzzyho:allow error path: only a no-rule-fired ablation reaches this wrap, never a steady-state decision
		return Decision{}, fmt.Errorf("core: FLC evaluation: %w", fuzzy.ErrNoActivation)
	}
	if hd <= f.Threshold(m.SpeedKmh) {
		return Decision{Score: hd, Scored: true, Reason: f.below}, nil
	}
	if f.prtlc && (!havePrev || m.ServingDB >= prevServingDB) {
		return Decision{Score: hd, Scored: true, Reason: ReasonPRTLC}, nil
	}
	return Decision{Handover: true, Score: hd, Scored: true, Reason: reasonExecute}, nil
}

// Passive never hands over: the measurement-only control used by the
// replica-averaging protocol (the paper's Tables 3-4 report inputs measured
// from the original serving BS throughout the walk) and as the "no
// handover" lower bound in comparisons.
type Passive struct{}

// Name implements Algorithm.
func (Passive) Name() string { return "passive" }

// Reset implements Algorithm.
func (Passive) Reset() {}

// Decide implements Algorithm.
func (Passive) Decide(cell.Measurement, float64, bool) (Decision, error) {
	return Decision{Reason: "passive observer"}, nil
}

// AbsoluteThreshold is the most naive baseline: hand over whenever the
// serving signal drops below ThresholdDB and any neighbor is stronger.
// This is the scheme whose boundary behaviour produces the ping-pong effect
// the paper opens with.
type AbsoluteThreshold struct {
	// ThresholdDB is the serving level below which handover is considered.
	ThresholdDB float64
}

// Name implements Algorithm.
func (a AbsoluteThreshold) Name() string { return "rss-threshold" }

// Reset implements Algorithm.
func (a AbsoluteThreshold) Reset() {}

// Decide implements Algorithm.
func (a AbsoluteThreshold) Decide(m cell.Measurement, _ float64, _ bool) (Decision, error) {
	if m.ServingDB >= a.ThresholdDB {
		return Decision{Reason: "serving above threshold"}, nil
	}
	if m.NeighborDB > m.ServingDB {
		return Decision{
			Handover: true,
			Score:    m.NeighborDB - m.ServingDB,
			Scored:   true,
			Reason:   "neighbor stronger below threshold",
		}, nil
	}
	return Decision{Reason: "no stronger neighbor"}, nil
}

// Hysteresis hands over when the neighbor exceeds the serving signal by at
// least MarginDB — the "constant handover threshold value (handover margin)"
// scheme of the paper's introduction.
type Hysteresis struct {
	// MarginDB is the required neighbor advantage in dB.
	MarginDB float64
}

// Name implements Algorithm.
func (h Hysteresis) Name() string { return fmt.Sprintf("hysteresis-%gdB", h.MarginDB) }

// Reset implements Algorithm.
func (h Hysteresis) Reset() {}

// Decide implements Algorithm.
func (h Hysteresis) Decide(m cell.Measurement, _ float64, _ bool) (Decision, error) {
	adv := m.NeighborDB - m.ServingDB
	if adv >= h.MarginDB {
		return Decision{Handover: true, Score: adv, Scored: true, Reason: "margin exceeded"}, nil
	}
	return Decision{Score: adv, Scored: true, Reason: "within margin"}, nil
}

// HysteresisTTT adds a time-to-trigger to Hysteresis: the margin must hold
// for Epochs consecutive measurements before the handover fires — the
// standard 3GPP-style ping-pong mitigation.
type HysteresisTTT struct {
	// MarginDB is the required neighbor advantage in dB.
	MarginDB float64
	// Epochs is the number of consecutive epochs the margin must hold.
	Epochs int

	streak int
}

// NewHysteresisTTT returns the baseline with the given margin and trigger
// length (epochs < 1 is treated as 1, reducing to plain hysteresis).
func NewHysteresisTTT(marginDB float64, epochs int) *HysteresisTTT {
	if epochs < 1 {
		epochs = 1
	}
	return &HysteresisTTT{MarginDB: marginDB, Epochs: epochs}
}

// Name implements Algorithm.
func (h *HysteresisTTT) Name() string {
	return fmt.Sprintf("hysteresis-%gdB-ttt%d", h.MarginDB, h.Epochs)
}

// Reset implements Algorithm.
func (h *HysteresisTTT) Reset() { h.streak = 0 }

// Decide implements Algorithm.
func (h *HysteresisTTT) Decide(m cell.Measurement, _ float64, _ bool) (Decision, error) {
	adv := m.NeighborDB - m.ServingDB
	if adv >= h.MarginDB {
		h.streak++
	} else {
		h.streak = 0
	}
	if h.streak >= h.Epochs {
		h.streak = 0
		return Decision{Handover: true, Score: adv, Scored: true, Reason: "margin sustained"}, nil
	}
	return Decision{Score: adv, Scored: true, Reason: "margin not sustained"}, nil
}

// DistanceBased hands over when the terminal has moved beyond TriggerNorm
// cell radii from the serving BS and the neighbor is stronger — the
// location-aided scheme of the paper's reference [7].
type DistanceBased struct {
	// TriggerNorm is the normalised distance beyond which handover is
	// considered (1.0 = the hexagon vertex).
	TriggerNorm float64
}

// Name implements Algorithm.
func (d DistanceBased) Name() string { return fmt.Sprintf("distance-%.2fR", d.TriggerNorm) }

// Reset implements Algorithm.
func (d DistanceBased) Reset() {}

// Decide implements Algorithm.
func (d DistanceBased) Decide(m cell.Measurement, _ float64, _ bool) (Decision, error) {
	if m.DMBNorm >= d.TriggerNorm && m.NeighborDB > m.ServingDB {
		return Decision{Handover: true, Score: m.DMBNorm, Scored: true, Reason: "beyond trigger distance"}, nil
	}
	return Decision{Score: m.DMBNorm, Scored: true, Reason: "inside trigger distance"}, nil
}

// SIRThreshold is the interference-aware baseline the paper's introduction
// lists among classic handover metrics: hand over when the downlink
// dominant-interferer ratio (serving − strongest neighbor, the standard
// measurable proxy for SIR) falls below ThresholdDB and the neighbor offers
// at least MarginDB more signal.  The proxy sits ≈ 4-5 dB above the full
// 19-cell interference sum near boundaries (quantified in the cell
// package's SIR tests), so thresholds are calibrated on the proxy scale.
type SIRThreshold struct {
	// ThresholdDB is the approximate SIR below which handover is sought.
	ThresholdDB float64
	// MarginDB is the required neighbor advantage.
	MarginDB float64
}

// Name implements Algorithm.
func (s SIRThreshold) Name() string { return fmt.Sprintf("sir-%gdB", s.ThresholdDB) }

// Reset implements Algorithm.
func (s SIRThreshold) Reset() {}

// Decide implements Algorithm.
func (s SIRThreshold) Decide(m cell.Measurement, _ float64, _ bool) (Decision, error) {
	sir := m.ServingDB - m.NeighborDB
	if sir < s.ThresholdDB && m.NeighborDB >= m.ServingDB+s.MarginDB {
		return Decision{Handover: true, Score: sir, Scored: true, Reason: "SIR below threshold"}, nil
	}
	return Decision{Score: sir, Scored: true, Reason: "SIR acceptable"}, nil
}
