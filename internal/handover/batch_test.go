package handover

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
)

// randomMeasurements builds a stream of FLC-relevant measurements spanning
// gated, scored and threshold-crossing regions, with terminal speeds
// across the paper's 0-50 km/h sweep (the adaptive scorer's axis).
func randomMeasurements(n int, seed int64) []cell.Measurement {
	rng := rand.New(rand.NewSource(seed))
	ms := make([]cell.Measurement, n)
	for i := range ms {
		ms[i] = cell.Measurement{
			ServingDB:  -110 + rng.Float64()*40, // straddles the −75 dB gate region
			CSSPdB:     -12 + rng.Float64()*24,
			NeighborDB: -125 + rng.Float64()*50,
			DMBNorm:    rng.Float64() * 1.6,
			SpeedKmh:   float64(i%6) * 10,
			WalkedKm:   float64(i) * 0.1,
		}
	}
	return ms
}

// gatherFrame gathers a measurement stream into a fresh frame for the
// scorer's schema, in report order against one derived state (the
// single-terminal contract the equivalence walks exercise).
func gatherFrame(bat BatchScorer, ms []cell.Measurement, d *DerivedState) *FeatureFrame {
	f := NewFeatureFrame(bat.Schema(), len(ms))
	gatherMeasurements(f, ms, d)
	return f
}

// gatherMeasurements resets f to len(ms) rows and gathers every
// measurement in order against one derived state.
func gatherMeasurements(f *FeatureFrame, ms []cell.Measurement, d *DerivedState) {
	f.Reset(len(ms))
	for i := range ms {
		f.Gather(i, &ms[i], d)
	}
}

// TestScoreFrameMatchesDecide drives the same measurement stream through
// the per-report Decide path and the columnar ScoreFrame → DecideScored
// path and requires identical decisions, on both the exact and the
// compiled controller.
func TestScoreFrameMatchesDecide(t *testing.T) {
	compiledFLC, err := core.DefaultCompiledFLC()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mk   func() *core.Controller
	}{
		{"exact", func() *core.Controller { return core.NewController() }},
		{"compiled", func() *core.Controller {
			return core.NewControllerWithConfig(core.ControllerConfig{FLC: compiledFLC})
		}},
		{"no-gate", func() *core.Controller {
			return core.NewControllerWithConfig(core.ControllerConfig{DisableQualityGate: true, FLC: compiledFLC})
		}},
		{"no-prtlc", func() *core.Controller {
			return core.NewControllerWithConfig(core.ControllerConfig{DisablePRTLC: true, FLC: compiledFLC})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkScoredWalk(t, NewFuzzy(tc.mk()), NewFuzzy(tc.mk()), randomMeasurements(512, 42))
		})
	}
	// Algorithms without a batch stage take the same path through
	// AsBatchScorer's adapter (HysteresisTTT carries a streak across
	// epochs).
	for _, mk := range []func() Algorithm{
		func() Algorithm { return NewHysteresisTTT(3, 2) },
		func() Algorithm { return DistanceBased{TriggerNorm: 0.9} },
	} {
		t.Run(mk().Name(), func(t *testing.T) {
			checkScoredWalk(t, mk(), AsBatchScorer(mk()), randomMeasurements(512, 42))
		})
	}
}

// checkScoredWalk scores a stream through bat's columnar path and walks
// both decision paths with the same evolving history, requiring identical
// decisions.  The sequential algorithm is Reset after every executed
// handover (the sim contract), and for stateful schemas the frame-side
// derived state resets at the same points — which forces the walk to
// re-gather suffix frames exactly as a serve shard would after a commit.
func checkScoredWalk(t *testing.T, seq Algorithm, bat BatchScorer, ms []cell.Measurement) {
	t.Helper()
	var derived DerivedState
	f := gatherFrame(bat, ms, &derived)
	if err := bat.ScoreFrame(f); err != nil {
		t.Fatal(err)
	}
	prevDB, havePrev := 0.0, false
	for i := range ms {
		m := ms[i]
		want, err1 := seq.Decide(m, prevDB, havePrev)
		got, err2 := bat.DecideScored(&ms[i], prevDB, havePrev, f.HD[i], f.Status[i])
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("report %d: seq err %v, batch err %v", i, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got.Handover != want.Handover || got.Scored != want.Scored || got.Reason != want.Reason {
			t.Fatalf("report %d: batch %+v ≠ sequential %+v", i, got, want)
		}
		if want.Scored && math.Abs(got.Score-want.Score) > 1e-9 {
			t.Fatalf("report %d: batch score %g ≠ sequential %g", i, got.Score, want.Score)
		}
		if want.Handover {
			prevDB, havePrev = m.ServingDB, false
			seq.Reset()
			if bat.Schema().Stateful() {
				// A commit clears the terminal's derived state; the rest of
				// the stream must be re-gathered from the reset derivation,
				// exactly as a serve shard's next stateful run is.
				derived.Reset()
				rest := ms[i+1:]
				if len(rest) > 0 {
					tail := gatherFrame(bat, rest, &derived)
					if err := bat.ScoreFrame(tail); err != nil {
						t.Fatal(err)
					}
					copy(f.HD[i+1:], tail.HD)
					copy(f.Status[i+1:], tail.Status)
				}
			}
		} else {
			prevDB, havePrev = m.ServingDB, true
		}
	}
}

// TestAdaptiveScoreFrameMatchesDecide is the adaptive controller's batch
// equivalence pin: the columnar path must reproduce the per-report
// threshold schedule exactly, on both the exact and compiled FLC.
func TestAdaptiveScoreFrameMatchesDecide(t *testing.T) {
	mkCompiled := func(t *testing.T) *Fuzzy {
		a, err := NewCompiledAdaptiveFuzzy()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) *Fuzzy
	}{
		{"exact", func(*testing.T) *Fuzzy { return NewAdaptiveFuzzy() }},
		{"compiled", mkCompiled},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ms := randomMeasurements(512, 43)
			checkScoredWalk(t, tc.mk(t), tc.mk(t), ms)

			// The schedule must actually engage somewhere in the stream:
			// at least one scored row is below the threshold at its speed,
			// and at least one survives to PRTLC.
			bat := tc.mk(t)
			f := gatherFrame(bat, ms, nil)
			if err := bat.ScoreFrame(f); err != nil {
				t.Fatal(err)
			}
			var below, evaluated int
			for i, st := range f.Status {
				if st != ScoreEvaluated {
					continue
				}
				d, err := bat.DecideScored(&ms[i], 0, false, f.HD[i], st)
				if err != nil {
					t.Fatal(err)
				}
				if d.Reason == "below-adaptive-threshold" {
					below++
				} else {
					evaluated++
				}
			}
			if below == 0 || evaluated == 0 {
				t.Fatalf("threshold stage degenerate: %d below-threshold, %d evaluated rows", below, evaluated)
			}
		})
	}
}

// TestTrendScoreFrameMatchesDecide pins the stateful-schema equivalence:
// the 4-input trend variant must decide identically on the scalar path
// (internal trend derivation) and the frame path (externally gathered
// trend column), on both the exact and compiled inference paths — and the
// trend antecedent must actually change decisions relative to the paper
// controller somewhere in the stream.
func TestTrendScoreFrameMatchesDecide(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(t *testing.T) *Fuzzy
	}{
		{"exact", func(t *testing.T) *Fuzzy {
			a, err := NewTrendFuzzy()
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
		{"compiled", func(t *testing.T) *Fuzzy {
			a, err := NewCompiledTrendFuzzy()
			if err != nil {
				t.Fatal(err)
			}
			return a
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkScoredWalk(t, tc.mk(t), tc.mk(t), randomMeasurements(512, 44))
		})
	}
}

// evalRow scores one raw input row on a's FLC through EvaluateRow.
func evalRow(a *Fuzzy, xs ...float64) (float64, error) {
	flc := a.Controller().FLC()
	return flc.EvaluateRow(flc.NewScratch(), xs)
}

// TestTrendCompiledMatchesExact pins the 4-axis compiled kernel against
// the exact inference path across a dense input sweep.
func TestTrendCompiledMatchesExact(t *testing.T) {
	exact, err := NewTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := NewCompiledTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	for cssp := core.CsspMin; cssp <= core.CsspMax; cssp += 1.9 {
		for ssn := core.SsnMin; ssn <= core.SsnMax; ssn += 3.7 {
			for dmb := core.DmbMin; dmb <= core.DmbMax; dmb += 0.17 {
				for trend := TrendMin; trend <= TrendMax; trend += 0.83 {
					want, err1 := evalRow(exact, cssp, ssn, dmb, trend)
					got, err2 := evalRow(compiled, cssp, ssn, dmb, trend)
					if (err1 == nil) != (err2 == nil) {
						t.Fatalf("(%g,%g,%g,%g): exact err %v, compiled err %v", cssp, ssn, dmb, trend, err1, err2)
					}
					if err1 == nil && math.Abs(want-got) > 1e-9 {
						t.Fatalf("(%g,%g,%g,%g): exact %g, compiled %g", cssp, ssn, dmb, trend, want, got)
					}
				}
			}
		}
	}
}

// TestTrendFlatMatchesPaper pins the design anchor of the trend rulebase:
// with the trend derivation at rest (flat slope), the 4-input controller
// reproduces the paper controller's decisions exactly — the extension
// only reweights decisions when the neighbor is actually moving.
func TestTrendFlatMatchesPaper(t *testing.T) {
	trendAlgo, err := NewTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	paper := NewFuzzy(nil)
	ms := randomMeasurements(256, 45)
	prevDB, havePrev := 0.0, false
	for i := range ms {
		m := ms[i]
		m.NeighborDB = -97.5 // constant SSN: the trend stays identically flat
		want, err1 := paper.Decide(m, prevDB, havePrev)
		got, err2 := trendAlgo.Decide(m, prevDB, havePrev)
		if err1 != nil || err2 != nil {
			t.Fatalf("report %d: errs %v / %v", i, err1, err2)
		}
		if got.Handover != want.Handover {
			t.Fatalf("report %d: flat-trend handover %v ≠ paper %v", i, got.Handover, want.Handover)
		}
		if want.Scored && got.Scored && math.Abs(got.Score-want.Score) > 1e-9 {
			t.Fatalf("report %d: flat-trend score %g ≠ paper %g", i, got.Score, want.Score)
		}
		if want.Handover {
			prevDB, havePrev = m.ServingDB, false
			paper.Reset()
			trendAlgo.Reset()
		} else {
			prevDB, havePrev = m.ServingDB, true
		}
	}
}

// TestTrendShiftsDecisions verifies the antecedent carries weight: a
// strongly rising neighbor must raise HD relative to a falling one at the
// same operating point.
func TestTrendShiftsDecisions(t *testing.T) {
	a, err := NewTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	rising, err := evalRow(a, -3, -97, 0.9, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	falling, err := evalRow(a, -3, -97, 0.9, -2.5)
	if err != nil {
		t.Fatal(err)
	}
	if !(rising > falling) {
		t.Fatalf("rising trend HD %g not above falling %g", rising, falling)
	}
}

// TestTrendResetContract pins the Reset contract for the stateful
// algorithm: after Reset, the instance decides exactly like a fresh one.
func TestTrendResetContract(t *testing.T) {
	used, err := NewTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	ms := randomMeasurements(64, 46)
	prevDB, havePrev := 0.0, false
	for i := range ms {
		if _, err := used.Decide(ms[i], prevDB, havePrev); err != nil {
			t.Fatal(err)
		}
		prevDB, havePrev = ms[i].ServingDB, true
	}
	used.Reset()
	fresh, err := NewTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	prevDB, havePrev = 0.0, false
	for i := range ms {
		want, err1 := fresh.Decide(ms[i], prevDB, havePrev)
		got, err2 := used.Decide(ms[i], prevDB, havePrev)
		if err1 != nil || err2 != nil {
			t.Fatalf("report %d: errs %v / %v", i, err1, err2)
		}
		if got != want {
			t.Fatalf("report %d: after Reset %+v ≠ fresh %+v", i, got, want)
		}
		prevDB, havePrev = ms[i].ServingDB, true
	}
}

// TestScoreFrameSchemaGuard pins the schema check: a frame gathered for a
// different schema is rejected by every BatchScorer implementation.
func TestScoreFrameSchemaGuard(t *testing.T) {
	trendAlgo, err := NewTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	paperFrame := NewFeatureFrame(PaperFeatureSchema(), 4)
	paperFrame.Reset(4)
	trendFrame := NewFeatureFrame(TrendFeatureSchema(), 4)
	trendFrame.Reset(4)
	for _, tc := range []struct {
		bat   BatchScorer
		wrong *FeatureFrame
	}{
		{NewFuzzy(nil), trendFrame},
		{NewAdaptiveFuzzy(), trendFrame},
		{trendAlgo, paperFrame},
	} {
		if err := tc.bat.ScoreFrame(tc.wrong); err == nil {
			t.Fatalf("%s: frame with foreign schema accepted", tc.bat.Name())
		}
	}
}

// TestFeatureSchemaIdentity pins the two built-in schemas: their names,
// statefulness and hashes.  Nodes and routers from different builds
// compare the hashes in the cluster hello, so they are literal here.
func TestFeatureSchemaIdentity(t *testing.T) {
	for _, tc := range []struct {
		schema *FeatureSchema
		names  []string
		hash   uint64
	}{
		{PaperFeatureSchema(), []string{"cssp", "ssn", "dmb"}, 0x5bfce34931063969},
		{TrendFeatureSchema(), []string{"cssp", "ssn", "dmb", "ssn_trend"}, 0x8b00a5f1c092c881},
	} {
		if got := tc.schema.Names(); !slices.Equal(got, tc.names) || tc.schema.Len() != len(tc.names) {
			t.Fatalf("schema names %v (len %d), want %v", got, tc.schema.Len(), tc.names)
		}
		if got := tc.schema.Hash(); got != tc.hash {
			t.Fatalf("schema %v hash %#x, want %#x", tc.names, got, tc.hash)
		}
	}
	if PaperFeatureSchema().Stateful() {
		t.Fatal("paper schema claims stateful features")
	}
	if !TrendFeatureSchema().Stateful() {
		t.Fatal("trend schema does not claim its stateful feature")
	}
	if f := NewFuzzy(nil); AsBatchScorer(f) != BatchScorer(f) {
		t.Fatal("AsBatchScorer wrapped an algorithm that already is a BatchScorer")
	}
	if SchemaHashOf(Hysteresis{MarginDB: 3}) != PaperFeatureSchema().Hash() {
		t.Fatal("schema-less algorithm does not serve the paper schema")
	}
	if schemaHash([]string{"cssp", "ssn"}) == schemaHash([]string{"ssn", "cssp"}) {
		t.Fatal("schema hash is order-insensitive")
	}
}

// TestTrendStateEWMA pins the derivation arithmetic: first observation
// anchors flat, then the slope tracks the EWMA of deltas.
func TestTrendStateEWMA(t *testing.T) {
	var s TrendState
	if got := s.Observe(-100); got != 0 {
		t.Fatalf("first observation slope %g, want 0", got)
	}
	if got := s.Observe(-98); got != 1 { // delta 2, alpha 0.5
		t.Fatalf("second observation slope %g, want 1", got)
	}
	if got := s.Observe(-98); got != 0.5 { // delta 0: slope decays
		t.Fatalf("third observation slope %g, want 0.5", got)
	}
	s.Reset()
	if !s.IsZero() {
		t.Fatal("reset state not zero")
	}
	if got := s.Observe(-90); got != 0 {
		t.Fatalf("post-reset first observation slope %g, want 0", got)
	}
}

// TestScoreFrameAllocationFree pins the steady-state allocation contract
// of the columnar path for every BatchScorer implementation, including
// the frame gather itself.
func TestScoreFrameAllocationFree(t *testing.T) {
	flc, err := core.DefaultCompiledFLC()
	if err != nil {
		t.Fatal(err)
	}
	adaptive, err := NewCompiledAdaptiveFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	trendAlgo, err := NewCompiledTrendFuzzy()
	if err != nil {
		t.Fatal(err)
	}
	for _, bat := range []BatchScorer{
		NewFuzzy(core.NewControllerWithConfig(core.ControllerConfig{FLC: flc})),
		adaptive,
		trendAlgo,
	} {
		const n = 64
		ms := make([]cell.Measurement, n)
		for i := 0; i < n; i++ {
			ms[i] = cell.Measurement{
				ServingDB:  -95 + float64(i%8),
				CSSPdB:     -2 + float64(i%5),
				NeighborDB: -100 + float64(i%9),
				DMBNorm:    0.3 + float64(i%4)*0.25,
				SpeedKmh:   float64(i%6) * 10,
			}
		}
		var derived DerivedState
		f := NewFeatureFrame(bat.Schema(), n)
		// Warm the gather buffers and the lazy scratch.
		gatherMeasurements(f, ms, &derived)
		if err := bat.ScoreFrame(f); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			f.Reset(n)
			for i := range ms {
				f.Gather(i, &ms[i], &derived)
			}
			if err := bat.ScoreFrame(f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state gather+ScoreFrame allocates %g per call, want 0", bat.Name(), allocs)
		}
	}
}
