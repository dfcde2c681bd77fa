package handover

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/core"
	"repro/internal/fuzzy"
	"repro/internal/hexgrid"
)

// meas builds a measurement with the given signal profile.
func meas(servingDB, neighborDB, dmbNorm float64, csspDB float64) cell.Measurement {
	return cell.Measurement{
		Serving:    hexgrid.Cell{},
		Neighbor:   hexgrid.Cell{I: 2, J: -1},
		ServingDB:  servingDB,
		NeighborDB: neighborDB,
		DMBNorm:    dmbNorm,
		CSSPdB:     csspDB,
	}
}

// TestFuzzyAdapterMatchesController checks that Fuzzy adopts the
// controller configuration it is built from (its FLC, gate level and
// threshold) and decides the paper's crossing and boundary profiles.
func TestFuzzyAdapterMatchesController(t *testing.T) {
	ctrl := core.NewController()
	f := NewFuzzy(ctrl)
	if f.Name() != "fuzzy" {
		t.Errorf("Name = %q", f.Name())
	}
	if f.FLC() != ctrl.FLC() || f.gateDB != ctrl.QualityGateDB() || f.Threshold(50) != ctrl.Threshold() {
		t.Fatal("Fuzzy did not adopt the controller's FLC, gate and threshold")
	}
	// Crossing profile: degrading signal, strong neighbor, far out.
	m := meas(-98, -93.7, 1.2, -3.5)
	d, err := f.Decide(m, -96.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Handover || !d.Scored || d.Score <= core.DefaultHandoverThreshold {
		t.Errorf("crossing decision = %+v", d)
	}
	if !strings.Contains(d.Reason, "execute") {
		t.Errorf("reason = %q", d.Reason)
	}
	// Boundary-hover profile: stays.
	m = meas(-83, -93, 0.9, -1.0)
	d, err = f.Decide(m, -82.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if d.Handover {
		t.Errorf("boundary decision = %+v, want stay", d)
	}
	f.Reset() // must be a no-op
}

// sinkFuzzy keeps TestFuzzyConfigurationsShareFLC's constructions alive.
var sinkFuzzy *Fuzzy

// TestFuzzyConfigurationsShareFLC pins that constructing a configuration
// builds no FLC: the paper and speed-adaptive controllers share the one
// process-wide paper FLC, so NewFuzzy(nil) allocates only its controller
// and itself, and trend instances share one FLC per path.
func TestFuzzyConfigurationsShareFLC(t *testing.T) {
	flc := core.NewController().FLC()
	if NewFuzzy(nil).FLC() != flc || NewAdaptiveFuzzy().FLC() != flc {
		t.Fatal("default fuzzy configurations do not share the paper FLC")
	}
	if n := testing.AllocsPerRun(100, func() { sinkFuzzy = NewFuzzy(nil) }); n > 2 {
		t.Errorf("NewFuzzy(nil) made %g allocations, want at most 2", n)
	}
	for _, build := range []func() (*Fuzzy, error){NewTrendFuzzy, NewCompiledTrendFuzzy} {
		a, err := build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := build()
		if err != nil {
			t.Fatal(err)
		}
		if a.FLC() != b.FLC() {
			t.Errorf("two %s instances (compiled=%v) hold distinct FLCs", a.Name(), a.FLC().Surface() != nil)
		}
	}
}

// TestFuzzyDecideZeroAllocs pins the scalar Decide path, which the
// simulator calls every epoch, at 0 allocations in every fuzzy
// configuration, exact and compiled, across all four verdicts.
func TestFuzzyDecideZeroAllocs(t *testing.T) {
	epochs := []struct {
		m      cell.Measurement
		prevDB float64
	}{
		{meas(-60, -93.7, 1.2, -3.5), -59},   // POTLC gate
		{meas(-83, -93, 0.9, -1.0), -82.5},   // below the threshold
		{meas(-98, -93.7, 1.2, -3.5), -99},   // PRTLC: recovering
		{meas(-98, -93.7, 1.2, -3.5), -96.5}, // execute
	}
	for _, sel := range []string{"fuzzy", "adaptive", "trendfuzzy"} {
		for _, compiled := range []bool{false, true} {
			factory, err := AlgorithmFactoryFor(sel, compiled)
			if err != nil {
				t.Fatal(err)
			}
			a := factory()
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				e := epochs[i%len(epochs)]
				if _, err := a.Decide(e.m, e.prevDB, true); err != nil {
					t.Fatal(err)
				}
				i++
			})
			if allocs != 0 {
				t.Errorf("%s (compiled %v): Decide allocates %.1f times per call, want 0", a.Name(), compiled, allocs)
			}
		}
	}
}

// TestNoRuleFiredWrapsSentinel pins the one error wrap of the fuzzy
// scorer: on a rule base whose holes leave some rows unfired, the scalar
// Decide and the columnar ScoreFrame → DecideScored paths fail the same
// rows with the same text, and errors.Is finds fuzzy.ErrNoActivation on
// both.
func TestNoRuleFiredWrapsSentinel(t *testing.T) {
	var rules fuzzy.RuleBase
	for _, r := range core.NewFRB().Rules {
		if r.If[0].Term != core.CsspBG { // a CSSP at or past 10 dB fires nothing
			rules.Add(r)
		}
	}
	flc, err := core.NewFLCWithOptions(core.FLCOptions{Rules: &rules})
	if err != nil {
		t.Fatal(err)
	}
	f := NewFuzzy(core.NewControllerWithConfig(core.ControllerConfig{FLC: flc}))
	ms := []cell.Measurement{meas(-98, -93.7, 1.2, 12), meas(-98, -93.7, 1.2, -3.5)}
	fr := NewFeatureFrame(f.Schema(), len(ms))
	fr.Reset(len(ms))
	for i := range ms {
		fr.Gather(i, &ms[i], nil)
	}
	if err := f.ScoreFrame(fr); err != nil {
		t.Fatal(err)
	}
	for i, wantErr := range []bool{true, false} {
		_, scalar := f.Decide(ms[i], -96.5, true)
		_, batch := f.DecideScored(&ms[i], -96.5, true, fr.HD[i], fr.Status[i])
		if (scalar != nil) != wantErr || (batch != nil) != wantErr {
			t.Fatalf("row %d: scalar err %v, batch err %v, want error %v", i, scalar, batch, wantErr)
		}
		if !wantErr {
			continue
		}
		if !errors.Is(scalar, fuzzy.ErrNoActivation) || !errors.Is(batch, fuzzy.ErrNoActivation) {
			t.Fatalf("row %d: errors %v / %v do not wrap fuzzy.ErrNoActivation", i, scalar, batch)
		}
		if scalar.Error() != batch.Error() || !strings.HasPrefix(scalar.Error(), "core: FLC evaluation: ") {
			t.Fatalf("row %d: scalar error %q, batch error %q", i, scalar, batch)
		}
	}
}

func TestAbsoluteThreshold(t *testing.T) {
	a := AbsoluteThreshold{ThresholdDB: -85}
	// Strong serving: stay regardless of neighbor.
	if d, _ := a.Decide(meas(-70, -60, 0.5, 0), 0, false); d.Handover {
		t.Error("handed over with strong serving signal")
	}
	// Weak serving, stronger neighbor: hand over.
	d, _ := a.Decide(meas(-95, -90, 1.0, -2), 0, false)
	if !d.Handover || d.Score != 5 {
		t.Errorf("decision = %+v, want handover with 5 dB advantage", d)
	}
	// Weak serving, weaker neighbor: stay.
	if d, _ := a.Decide(meas(-95, -99, 1.0, -2), 0, false); d.Handover {
		t.Error("handed over to weaker neighbor")
	}
	if a.Name() != "rss-threshold" {
		t.Errorf("Name = %q", a.Name())
	}
}

func TestHysteresis(t *testing.T) {
	h := Hysteresis{MarginDB: 4}
	if d, _ := h.Decide(meas(-95, -92, 1.0, -2), 0, false); d.Handover {
		t.Error("handed over inside margin (3 dB < 4 dB)")
	}
	d, _ := h.Decide(meas(-95, -90.5, 1.0, -2), 0, false)
	if !d.Handover {
		t.Error("did not hand over beyond margin (4.5 dB)")
	}
	if h.Name() != "hysteresis-4dB" {
		t.Errorf("Name = %q", h.Name())
	}
}

func TestHysteresisTTTRequiresSustainedMargin(t *testing.T) {
	h := NewHysteresisTTT(3, 3)
	above := meas(-95, -90, 1.0, -2) // 5 dB advantage
	below := meas(-95, -94, 1.0, -2) // 1 dB advantage
	// Two epochs above, then a dip: no handover.
	for i, m := range []cell.Measurement{above, above, below, above, above} {
		d, err := h.Decide(m, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if d.Handover {
			t.Fatalf("epoch %d handed over before margin sustained", i)
		}
	}
	// Third consecutive epoch above: fires.
	d, _ := h.Decide(above, 0, false)
	if !d.Handover {
		t.Error("did not fire after 3 consecutive epochs above margin")
	}
	// Streak resets after firing.
	if d, _ := h.Decide(above, 0, false); d.Handover {
		t.Error("fired immediately after a handover")
	}
}

func TestHysteresisTTTReset(t *testing.T) {
	h := NewHysteresisTTT(3, 2)
	above := meas(-95, -90, 1.0, -2)
	if d, _ := h.Decide(above, 0, false); d.Handover {
		t.Fatal("fired on first epoch")
	}
	h.Reset()
	if d, _ := h.Decide(above, 0, false); d.Handover {
		t.Error("streak survived Reset")
	}
	if NewHysteresisTTT(3, 0).Epochs != 1 {
		t.Error("epochs floor not applied")
	}
	if NewHysteresisTTT(3, 2).Name() != "hysteresis-3dB-ttt2" {
		t.Error("TTT name wrong")
	}
}

func TestDistanceBased(t *testing.T) {
	d := DistanceBased{TriggerNorm: 1.0}
	if dec, _ := d.Decide(meas(-90, -85, 0.8, -2), 0, false); dec.Handover {
		t.Error("handed over inside trigger distance")
	}
	dec, _ := d.Decide(meas(-95, -90, 1.1, -2), 0, false)
	if !dec.Handover {
		t.Error("did not hand over beyond trigger distance")
	}
	// Beyond distance but neighbor weaker: stay.
	if dec, _ := d.Decide(meas(-90, -95, 1.1, -2), 0, false); dec.Handover {
		t.Error("handed over to weaker neighbor")
	}
	if d.Name() != "distance-1.00R" {
		t.Errorf("Name = %q", d.Name())
	}
}

func TestBaselinesPingPongOnBoundary(t *testing.T) {
	// The motivating defect: at a cell boundary where serving and neighbor
	// alternate ±1 dB around equality, the naive baselines flip-flop while
	// the fuzzy system holds.  Simulate 10 alternating epochs.
	naive := AbsoluteThreshold{ThresholdDB: -85}
	fz := NewFuzzy(nil)
	naiveHandover, fuzzyHandover := 0, 0
	for i := 0; i < 10; i++ {
		var m cell.Measurement
		if i%2 == 0 {
			m = meas(-93, -92, 0.95, -1.0) // neighbor ahead
		} else {
			m = meas(-92, -93, 0.95, +1.0) // serving ahead again
		}
		if d, _ := naive.Decide(m, -92, true); d.Handover {
			naiveHandover++
		}
		if d, _ := fz.Decide(m, -92, true); d.Handover {
			fuzzyHandover++
		}
	}
	if naiveHandover == 0 {
		t.Error("naive baseline unexpectedly stable on the boundary")
	}
	if fuzzyHandover != 0 {
		t.Errorf("fuzzy system flapped %d times on the boundary", fuzzyHandover)
	}
}
