package handover

import (
	"fmt"
	"strings"

	"repro/internal/cell"
	"repro/internal/core"
)

// Explainer is implemented by algorithms that can reconstruct a
// human-readable explanation of their verdict for one measurement — for
// the paper's controllers, the full FLC inference trace (fuzzified
// inputs, rule firings, defuzzified HD) plus the gate and threshold
// comparisons around it.  Explanations re-run inference on the exact
// (uncompiled) path and may allocate; callers are expected to sample
// (the serve layer's TraceEvery does).
type Explainer interface {
	// Explain renders the decision rationale for m.  The boolean is
	// false when no explanation is available for this measurement.
	Explain(m cell.Measurement) (string, bool)
}

// Explain implements Explainer; the rendered threshold is the one at the
// measurement's speed.  A stateful schema has no explanation: its trend
// antecedent is terminal history a measurement alone does not carry.
func (f *Fuzzy) Explain(m cell.Measurement) (string, bool) {
	if f.schema.Stateful() {
		return "", false
	}
	return explainFLC(f.flc, f.gateDB, f.Threshold(m.SpeedKmh), m)
}

func explainFLC(flc *core.FLC, gateDB, threshold float64, m cell.Measurement) (string, bool) {
	if m.ServingDB >= gateDB {
		return fmt.Sprintf("POTLC gate: serving %.1f dB ≥ gate %.1f dB → call quality acceptable, no handover",
			m.ServingDB, gateDB), true
	}
	hd, tr, err := flc.EvaluateTrace(m.CSSPdB, m.NeighborDB, m.DMBNorm)
	var sb strings.Builder
	fmt.Fprintf(&sb, "POTLC gate: serving %.1f dB < gate %.1f dB → evaluate FLC\n", m.ServingDB, gateDB)
	if err != nil {
		fmt.Fprintf(&sb, "FLC evaluation failed: %v", err)
		return sb.String(), true
	}
	sb.WriteString(tr.String())
	if hd <= threshold {
		fmt.Fprintf(&sb, "HD %.4f ≤ threshold %.4f → no handover", hd, threshold)
	} else {
		fmt.Fprintf(&sb, "HD %.4f > threshold %.4f → PRTLC confirmation", hd, threshold)
	}
	return sb.String(), true
}
