package sim

import (
	"testing"

	"repro/internal/handover"
)

// TestCompiledFLCDecisionSequenceEquivalence is the sim-level acceptance
// regression of the compiled control surface: on the paper's scenario grid
// (both base seeds × replicas × speeds), every epoch of every run must
// reach the same handover verdict — and the same executed-handover
// sequence — whether the FLC runs exact Mamdani inference or the compiled
// surface.  Verdict equivalence is tolerance-aware by construction: HD may
// differ within the surface's error bound, but the decisions must match.
func TestCompiledFLCDecisionSequenceEquivalence(t *testing.T) {
	for _, base := range []struct {
		label string
		cfg   Config
	}{
		{"boundary", PaperBoundaryConfig()},
		{"crossing", PaperCrossingConfig()},
	} {
		exactCfgs, points := SweepGrid(base.label, base.cfg, 3, []float64{0, 10, 30, 50})
		factory, err := handover.AlgorithmFactoryFor("fuzzy", true)
		if err != nil {
			t.Fatal(err)
		}
		compiledCfgs := make([]Config, len(exactCfgs))
		for i, cfg := range exactCfgs {
			cfg.AlgorithmFactory = factory
			compiledCfgs[i] = cfg
		}
		exact, err := RunFleet(exactCfgs, 0)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := RunFleet(compiledCfgs, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exact {
			e, c := exact[i], compiled[i]
			if len(e.Epochs) != len(c.Epochs) {
				t.Fatalf("%v: %d epochs exact vs %d compiled", points[i], len(e.Epochs), len(c.Epochs))
			}
			for j := range e.Epochs {
				ee, ce := e.Epochs[j], c.Epochs[j]
				if ee.Decision.Handover != ce.Decision.Handover || ee.Executed != ce.Executed {
					t.Fatalf("%v epoch %d: exact verdict (handover=%v executed=%v) ≠ compiled (handover=%v executed=%v)",
						points[i], j, ee.Decision.Handover, ee.Executed, ce.Decision.Handover, ce.Executed)
				}
				if ee.Decision.Reason != ce.Decision.Reason {
					t.Fatalf("%v epoch %d: exact stage %q ≠ compiled %q",
						points[i], j, ee.Decision.Reason, ce.Decision.Reason)
				}
				if ee.Executed && ee.Neighbor != ce.Neighbor {
					t.Fatalf("%v epoch %d: exact handover target %v ≠ compiled %v",
						points[i], j, ee.Neighbor, ce.Neighbor)
				}
			}
			if e.PingPongCount != c.PingPongCount {
				t.Fatalf("%v: ping-pong count %d exact vs %d compiled",
					points[i], e.PingPongCount, c.PingPongCount)
			}
		}
	}
}
