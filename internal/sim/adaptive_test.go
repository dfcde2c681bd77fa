package sim

import (
	"math"
	"testing"

	"repro/internal/handover"
)

// TestAdaptiveCompiledMatchesExact pins the sim-level decision-sequence
// equivalence of the speed-adaptive controller on the compiled control
// surface: across the paper's scenario grid and speed sweep, an
// adaptive controller built on core.DefaultCompiledFLC must reproduce the exact
// controller's verdicts epoch by epoch.  This is the sim-side counterpart
// of the serve-level columnar pin in internal/serve.
func TestAdaptiveCompiledMatchesExact(t *testing.T) {
	if _, err := handover.NewCompiledAdaptiveFuzzy(); err != nil {
		t.Fatal(err)
	}
	var cfgs []Config
	for _, base := range []Config{PaperBoundaryConfig(), PaperCrossingConfig()} {
		c, _ := SweepGrid("adaptive", base, 2, []float64{0, 30, 50})
		cfgs = append(cfgs, c...)
	}

	handovers := 0
	for i, cfg := range cfgs {
		exactCfg := cfg
		exactCfg.AlgorithmFactory = func() handover.Algorithm { return handover.NewAdaptiveFuzzy() }
		compiledCfg := cfg
		compiledCfg.AlgorithmFactory = func() handover.Algorithm {
			a, _ := handover.NewCompiledAdaptiveFuzzy() // compile verified above
			return a
		}
		exact, err := Run(exactCfg)
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := Run(compiledCfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.Epochs) != len(compiled.Epochs) {
			t.Fatalf("config %d: %d exact epochs, %d compiled", i, len(exact.Epochs), len(compiled.Epochs))
		}
		for j := range exact.Epochs {
			ee, ce := exact.Epochs[j], compiled.Epochs[j]
			if ee.Decision.Handover != ce.Decision.Handover || ee.Executed != ce.Executed ||
				ee.Decision.Scored != ce.Decision.Scored || ee.Decision.Reason != ce.Decision.Reason {
				t.Fatalf("config %d epoch %d: compiled %+v/executed=%v ≠ exact %+v/executed=%v",
					i, j, ce.Decision, ce.Executed, ee.Decision, ee.Executed)
			}
			if ee.Decision.Scored && math.Abs(ee.Decision.Score-ce.Decision.Score) > 1e-9 {
				t.Fatalf("config %d epoch %d: compiled HD %g drifted from exact %g",
					i, j, ce.Decision.Score, ee.Decision.Score)
			}
			if ee.Executed {
				handovers++
			}
		}
	}
	if handovers == 0 {
		t.Error("adaptive sweep executed no handovers; the grid does not exercise the extension")
	}
}
