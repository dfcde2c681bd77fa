package serve

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/handover"
	"repro/internal/sim"
)

// adaptiveFleetConfigs expands both paper scenarios across replicas and a
// speed axis that exercises the adaptive threshold (50 km/h is where the
// fixed-threshold controller stalls and the adaptive one fires), with
// every run decided by the adaptive controller on the per-report path.
func adaptiveFleetConfigs(factory func() handover.Algorithm) []sim.Config {
	var cfgs []sim.Config
	for _, base := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()} {
		c, _ := sim.SweepGrid("adaptive", base, 2, []float64{0, 30, 50})
		cfgs = append(cfgs, c...)
	}
	for i := range cfgs {
		cfgs[i].AlgorithmFactory = factory
	}
	return cfgs
}

// TestAdaptiveColumnarMatchesPerReport is the serve-level acceptance pin
// for the speed-adaptive controller as a BatchScorer: replaying the
// paper's scenario grid through an engine whose shards share one adaptive
// instance — which
// routes every multi-report sub-batch through the columnar pipeline, speed
// column and all — must reproduce the per-report (sim-path) decision
// sequence of the same controller, per terminal per epoch.
func TestAdaptiveColumnarMatchesPerReport(t *testing.T) {
	exactFactory := func() handover.Algorithm { return handover.NewAdaptiveFuzzy() }
	compiledFactory := func() handover.Algorithm {
		a, err := handover.NewCompiledAdaptiveFuzzy()
		if err != nil {
			panic(err) // compile is verified below before any engine is built
		}
		return a
	}
	if _, err := handover.NewCompiledAdaptiveFuzzy(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		factory func() handover.Algorithm
		// scoreTol bounds per-epoch HD drift vs the exact sim reference
		// (0 for the exact engine; the compiled kernel is validated
		// bit-equivalent for the paper FLC, 1e-9 leaves margin).
		scoreTol float64
	}{
		{"exact", exactFactory, 0},
		{"compiled", compiledFactory, 1e-9},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfgs := adaptiveFleetConfigs(exactFactory)
			streams, results := simStreams(t, cfgs)
			reports := InterleaveReports(streams)

			for _, shards := range []int{1, 4} {
				t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
					rec := newRecorder(len(cfgs))
					e, err := New(Config{
						Shards:           shards,
						QueueDepth:       64,
						AlgorithmFactory: tc.factory,
						PingPongWindowKm: sim.DefaultPingPongWindowKm,
						OnDecision:       rec.record,
					})
					if err != nil {
						t.Fatal(err)
					}
					// The point of the test is the columnar pipeline: the
					// shards must score through the adaptive controller's
					// own batch stage, not a per-report adapter.
					for _, s := range e.shards {
						if _, ok := s.scorer.(*handover.Fuzzy); !ok {
							t.Fatalf("shard scorer is %T, not handover.Fuzzy; its batch stage is not under test", s.scorer)
						}
					}
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
					if err := e.SubmitBatch(reports); err != nil {
						t.Fatal(err)
					}
					e.Flush()
					if err := e.Stop(); err != nil {
						t.Fatal(err)
					}

					for i, res := range results {
						got := *rec[TerminalID(i)]
						if len(got) != len(res.Epochs) {
							t.Fatalf("terminal %d: %d outcomes, sim has %d epochs", i, len(got), len(res.Epochs))
						}
						for j, o := range got {
							exp := res.Epochs[j]
							if o.Err != nil {
								t.Fatalf("terminal %d epoch %d: %v", i, j, o.Err)
							}
							if o.Decision.Handover != exp.Decision.Handover || o.Executed != exp.Executed ||
								o.Decision.Scored != exp.Decision.Scored || o.Decision.Reason != exp.Decision.Reason {
								t.Fatalf("terminal %d epoch %d: columnar %+v/executed=%v ≠ per-report %+v/executed=%v",
									i, j, o.Decision, o.Executed, exp.Decision, exp.Executed)
							}
							if exp.Decision.Scored && math.Abs(o.Decision.Score-exp.Decision.Score) > tc.scoreTol {
								t.Fatalf("terminal %d epoch %d: columnar HD %g drifted from per-report %g",
									i, j, o.Decision.Score, exp.Decision.Score)
							}
						}
					}

					// The grid must actually exercise the extension: the
					// adaptive controller fires somewhere the sweep's high
					// speeds make it, so the equality above is not vacuous.
					if e.Stats().Totals().Handovers == 0 {
						t.Error("adaptive fleet executed no handovers; the threshold schedule was never exercised")
					}
				})
			}
		})
	}
}
