package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzy"
	"repro/internal/handover"
	"repro/internal/sim"
)

// pinReports is the outcome pin's input: the paper scenario grid and the
// trend-drift walks, each run through the sim's default controller and
// interleaved into one stream.  Every pinned configuration decides the
// same reports, so a difference between two hashes is a difference in
// decisions, not in inputs.
func pinReports(t *testing.T) []Report {
	t.Helper()
	speeds := []float64{0, 30, 50}
	var cfgs []sim.Config
	for _, base := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig(), sim.TrendDriftConfig()} {
		base.NWalk = 80
		c, _ := sim.SweepGrid("pin", base, 3, speeds)
		cfgs = append(cfgs, c...)
	}
	streams, _ := simStreams(t, cfgs)
	return InterleaveReports(streams)
}

// ablatedFuzzy is the paper controller on Table 1 without its CSSP = NC
// and BG rules: a report whose CSSP lies wholly in those terms fires no
// rule, so its outcome carries the FLC evaluation error.
func ablatedFuzzy(t *testing.T) func() handover.Algorithm {
	t.Helper()
	var rules fuzzy.RuleBase
	for _, r := range core.NewFRB().Rules {
		if term := r.If[0].Term; term == core.CsspSM || term == core.CsspLC {
			rules.Add(r)
		}
	}
	flc, err := core.NewFLCWithOptions(core.FLCOptions{Rules: &rules})
	if err != nil {
		t.Fatal(err)
	}
	return func() handover.Algorithm {
		return handover.NewFuzzy(core.NewControllerWithConfig(core.ControllerConfig{FLC: flc}))
	}
}

// TestOutcomeBytesPinned pins the decision bytes of every fuzzy scorer.
// One single-shard engine per configuration decides pinReports, and a
// SHA-256 over each outcome's terminal, seq, handover, scored, reason,
// executed, ping-pong and error text is compared with a literal.  Scores
// stay out of the hash: the FLC tests pin them, and Go may fuse
// multiply-adds on other architectures.  Each configuration must also
// reach the reasons its hash is meant to cover.
func TestOutcomeBytesPinned(t *testing.T) {
	reports := pinReports(t)
	// config selects a scorer the way the CLIs do: the selector's
	// factory, or the engine's default algorithm when it returns none.
	config := func(name string, compiled bool) Config {
		f, err := handover.AlgorithmFactoryFor(name, compiled)
		if err != nil {
			t.Fatal(err)
		}
		if f == nil {
			return Config{Compiled: compiled}
		}
		return Config{AlgorithmFactory: f}
	}
	for _, tc := range []struct {
		name  string
		cfg   Config
		below string // the configuration's below-threshold reason
		errs  bool
		hash  string
	}{
		{"fuzzy/exact", config("fuzzy", false), "FLC-threshold", false,
			"d43e7199c49ba66d73606e9cd9a2c3facd0bc943be2d947a7da6d94d236b49e4"},
		{"fuzzy/compiled", config("fuzzy", true), "FLC-threshold", false,
			"d43e7199c49ba66d73606e9cd9a2c3facd0bc943be2d947a7da6d94d236b49e4"},
		{"adaptive/exact", config("adaptive", false), "below-adaptive-threshold", false,
			"728191e07c0361921ce131766fcf0d3a1ac873d7bae40e0f5ae69a7dc63718be"},
		{"adaptive/compiled", config("adaptive", true), "below-adaptive-threshold", false,
			"728191e07c0361921ce131766fcf0d3a1ac873d7bae40e0f5ae69a7dc63718be"},
		{"trendfuzzy/exact", config("trendfuzzy", false), "below-threshold", false,
			"7a5e7b89e0bc6866040ee43bc55b985dc599bb7cec50bb6cf2fedc55141f729c"},
		{"trendfuzzy/compiled", config("trendfuzzy", true), "below-threshold", false,
			"7a5e7b89e0bc6866040ee43bc55b985dc599bb7cec50bb6cf2fedc55141f729c"},
		{"fuzzy/ablated", Config{AlgorithmFactory: ablatedFuzzy(t)}, "FLC-threshold", true,
			"d267ac30ada10b7d7e343d93282ac9d4cc7f4d22c6bc2a793e9090f9cfb1aecf"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var outs []Outcome
			cfg := tc.cfg
			cfg.Shards, cfg.PingPongWindowKm = 1, sim.DefaultPingPongWindowKm
			cfg.OnDecision = func(o Outcome) { outs = append(outs, o) }
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
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
			if len(outs) != len(reports) {
				t.Fatalf("%d outcomes for %d reports", len(outs), len(reports))
			}
			h := sha256.New()
			seen := map[string]int{}
			errs := 0
			for _, o := range outs {
				msg := ""
				if o.Err != nil {
					msg = o.Err.Error()
					errs++
				}
				d := o.Decision
				fmt.Fprintf(h, "%d %d %t %t %q %t %t %q\n",
					o.Terminal, o.Seq, d.Handover, d.Scored, d.Reason, o.Executed, o.PingPong, msg)
				seen[d.Reason]++
			}
			got := hex.EncodeToString(h.Sum(nil))
			for _, r := range []string{tc.below, "POTLC-quality-gate", "PRTLC-confirmation", "execute-handover"} {
				if seen[r] == 0 {
					t.Errorf("no outcome with reason %q (reasons %v); the pin does not cover it", r, seen)
				}
			}
			if (errs > 0) != tc.errs {
				t.Errorf("%d outcomes carry an error, want errors %v", errs, tc.errs)
			}
			if got != tc.hash {
				t.Errorf("outcome hash %s, want %s (%d outcomes, reasons %v, %d errors)", got, tc.hash, len(outs), seen, errs)
			}
		})
	}
}
