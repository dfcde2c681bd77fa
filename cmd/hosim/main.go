// Command hosim runs one handover simulation and prints the run summary:
// the walk, every measurement epoch, the decisions taken and the handover /
// ping-pong accounting.
//
// Usage examples:
//
//	hosim -seed 200 -radius 2 -nwalk 10          # raw run of one seed
//	hosim -scenario crossing                     # resolved paper scenario
//	hosim -scenario crossing -algo trendfuzzy -compiled
//	hosim -scenario boundary -speed 30 -algo hysteresis -margin 4
//	hosim -print-config                          # dump the Table 2 defaults
//
// -algo fuzzy, adaptive and trendfuzzy resolve through the same selector
// as hoserve, hocluster, hoload and hofleet (fuzzyho.ServeAlgorithmFactory),
// and -compiled puts them on the shared compiled control surface; the
// baselines (rss, hysteresis, ttt, distance) have no compiled form.
package main

import (
	"flag"
	"fmt"
	"os"

	fuzzyho "repro"
)

func main() {
	var (
		seed      = flag.Int64("seed", 200, "random seed (the paper's iseed)")
		radius    = flag.Float64("radius", 0, "cell radius in km (0 = default 2)")
		power     = flag.Float64("power", 0, "transmit power in W (0 = default 10)")
		nwalk     = flag.Int("nwalk", 0, "number of walk legs (0 = default 5)")
		speed     = flag.Float64("speed", 0, "terminal speed in km/h")
		spacing   = flag.Float64("spacing", 0, "measurement spacing in km (0 = default 0.6)")
		shadow    = flag.Float64("shadow", 0, "shadow-fading sigma in dB (0 = off)")
		decorr    = flag.Float64("decorr", 0.05, "shadowing decorrelation distance in km")
		algoName  = flag.String("algo", "fuzzy", "algorithm: fuzzy (the paper controller), adaptive (speed-adaptive threshold), trendfuzzy (SSN-trend antecedent), rss, hysteresis, ttt or distance")
		compiled  = flag.Bool("compiled", false, "decide on the compiled control surface (fuzzy, adaptive and trendfuzzy only)")
		margin    = flag.Float64("margin", 4, "hysteresis margin in dB (for -algo hysteresis/ttt)")
		tttEpochs = flag.Int("ttt", 2, "time-to-trigger epochs (for -algo ttt)")
		rssFloor  = flag.Float64("rss-floor", -85, "serving threshold in dB (for -algo rss)")
		scenario  = flag.String("scenario", "", "resolve a paper scenario first: boundary or crossing")
		verbose   = flag.Bool("v", false, "print every measurement epoch")
		printCfg  = flag.Bool("print-config", false, "print the Table 2 parameter sheet and exit")
	)
	flag.Parse()

	if *printCfg {
		exp, err := fuzzyho.Table2()
		if err != nil {
			fatal(err)
		}
		fmt.Print(exp.Text)
		return
	}

	algo, err := buildAlgorithm(*algoName, *compiled, *margin, *tttEpochs, *rssFloor)
	if err != nil {
		fatal(err)
	}
	cfg := fuzzyho.SimConfig{
		Seed:            *seed,
		CellRadiusKm:    *radius,
		PowerW:          *power,
		NWalk:           *nwalk,
		SpeedKmh:        *speed,
		SampleSpacingKm: *spacing,
		ShadowSigmaDB:   *shadow,
		ShadowDecorrKm:  *decorr,
	}
	switch *scenario {
	case "":
		// Run the raw seed.
	case "boundary", "crossing":
		base := fuzzyho.PaperCrossingConfig()
		if *scenario == "boundary" {
			base = fuzzyho.PaperBoundaryConfig()
		}
		base.SpeedKmh = *speed
		resolved, sr, err := fuzzyho.ResolveScenario(base, 0)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("resolved %s scenario: iseed %d replica %d (seed %d), cells %v\n",
			*scenario, sr.BaseSeed, sr.Replica, sr.Seed, sr.Cells)
		cfg = resolved
		cfg.ShadowSigmaDB = *shadow
		cfg.ShadowDecorrKm = *decorr
	default:
		fatal(fmt.Errorf("unknown scenario %q (want boundary or crossing)", *scenario))
	}

	cfg.Algorithm = algo

	res, err := fuzzyho.RunSim(cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("walk: %d legs, %.2f km, cells %v\n",
		len(res.Path.Points)-1, res.Path.Length(), res.GeoCells)
	fmt.Printf("algorithm: %s, speed %g km/h\n", algo.Name(), cfg.SpeedKmh)
	if *verbose {
		fmt.Println("epochs:")
		for _, e := range res.Epochs {
			exec := " "
			if e.Executed {
				exec = "H"
			}
			fmt.Printf("  %s #%2d %5.2f km  geo=%v srv=%v srvDB=%7.2f cssp=%6.2f ssn=%7.2f dmb=%5.2f  %s\n",
				exec, e.Index, e.WalkedKm, e.GeoCell, e.Serving,
				e.ServingDB, e.CSSPdB, e.NeighborDB, e.DMBNorm, e.Decision.Reason)
		}
	}
	fmt.Printf("handovers: %d (ping-pong %d), outage %.3f\n",
		res.HandoverCount(), res.PingPongCount, res.OutageFraction)
	for _, ev := range res.Events {
		fmt.Printf("  %v\n", ev)
	}
	fmt.Printf("serving sequence: %v\n", res.ServingCells)
}

// buildAlgorithm resolves -algo: the fuzzy configurations through the
// shared selector, the baselines here.  A baseline has no compiled form,
// so -compiled with one is an error rather than silently ignored.
func buildAlgorithm(name string, compiled bool, margin float64, ttt int, rssFloor float64) (fuzzyho.Algorithm, error) {
	var baseline fuzzyho.Algorithm
	switch name {
	case "fuzzy", "adaptive", "trendfuzzy":
		factory, err := fuzzyho.ServeAlgorithmFactory(name, compiled)
		if err != nil {
			return nil, err
		}
		return factory(), nil
	case "rss":
		baseline = fuzzyho.AbsoluteThreshold{ThresholdDB: rssFloor}
	case "hysteresis":
		baseline = fuzzyho.Hysteresis{MarginDB: margin}
	case "ttt":
		baseline = fuzzyho.NewHysteresisTTT(margin, ttt)
	case "distance":
		baseline = fuzzyho.DistanceBased{TriggerNorm: 1.0}
	default:
		return nil, fmt.Errorf("unknown algorithm %q", name)
	}
	if compiled {
		return nil, fmt.Errorf("-compiled needs a fuzzy algorithm (fuzzy, adaptive or trendfuzzy), not %q", name)
	}
	return baseline, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hosim:", err)
	os.Exit(1)
}
