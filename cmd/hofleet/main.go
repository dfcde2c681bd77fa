// Command hofleet runs a fleet of handover simulations in parallel: it
// expands scenario × seed-replica × speed grids into independent configs,
// shards them across a worker pool (sim.RunFleet) and prints one summary
// row per run plus aggregate throughput.  The fleet is deterministic: every
// run is seeded from its own config, so -workers only changes wall-clock
// time, never a single result.
//
// Usage examples:
//
//	hofleet                                   # both paper scenarios, 0-50 km/h
//	hofleet -scenario crossing -replicas 10   # 10 crossing sub-streams
//	hofleet -speeds 0,25,50 -workers 4
//	hofleet -scenario boundary -resolve       # resolved paper walk (slower start)
//	hofleet -shadow 6 -replicas 20            # shadow-fading Monte-Carlo fleet
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	fuzzyho "repro"
)

func main() {
	var (
		scenario = flag.String("scenario", "both", "scenario family: boundary, crossing or both")
		speedsCS = flag.String("speeds", "0,10,20,30,40,50", "comma-separated terminal speeds in km/h")
		replicas = flag.Int("replicas", 1, "seed sub-streams per scenario (replica 0 = base seed)")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "worker goroutines")
		shadow   = flag.Float64("shadow", 0, "shadow-fading sigma in dB (0 = off)")
		decorr   = flag.Float64("decorr", 0.05, "shadowing decorrelation distance in km")
		resolve  = flag.Bool("resolve", false, "resolve the paper's representative walks first (slower startup)")
		compiled = flag.Bool("compiled", false, "run the FLC on the compiled control surface (shared exact kernel)")
		verbose  = flag.Bool("v", false, "print one row per run instead of per-scenario aggregates")
	)
	flag.Parse()

	speeds, err := fuzzyho.ParseSpeeds(*speedsCS)
	if err != nil {
		fatal(err)
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be ≥ 1, got %d", *workers))
	}
	if *replicas < 1 {
		fatal(fmt.Errorf("-replicas must be ≥ 1, got %d", *replicas))
	}
	if *shadow < 0 {
		fatal(fmt.Errorf("-shadow must be ≥ 0 dB, got %g", *shadow))
	}
	if *decorr < 0 {
		fatal(fmt.Errorf("-decorr must be ≥ 0 km, got %g", *decorr))
	}

	bases, err := baseConfigs(*scenario, *resolve)
	if err != nil {
		fatal(err)
	}
	factory, err := fuzzyho.ServeAlgorithmFactory("fuzzy", *compiled)
	if err != nil {
		fatal(err)
	}

	var cfgs []fuzzyho.SimConfig
	var points []fuzzyho.FleetPoint
	for _, b := range bases {
		b.cfg.ShadowSigmaDB = *shadow
		b.cfg.ShadowDecorrKm = *decorr
		b.cfg.AlgorithmFactory = factory
		c, p := fuzzyho.SweepGrid(b.label, b.cfg, *replicas, speeds)
		cfgs = append(cfgs, c...)
		points = append(points, p...)
	}

	fmt.Printf("fleet: %d runs (%d scenario(s) × %d replica(s) × %d speed(s)), %d workers\n",
		len(cfgs), len(bases), *replicas, len(speeds), *workers)

	start := time.Now()
	results, err := fuzzyho.RunFleet(cfgs, *workers)
	elapsed := time.Since(start)
	if err != nil {
		fatal(err)
	}

	type agg struct {
		runs, handovers, pingpong, epochs int
		outage                            float64
	}
	aggs := make(map[string]*agg)
	order := []string{}
	if *verbose {
		fmt.Printf("%-34s %8s %9s %8s %7s\n", "run", "epochs", "handovers", "pingpong", "outage")
	}
	for i, r := range results {
		p := points[i]
		if *verbose {
			fmt.Printf("%-34s %8d %9d %8d %7.3f\n",
				p.String(), len(r.Epochs), r.HandoverCount(), r.PingPongCount, r.OutageFraction)
		}
		a, ok := aggs[p.Label]
		if !ok {
			a = &agg{}
			aggs[p.Label] = a
			order = append(order, p.Label)
		}
		a.runs++
		a.handovers += r.HandoverCount()
		a.pingpong += r.PingPongCount
		a.epochs += len(r.Epochs)
		a.outage += r.OutageFraction
	}
	totalEpochs := 0
	fmt.Printf("%-10s %6s %8s %11s %10s %12s\n",
		"scenario", "runs", "epochs", "handovers", "pingpong", "mean outage")
	for _, label := range order {
		a := aggs[label]
		totalEpochs += a.epochs
		fmt.Printf("%-10s %6d %8d %11d %10d %12.3f\n",
			label, a.runs, a.epochs, a.handovers, a.pingpong, a.outage/float64(a.runs))
	}
	fmt.Printf("wall %v, %.0f epochs/sec, %.1f runs/sec\n",
		elapsed.Round(time.Millisecond),
		float64(totalEpochs)/elapsed.Seconds(),
		float64(len(results))/elapsed.Seconds())
}

type labelledConfig struct {
	label string
	cfg   fuzzyho.SimConfig
}

// baseConfigs returns the scenario anchor configs, optionally resolved to
// the paper's representative walks (sub-stream search; slower startup but
// reproduces the Table 3/4 walk classes exactly).
func baseConfigs(scenario string, resolve bool) ([]labelledConfig, error) {
	build := func(label string, base fuzzyho.SimConfig) (labelledConfig, error) {
		if resolve {
			resolved, sr, err := fuzzyho.ResolveScenario(base, 0)
			if err != nil {
				return labelledConfig{}, err
			}
			fmt.Printf("resolved %s scenario: iseed %d replica %d (seed %d)\n",
				label, sr.BaseSeed, sr.Replica, sr.Seed)
			return labelledConfig{label: label, cfg: resolved}, nil
		}
		return labelledConfig{label: label, cfg: base}, nil
	}
	switch scenario {
	case "boundary":
		b, err := build("boundary", fuzzyho.PaperBoundaryConfig())
		if err != nil {
			return nil, err
		}
		return []labelledConfig{b}, nil
	case "crossing":
		c, err := build("crossing", fuzzyho.PaperCrossingConfig())
		if err != nil {
			return nil, err
		}
		return []labelledConfig{c}, nil
	case "both", "":
		b, err := build("boundary", fuzzyho.PaperBoundaryConfig())
		if err != nil {
			return nil, err
		}
		c, err := build("crossing", fuzzyho.PaperCrossingConfig())
		if err != nil {
			return nil, err
		}
		return []labelledConfig{b, c}, nil
	default:
		return nil, fmt.Errorf("unknown scenario %q (want boundary, crossing or both)", scenario)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hofleet:", err)
	os.Exit(1)
}
