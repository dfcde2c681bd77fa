package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rng"
)

// RunFleet executes many independent simulation configs across a worker
// pool and returns their results in config order: results[i] is the run of
// cfgs[i], regardless of which worker finished it or when.  Each run draws
// every random stream from its own config seed (rng.New(cfg.Seed), plus the
// derived shadowing sub-stream), so a fleet run is bit-identical to running
// the same configs sequentially with Run — the worker count only changes
// wall-clock time, never results.
//
// workers < 1 selects GOMAXPROCS; the pool never exceeds len(cfgs).
//
// Configs must not share mutable state: a non-nil Config.Algorithm or
// Config.Walk that keeps internal state (Fuzzy's scratch, HysteresisTTT's
// streak counter, …) must appear in at most one config.  Leaving Algorithm
// nil — each run then builds its own fuzzy algorithm instance over the
// process-wide paper FLC, which is immutable — is always safe.
//
// If any run fails, RunFleet still completes the remaining configs and
// returns the partially filled results slice together with the error of the
// lowest-indexed failure (failed slots are nil).
func RunFleet(cfgs []Config, workers int) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	if len(cfgs) == 0 {
		return results, nil
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	errs := make([]error, len(cfgs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				results[i], errs[i] = Run(cfgs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sim: fleet config %d (seed %d): %w", i, cfgs[i].Seed, err)
		}
	}
	return results, nil
}

// FleetPoint identifies one cell of a sweep grid: a scenario base config
// evaluated at one (seed replica, speed) combination.
type FleetPoint struct {
	// Label names the scenario family (e.g. "boundary", "crossing").
	Label string
	// BaseSeed is the family's anchor seed; Replica the sub-stream index
	// (0 = the base seed itself).
	BaseSeed int64
	Replica  int
	// SpeedKmh is the terminal speed of this grid cell.
	SpeedKmh float64
}

// String implements fmt.Stringer.
func (p FleetPoint) String() string {
	return fmt.Sprintf("%s seed=%d r%d v=%g", p.Label, p.BaseSeed, p.Replica, p.SpeedKmh)
}

// fleetShadowOffset separates the shadow-fading replica sub-streams from
// the walk replica sub-streams of the same base seed: replica k's walk uses
// DeriveSeed(seed, k) while its shadowing uses DeriveSeed(·, offset+k), so
// no two fleet cells (and no walk/shadow pair) ever consume the same
// generator stream.
const fleetShadowOffset = 1 << 20

// SweepGrid expands one labelled base config into the cross product of seed
// replicas × speeds, in deterministic row-major order (replica outermost).
// Replica 0 keeps the base seed; replica k > 0 runs the derived sub-stream
// rng.DeriveSeed(base.Seed, k) — the paper's "10 times simulations"
// protocol scaled out.  Every cell also gets its own shadow-fading
// sub-stream (derived from base.ShadowSeed when set, the base seed
// otherwise), so shadowed replicas are statistically independent.  The
// returned slices are parallel: cfgs[i] is the config of points[i].
//
// The expanded configs never carry base.Algorithm: sharing one algorithm
// instance across concurrent runs would race on its per-run state (see
// RunFleet).  To sweep a non-default algorithm, set base.AlgorithmFactory —
// it is copied into every cell and each run builds its own instance.
func SweepGrid(label string, base Config, replicas int, speeds []float64) (cfgs []Config, points []FleetPoint) {
	if replicas < 1 {
		replicas = 1
	}
	if len(speeds) == 0 {
		speeds = []float64{base.SpeedKmh}
	}
	shadowBase := base.ShadowSeed
	if shadowBase == 0 {
		shadowBase = base.Seed
	}
	cfgs = make([]Config, 0, replicas*len(speeds))
	points = make([]FleetPoint, 0, replicas*len(speeds))
	for k := 0; k < replicas; k++ {
		seed := base.Seed
		if k > 0 {
			seed = rng.DeriveSeed(base.Seed, k)
		}
		for _, v := range speeds {
			cfg := base
			cfg.Algorithm = nil
			cfg.Seed = seed
			cfg.ShadowSeed = rng.DeriveSeed(shadowBase, fleetShadowOffset+k)
			cfg.SpeedKmh = v
			cfgs = append(cfgs, cfg)
			points = append(points, FleetPoint{
				Label:    label,
				BaseSeed: base.Seed,
				Replica:  k,
				SpeedKmh: v,
			})
		}
	}
	return cfgs, points
}
