// Package sim drives end-to-end handover simulations: it generates a
// mobility trajectory, samples measurement epochs along it, feeds each epoch
// through a handover algorithm, executes the resulting handovers and records
// every trace the paper's tables and figures need.
package sim

import (
	"fmt"

	"repro/internal/handover"
	"repro/internal/mobility"
)

// Config describes one simulation run.  Zero fields default to the paper's
// Table 2 parameters (see withDefaults).
type Config struct {
	// Seed is the paper's iseed: it determines the walk and any channel
	// randomness.
	Seed int64
	// NWalk is the number of random-walk legs (Table 2: 5 or 10).
	NWalk int
	// CellRadiusKm is the hexagon centre-to-vertex radius (Table 2: 1 or 2).
	CellRadiusKm float64
	// PowerW is the BS transmission power (Table 2: 10 or 20).
	PowerW float64
	// Rings is the number of base-station rings around the origin cell.
	Rings int
	// SampleSpacingKm is the distance between measurement epochs.  The
	// default (0.6 km) equals the paper's mean walk-leg length: Tables 3-4
	// report one measurement per walk step (Table 3's six columns are the
	// six waypoints of the 5-leg iseed = 100 walk), so the CSSP deltas of
	// the paper correspond to per-leg sampling.
	SampleSpacingKm float64
	// SpeedKmh sets the paper's −2 dB / 10 km/h penalty on SSN.
	SpeedKmh float64
	// ShadowSigmaDB enables log-normal shadow fading when positive.
	ShadowSigmaDB float64
	// ShadowDecorrKm is the Gudmundson decorrelation distance (0 =
	// uncorrelated samples when shadowing is enabled).
	ShadowDecorrKm float64
	// ShadowSeed seeds the shadowing process independently of the walk
	// (0 derives it from Seed).  Replica averaging — the paper's "10 times
	// simulations" — varies ShadowSeed while keeping the walk fixed.
	ShadowSeed int64
	// Walk overrides the mobility model (nil: the paper's random walk with
	// NWalk legs starting at the origin).
	Walk mobility.Model
	// Algorithm overrides the handover algorithm (nil: the paper's fuzzy
	// controller with default configuration).  Algorithms may keep per-run
	// state, so one instance must not be shared by configs that run
	// concurrently — for fleets, use AlgorithmFactory instead.
	Algorithm handover.Algorithm
	// AlgorithmFactory builds a fresh algorithm per run when Algorithm is
	// nil; it must be safe to call from multiple goroutines.  This is the
	// fleet-safe way to sweep a custom algorithm (each RunFleet worker gets
	// its own instance).
	AlgorithmFactory func() handover.Algorithm
	// PingPongWindowKm is the return window of the ping-pong detector.
	PingPongWindowKm float64
	// OutageFloorDB is the outage threshold for link-quality accounting.
	OutageFloorDB float64
}

// Paper defaults (Table 2 and §5).
const (
	DefaultNWalk            = 5
	DefaultCellRadiusKm     = 2.0
	DefaultPowerW           = 10.0
	DefaultRings            = 2
	DefaultSampleSpacingKm  = 0.6
	DefaultPingPongWindowKm = 1.0
	DefaultOutageFloorDB    = -105.0
)

// withDefaults fills zero fields with the paper's parameters.
func (c Config) withDefaults() Config {
	if c.NWalk == 0 {
		c.NWalk = DefaultNWalk
	}
	if c.CellRadiusKm == 0 {
		c.CellRadiusKm = DefaultCellRadiusKm
	}
	if c.PowerW == 0 {
		c.PowerW = DefaultPowerW
	}
	if c.Rings == 0 {
		c.Rings = DefaultRings
	}
	if c.SampleSpacingKm == 0 {
		c.SampleSpacingKm = DefaultSampleSpacingKm
	}
	if c.PingPongWindowKm == 0 {
		c.PingPongWindowKm = DefaultPingPongWindowKm
	}
	if c.OutageFloorDB == 0 {
		c.OutageFloorDB = DefaultOutageFloorDB
	}
	return c
}

// Validate rejects physically meaningless configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.NWalk < 1:
		return fmt.Errorf("sim: NWalk %d < 1", c.NWalk)
	case c.CellRadiusKm <= 0:
		return fmt.Errorf("sim: cell radius %g ≤ 0", c.CellRadiusKm)
	case c.PowerW <= 0:
		return fmt.Errorf("sim: power %g ≤ 0", c.PowerW)
	case c.Rings < 1:
		return fmt.Errorf("sim: rings %d < 1 (need neighbors)", c.Rings)
	case c.SampleSpacingKm <= 0:
		return fmt.Errorf("sim: sample spacing %g ≤ 0", c.SampleSpacingKm)
	case c.SpeedKmh < 0:
		return fmt.Errorf("sim: speed %g < 0", c.SpeedKmh)
	case c.ShadowSigmaDB < 0:
		return fmt.Errorf("sim: shadow sigma %g < 0", c.ShadowSigmaDB)
	}
	return nil
}

// PaperBoundaryConfig is the iseed = 100 scenario: R = 1 km cells, 5 walk
// legs — the walk class whose terminal hovers on a 3-cell boundary (Fig. 7,
// Table 3).  DESIGN.md §3 explains the radius/seed pairing.
func PaperBoundaryConfig() Config {
	return Config{
		Seed:         100,
		NWalk:        5,
		CellRadiusKm: 1,
		PowerW:       10,
	}
}

// PaperCrossingConfig is the iseed = 200 scenario: R = 2 km cells, 10 walk
// legs — the walk class that moves deep into neighbor cells (Fig. 8,
// Table 4).
func PaperCrossingConfig() Config {
	return Config{
		Seed:         200,
		NWalk:        10,
		CellRadiusKm: 2,
		PowerW:       10,
	}
}

// TrendDriftConfig is the SSN-trend scenario family: the crossing walk
// class with a moving terminal and correlated shadow fading, so the
// neighbour signal drifts on a scale the per-epoch paper inputs cannot
// see — the regime where a trend antecedent (the fourth input of
// handover.NewTrendFuzzy) changes decisions.  Replica sweeps vary ShadowSeed like
// every other family.
func TrendDriftConfig() Config {
	return Config{
		Seed:           300,
		NWalk:          10,
		CellRadiusKm:   2,
		PowerW:         10,
		SpeedKmh:       30,
		ShadowSigmaDB:  4,
		ShadowDecorrKm: 0.3,
	}
}
