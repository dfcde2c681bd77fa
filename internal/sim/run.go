package sim

import (
	"fmt"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Epoch is one measurement instant with the algorithm's verdict attached.
type Epoch struct {
	Index int
	cell.Measurement
	// Decision is the algorithm's verdict and Executed whether the
	// handover was carried out at this epoch.
	Decision handover.Decision
	Executed bool
	// GeoCell is the cell geometrically containing the terminal —
	// independent of the serving attachment, used for walk classification.
	GeoCell hexgrid.Cell
}

// Result is a completed simulation run.
type Result struct {
	Config  Config
	Path    mobility.Path
	Network *cell.Network
	Epochs  []Epoch
	// Events lists executed handovers with ping-pong flags applied.
	Events []metrics.HandoverEvent
	// PingPongCount is the number of flagged returns.
	PingPongCount int
	// OutageFraction is the share of epochs with serving power below the
	// configured floor.
	OutageFraction float64
	// GeoCells is the deduplicated sequence of cells the walk passes
	// through — the "(0,0)→(2,-1)→…" notation of Figs. 7-8.
	GeoCells []hexgrid.Cell
	// ServingCells is the deduplicated attachment sequence (changes exactly
	// at executed handovers).
	ServingCells []hexgrid.Cell
}

// HandoverCount returns the number of executed handovers.
func (r *Result) HandoverCount() int { return len(r.Events) }

// Run executes one simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	lattice := hexgrid.NewLattice(cfg.CellRadiusKm)
	dipole := radio.NewDipole(cfg.PowerW)
	network, err := cell.NewNetwork(lattice, dipole, cfg.Rings)
	if err != nil {
		return nil, err
	}
	if cfg.ShadowSigmaDB > 0 {
		shadowSeed := cfg.ShadowSeed
		if shadowSeed == 0 {
			shadowSeed = rng.DeriveSeed(cfg.Seed, 1)
		}
		network.SetShadowing(radio.NewShadowing(
			cfg.ShadowSigmaDB, cfg.ShadowDecorrKm, shadowSeed))
	}

	walk := cfg.Walk
	if walk == nil {
		walk = mobility.DefaultRandomWalk(cfg.NWalk)
	}
	path := walk.Generate(rng.New(cfg.Seed))
	if err := path.Validate(); err != nil {
		return nil, err
	}

	algo := cfg.Algorithm
	if algo == nil && cfg.AlgorithmFactory != nil {
		algo = cfg.AlgorithmFactory()
	}
	if algo == nil {
		algo = handover.NewFuzzy(nil)
	}
	algo.Reset()

	start := lattice.ContainingCell(path.Points[0])
	if !network.Has(start) {
		return nil, fmt.Errorf("sim: walk starts outside the network at cell %v", start)
	}
	measurer, err := cell.NewMeasurer(network, start, cfg.SpeedKmh)
	if err != nil {
		return nil, err
	}

	detector := metrics.NewPingPongDetector(cfg.PingPongWindowKm)
	outage := &metrics.OutageTracker{FloorDB: cfg.OutageFloorDB}

	samples := path.SampleEvery(cfg.SampleSpacingKm)
	res := &Result{
		Config:  cfg,
		Path:    path,
		Network: network,
		Epochs:  make([]Epoch, 0, len(samples)),
	}
	for i, s := range samples {
		prevDB, havePrev := measurer.PrevServingDB()
		meas, err := measurer.Measure(s.Pos, s.WalkedKm)
		if err != nil {
			return nil, err
		}
		dec, err := algo.Decide(meas, prevDB, havePrev)
		if err != nil {
			return nil, err
		}
		executed := false
		if dec.Handover {
			from := measurer.Serving()
			if err := measurer.Handover(meas.Neighbor); err != nil {
				return nil, err
			}
			algo.Reset()
			executed = true
			ev := metrics.HandoverEvent{
				Epoch:    i,
				WalkedKm: s.WalkedKm,
				From:     from,
				To:       meas.Neighbor,
				Score:    dec.Score,
			}
			ev.PingPong = detector.Observe(ev)
			res.Events = append(res.Events, ev)
		}
		outage.Observe(meas.ServingDB)
		res.Epochs = append(res.Epochs, Epoch{
			Index:       i,
			Measurement: meas,
			Decision:    dec,
			Executed:    executed,
			GeoCell:     lattice.ContainingCell(s.Pos),
		})
	}
	res.PingPongCount = detector.Count()
	res.OutageFraction = outage.Fraction()
	res.GeoCells = dedupCells(res.Epochs, func(e Epoch) hexgrid.Cell { return e.GeoCell })
	res.ServingCells = dedupCells(res.Epochs, func(e Epoch) hexgrid.Cell { return e.Serving })
	return res, nil
}

func dedupCells(epochs []Epoch, get func(Epoch) hexgrid.Cell) []hexgrid.Cell {
	var out []hexgrid.Cell
	for _, e := range epochs {
		c := get(e)
		if len(out) == 0 || out[len(out)-1] != c {
			out = append(out, c)
		}
	}
	return out
}

// PowerTrace returns the received power from one base station along the
// walk, on the epoch grid — the series plotted in the paper's Figs. 9-13.
// The series uses the deterministic channel (no shadowing), matching the
// paper's smooth curves.
func (r *Result) PowerTrace(c hexgrid.Cell) (trace.Series, error) {
	if !r.Network.Has(c) {
		return trace.Series{}, fmt.Errorf("sim: no base station at %v", c)
	}
	dipole := radio.NewDipole(r.Config.PowerW)
	s := trace.Series{
		Name: fmt.Sprintf("BS%v", c),
		X:    make([]float64, len(r.Epochs)),
		Y:    make([]float64, len(r.Epochs)),
	}
	lattice := r.Network.Lattice()
	for i, e := range r.Epochs {
		s.X[i] = e.WalkedKm
		s.Y[i] = dipole.ReceivedPowerDB(lattice.DistanceToCenter(c, e.Pos))
	}
	return s, nil
}

// HDTrace returns the fuzzy decision output per epoch (NaN-free: epochs the
// POTLC short-circuited carry score 0).
func (r *Result) HDTrace() trace.Series {
	s := trace.Series{
		Name: "HD",
		X:    make([]float64, len(r.Epochs)),
		Y:    make([]float64, len(r.Epochs)),
	}
	for i, e := range r.Epochs {
		s.X[i] = e.WalkedKm
		if e.Decision.Scored {
			s.Y[i] = e.Decision.Score
		}
	}
	return s
}

// TopForeignCells returns the non-start cells the walk spends the most
// epochs in, most-visited first — the "neighbor BS" curves of Figs. 10-11.
func (r *Result) TopForeignCells(n int) []hexgrid.Cell {
	if len(r.Epochs) == 0 || n <= 0 {
		return nil
	}
	start := r.Epochs[0].GeoCell
	counts := make(map[hexgrid.Cell]int)
	for _, e := range r.Epochs {
		if e.GeoCell != start {
			counts[e.GeoCell]++
		}
	}
	cells := make([]hexgrid.Cell, 0, len(counts))
	for c := range counts {
		cells = append(cells, c)
	}
	// Sort by count descending, ties by label for determinism.
	for i := 1; i < len(cells); i++ {
		for j := i; j > 0; j-- {
			a, b := cells[j-1], cells[j]
			if counts[b] > counts[a] || (counts[b] == counts[a] && (b.I < a.I || (b.I == a.I && b.J < a.J))) {
				cells[j-1], cells[j] = b, a
			}
		}
	}
	if len(cells) > n {
		cells = cells[:n]
	}
	return cells
}
