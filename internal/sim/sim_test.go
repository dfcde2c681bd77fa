package sim

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"fmt"
	"repro/internal/handover"
	"repro/internal/hexgrid"

	"repro/internal/core"
	"repro/internal/mobility"
)

// corridorConfig is a controlled scenario: a straight line from the origin
// BS to the centre of neighbor (2,-1) at R = 2 km — one unambiguous deep
// crossing.
func corridorConfig() Config {
	lattice := hexgrid.NewLattice(2)
	return Config{
		Seed:         1,
		CellRadiusKm: 2,
		Walk:         mobility.Line(hexgrid.Vec{}, lattice.Center(hexgrid.Cell{I: 2, J: -1})),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero config (all defaults) rejected: %v", err)
	}
	bad := []Config{
		{NWalk: -1},
		{CellRadiusKm: -2},
		{PowerW: -5},
		{Rings: -1},
		{SampleSpacingKm: -0.1},
		{SpeedKmh: -10},
		{ShadowSigmaDB: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestPaperConfigs(t *testing.T) {
	b := PaperBoundaryConfig()
	if b.Seed != 100 || b.CellRadiusKm != 1 || b.NWalk != 5 {
		t.Errorf("boundary config = %+v", b)
	}
	c := PaperCrossingConfig()
	if c.Seed != 200 || c.CellRadiusKm != 2 || c.NWalk != 10 {
		t.Errorf("crossing config = %+v", c)
	}
}

func TestRunCorridorHandsOverOnce(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoverCount() != 1 {
		t.Fatalf("corridor handovers = %d, want 1; events: %v", res.HandoverCount(), res.Events)
	}
	ev := res.Events[0]
	if ev.From != (hexgrid.Cell{}) || ev.To != (hexgrid.Cell{I: 2, J: -1}) {
		t.Errorf("handover %v, want (0,0) -> (2,-1)", ev)
	}
	if ev.Score <= 0.7 {
		t.Errorf("handover score %g, want > 0.7", ev.Score)
	}
	if res.PingPongCount != 0 {
		t.Error("corridor crossing flagged as ping-pong")
	}
	// The handover must happen after the geometric boundary (1.73 km) but
	// before the corridor ends (3.46 km) — neither too early nor absurdly
	// late ("a timely handover algorithm", §2).
	if ev.WalkedKm < 1.73 || ev.WalkedKm > 3.2 {
		t.Errorf("handover at %.2f km, want within (1.73, 3.2)", ev.WalkedKm)
	}
	// Attachment sequence is exactly origin → neighbor.
	want := []hexgrid.Cell{{}, {I: 2, J: -1}}
	if len(res.ServingCells) != 2 || res.ServingCells[0] != want[0] || res.ServingCells[1] != want[1] {
		t.Errorf("serving sequence = %v", res.ServingCells)
	}
}

func TestRunEpochInvariants(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) < 5 {
		t.Fatalf("too few epochs: %d", len(res.Epochs))
	}
	for i, e := range res.Epochs {
		if e.Index != i {
			t.Fatalf("epoch %d has index %d", i, e.Index)
		}
		if i > 0 && e.WalkedKm <= res.Epochs[i-1].WalkedKm {
			t.Fatal("walked distance not increasing")
		}
		if e.DMBNorm < 0 || math.IsNaN(e.ServingDB) || math.IsNaN(e.NeighborDB) {
			t.Fatalf("epoch %d has invalid measurement %+v", i, e.Measurement)
		}
		if e.Serving == e.Neighbor {
			t.Fatalf("epoch %d: neighbor equals serving", i)
		}
	}
}

func TestRunWalkStartingOutsideNetworkFails(t *testing.T) {
	cfg := corridorConfig()
	cfg.Walk = mobility.Line(hexgrid.Vec{X: 100}, hexgrid.Vec{X: 101})
	if _, err := Run(cfg); err == nil {
		t.Fatal("walk outside the network accepted")
	}
}

func TestRunBaselineAlgorithms(t *testing.T) {
	for _, algo := range []handover.Algorithm{
		handover.AbsoluteThreshold{ThresholdDB: -85},
		handover.Hysteresis{MarginDB: 4},
		handover.NewHysteresisTTT(4, 2),
		handover.DistanceBased{TriggerNorm: 1.0},
	} {
		cfg := corridorConfig()
		cfg.Algorithm = algo
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", algo.Name(), err)
		}
		if res.HandoverCount() < 1 {
			t.Errorf("%s never handed over on the corridor", algo.Name())
		}
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	cfg := PaperCrossingConfig()
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Epochs) != len(b.Epochs) || a.HandoverCount() != b.HandoverCount() {
		t.Fatal("identical configs produced different runs")
	}
	for i := range a.Epochs {
		if a.Epochs[i].ServingDB != b.Epochs[i].ServingDB {
			t.Fatal("epoch measurements differ across identical runs")
		}
	}
}

func TestRunWithShadowingDeterministicAndDifferent(t *testing.T) {
	cfg := corridorConfig()
	cfg.ShadowSigmaDB = 6
	cfg.ShadowDecorrKm = 0.05
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Epochs {
		if a.Epochs[i].ServingDB != b.Epochs[i].ServingDB {
			t.Fatal("shadowed run not deterministic per seed")
		}
	}
	plain, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range plain.Epochs {
		if plain.Epochs[i].ServingDB != a.Epochs[i].ServingDB {
			same = false
			break
		}
	}
	if same {
		t.Error("shadowing had no effect on measurements")
	}
}

func TestPowerTrace(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	s, err := res.PowerTrace(hexgrid.Cell{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "BS(0,0)" || len(s.X) != len(res.Epochs) {
		t.Errorf("trace %q with %d points", s.Name, len(s.X))
	}
	// Walking away from the origin BS: power decreases monotonically.
	for i := 1; i < len(s.Y); i++ {
		if s.Y[i] >= s.Y[i-1] {
			t.Fatalf("origin power not decreasing at %d", i)
		}
	}
	// The neighbor trace increases.
	n, err := res.PowerTrace(hexgrid.Cell{I: 2, J: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n.Y[len(n.Y)-1] <= n.Y[0] {
		t.Error("neighbor power not increasing toward its BS")
	}
	if _, err := res.PowerTrace(hexgrid.Cell{I: 99, J: 99}); err == nil {
		t.Error("unknown BS accepted")
	}
}

func TestHDTraceAndTopForeignCells(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	hd := res.HDTrace()
	if len(hd.X) != len(res.Epochs) {
		t.Fatal("HD trace length mismatch")
	}
	maxHD := 0.0
	for _, v := range hd.Y {
		if v < 0 || v > 1 {
			t.Fatalf("HD %g outside [0,1]", v)
		}
		if v > maxHD {
			maxHD = v
		}
	}
	if maxHD <= 0.7 {
		t.Errorf("corridor max HD = %g, want > 0.7", maxHD)
	}
	top := res.TopForeignCells(2)
	if len(top) == 0 || top[0] != (hexgrid.Cell{I: 2, J: -1}) {
		t.Errorf("top foreign cells = %v", top)
	}
	if res.TopForeignCells(0) != nil {
		t.Error("TopForeignCells(0) should be nil")
	}
}

func TestClassifyScriptedPaths(t *testing.T) {
	lattice := hexgrid.NewLattice(2)
	d := lattice.Spacing()
	vertex := hexgrid.Vec{X: 2 * math.Cos(-math.Pi/6), Y: 2 * math.Sin(-math.Pi/6)}

	// Deep crossing: straight to the neighbor centre.
	crossing := mobility.Path{Points: []hexgrid.Vec{{}, {X: d}}}
	if got := ClassifyPath(crossing, lattice); got != ClassCrossing {
		t.Errorf("corridor class = %v, want crossing", got)
	}
	// Hover: out to just beyond the 3-cell vertex and back.
	justPast := vertex.Scale(1.05)
	hover := mobility.Path{Points: []hexgrid.Vec{vertex.Scale(0.7), justPast, vertex.Scale(0.7)}}
	if got := ClassifyPath(hover, lattice); got != ClassBoundaryHover {
		t.Errorf("vertex graze class = %v, want boundary-hover", got)
	}
	// Fully interior: other.
	interior := mobility.Path{Points: []hexgrid.Vec{{}, {X: 0.5}}}
	if got := ClassifyPath(interior, lattice); got != ClassOther {
		t.Errorf("interior class = %v, want other", got)
	}
	if got := ClassifyPath(mobility.Path{}, lattice); got != ClassOther {
		t.Errorf("empty path class = %v", got)
	}
}

func TestNecessaryHandoversSyntheticTriple(t *testing.T) {
	lattice := hexgrid.NewLattice(2)
	right := lattice.Center(hexgrid.Cell{I: 2, J: -1})
	upper := lattice.Center(hexgrid.Cell{I: 1, J: 1})
	path := mobility.Path{Points: []hexgrid.Vec{{}, right, {}, upper}}
	if got := NecessaryHandovers(path, lattice); got != 3 {
		t.Errorf("necessary handovers = %d, want 3", got)
	}
	if got := NecessaryHandovers(mobility.Path{}, lattice); got != 0 {
		t.Errorf("empty path necessary = %d", got)
	}
}

func TestWalkClassString(t *testing.T) {
	for class, want := range map[WalkClass]string{
		ClassOther: "other", ClassBoundaryHover: "boundary-hover", ClassCrossing: "crossing",
	} {
		if got := class.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", class, got, want)
		}
	}
}

func TestFindScenarioSeedNoMatch(t *testing.T) {
	cfg := PaperBoundaryConfig()
	never := func(mobility.Path, *hexgrid.Lattice) bool { return false }
	if _, err := FindScenarioSeed(cfg, 0, 10, never); err == nil {
		t.Fatal("impossible predicate matched")
	}
}

func TestFindScenarioSeedDeterministic(t *testing.T) {
	cfg := PaperBoundaryConfig()
	a, err := FindScenarioSeed(cfg, 0, 1000, MatchClass(ClassBoundaryHover))
	if err != nil {
		t.Fatal(err)
	}
	b, err := FindScenarioSeed(cfg, 0, 1000, MatchClass(ClassBoundaryHover))
	if err != nil {
		t.Fatal(err)
	}
	if a.Replica != b.Replica || a.Seed != b.Seed {
		t.Error("seed search not deterministic")
	}
	if a.Class != ClassBoundaryHover {
		t.Errorf("found class %v", a.Class)
	}
	// fromReplica skips the first hit.
	c, err := FindScenarioSeed(cfg, a.Replica+1, 20000, MatchClass(ClassBoundaryHover))
	if err != nil {
		t.Fatal(err)
	}
	if c.Replica <= a.Replica {
		t.Error("fromReplica not honoured")
	}
}

func TestMeasurementPointSelectors(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	pts := res.BoundaryMeasurementPoints(2, 0.5)
	if len(pts) != 2 {
		t.Fatalf("boundary points = %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Error("points not sorted")
		}
	}
	cross := res.CrossingMeasurementPoints(5)
	if len(cross) != 1 {
		t.Fatalf("crossing points = %v, want exactly 1 on the corridor", cross)
	}
	if res.Epochs[cross[0]].GeoCell == res.Epochs[cross[0]-1].GeoCell {
		t.Error("crossing point does not mark a cell change")
	}
	if got := res.HandoverEpochs(); len(got) != 1 {
		t.Errorf("handover epochs = %v", got)
	}
	te := res.CrossingTableEpochs()
	if len(te) != 2 || te[1] != te[0]+1 {
		t.Errorf("crossing table epochs = %v, want adjacent pair", te)
	}
	be := res.BoundaryTableEpochs(4)
	if len(be) != 4 || be[0] != 0 || be[3] != 3 {
		t.Errorf("boundary table epochs = %v", be)
	}
}

func TestBuildPaperTableSpeedShift(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	epochs := res.CrossingTableEpochs()
	tab, err := BuildPaperTable("Table X", res, nil, epochs, []float64{0, 10, 50})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 || len(tab.Rows[0].Cells) != len(epochs) {
		t.Fatalf("table shape: %d rows × %d cells", len(tab.Rows), len(tab.Rows[0].Cells))
	}
	// Speed shifts SSN by exactly −2 dB per 10 km/h, leaving CSSP and the
	// distance untouched — the paper's Tables 3-4 row structure.
	for c := range tab.Rows[0].Cells {
		v0, v10, v50 := tab.Rows[0].Cells[c], tab.Rows[1].Cells[c], tab.Rows[2].Cells[c]
		if math.Abs(v0.SSNdB-v10.SSNdB-2) > 1e-9 || math.Abs(v0.SSNdB-v50.SSNdB-10) > 1e-9 {
			t.Errorf("column %d SSN shift wrong: %g, %g, %g", c, v0.SSNdB, v10.SSNdB, v50.SSNdB)
		}
		if v0.CSSPdB != v50.CSSPdB || v0.DistanceKm != v50.DistanceKm {
			t.Errorf("column %d CSSP/distance changed with speed", c)
		}
	}
	// Handover column at 0 km/h exceeds the threshold on the corridor.
	if tab.Rows[0].Cells[1].OutputHD <= tab.Threshold {
		t.Errorf("crossing column output = %g, want > %g", tab.Rows[0].Cells[1].OutputHD, tab.Threshold)
	}
	if tab.MaxOutput() < tab.MinOutput() {
		t.Error("max < min")
	}
	s := tab.String()
	for _, want := range []string{"Table X", "CSSP BS", "Neighbor BS", "Distance", "System Output", "Speed 50"} {
		if !strings.Contains(s, want) {
			t.Errorf("table string missing %q", want)
		}
	}
}

// TestBuildPaperTableSharesFLC: a nil FLC selects the process-wide paper
// FLC — the tables equal ones built with an explicit fresh paper FLC, and
// building one does not repeat the FLC's own construction.
func TestBuildPaperTableSharesFLC(t *testing.T) {
	cfg := corridorConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochs, speeds := res.CrossingTableEpochs(), []float64{0, 10, 50}
	build := func(flc *core.FLC) *PaperTable {
		tab, err := BuildPaperTable("t", res, flc, epochs, speeds)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	if got, want := build(nil), build(core.NewFLC()); !reflect.DeepEqual(got, want) {
		t.Errorf("nil-FLC table %+v differs from the paper FLC's %+v", got, want)
	}
	averaged := func(flc *core.FLC) *PaperTable {
		tab, err := BuildAveragedPaperTable("t", cfg, flc, epochs, speeds, 3, 4, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		return tab
	}
	if got, want := averaged(nil), averaged(core.NewFLC()); !reflect.DeepEqual(got, want) {
		t.Errorf("nil-FLC averaged table %+v differs from the paper FLC's %+v", got, want)
	}
	// Building a paper FLC alone takes about 500 allocations.
	if n := testing.AllocsPerRun(20, func() { build(nil) }); n > 100 {
		t.Errorf("BuildPaperTable with a nil FLC makes %v allocs, want ≤ 100", n)
	}
}

func TestBuildPaperTableErrors(t *testing.T) {
	res, err := Run(corridorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildPaperTable("t", res, nil, nil, []float64{0}); err == nil {
		t.Error("empty epoch list accepted")
	}
	if _, err := BuildPaperTable("t", res, nil, []int{9999}, []float64{0}); err == nil {
		t.Error("out-of-range epoch accepted")
	}
}

// TestResolvePaperBoundaryScenario verifies the full Table 3 headline: the
// resolved iseed = 100 walk yields zero fuzzy handovers at every speed while
// the zero-margin baseline ping-pongs.
func TestResolvePaperBoundaryScenario(t *testing.T) {
	cfg, sr, err := ResolveScenario(PaperBoundaryConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Class != ClassBoundaryHover || sr.BaseSeed != 100 {
		t.Fatalf("search result %+v", sr)
	}
	for _, speed := range []float64{0, 20, 50} {
		run := cfg
		run.SpeedKmh = speed
		res, err := Run(run)
		if err != nil {
			t.Fatal(err)
		}
		if res.HandoverCount() != 0 {
			t.Errorf("speed %g: fuzzy executed %d handovers on hover walk", speed, res.HandoverCount())
		}
	}
	naive := cfg
	naive.Algorithm = handover.Hysteresis{MarginDB: 0}
	res, err := Run(naive)
	if err != nil {
		t.Fatal(err)
	}
	if res.PingPongCount < 1 {
		t.Error("naive baseline did not ping-pong on the hover walk")
	}
}

// TestResolvePaperCrossingScenario verifies the Table 4 headline: exactly 3
// handovers, no ping-pong, and all three decision scores above 0.7.
func TestResolvePaperCrossingScenario(t *testing.T) {
	cfg, sr, err := ResolveScenario(PaperCrossingConfig(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Class != ClassCrossing {
		t.Fatalf("search result %+v", sr)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HandoverCount() != PaperCrossingHandovers {
		t.Fatalf("handovers = %d, want 3", res.HandoverCount())
	}
	if res.PingPongCount != 0 {
		t.Error("crossing run ping-ponged")
	}
	for _, ev := range res.Events {
		if ev.Score <= 0.7 {
			t.Errorf("handover score %g ≤ 0.7 at %v", ev.Score, ev)
		}
	}
	// Table 4 layout: the pre-crossing column sits below the threshold, the
	// crossing column above it, at 0 km/h.
	tab, err := BuildPaperTable("Table 4", res, nil, res.CrossingTableEpochs(), []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	cells := tab.Rows[0].Cells
	for i := 0; i+1 < len(cells); i += 2 {
		if cells[i+1].OutputHD <= tab.Threshold {
			t.Errorf("crossing column %d output %g ≤ threshold", i+1, cells[i+1].OutputHD)
		}
	}
}

func TestBuildAveragedPaperTable(t *testing.T) {
	cfg := corridorConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochs := res.CrossingTableEpochs()
	// The deterministic reference uses the same passive protocol as the
	// averaging harness (measurements from the original serving BS).
	passiveCfg := cfg
	passiveCfg.Algorithm = handover.Passive{}
	passiveRes, err := Run(passiveCfg)
	if err != nil {
		t.Fatal(err)
	}
	det, err := BuildPaperTable("t", passiveRes, nil, epochs, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	avg0, err := BuildAveragedPaperTable("t", cfg, nil, epochs, []float64{0}, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := range det.Rows[0].Cells {
		if math.Abs(det.Rows[0].Cells[c].OutputHD-avg0.Rows[0].Cells[c].OutputHD) > 1e-12 {
			t.Fatalf("sigma-0 average differs at column %d", c)
		}
	}
	// With shadowing, the 10-replica average stays near the deterministic
	// value — the paper's averaging protocol smoothing out the fading.
	avg, err := BuildAveragedPaperTable("t", cfg, nil, epochs, []float64{0}, 10, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for c := range det.Rows[0].Cells {
		d := math.Abs(det.Rows[0].Cells[c].OutputHD - avg.Rows[0].Cells[c].OutputHD)
		if d > 0.15 {
			t.Errorf("column %d: averaged output drifted %.3f from deterministic", c, d)
		}
	}
	if !strings.Contains(avg.Title, "avg of 10 replicas") {
		t.Errorf("title = %q", avg.Title)
	}
	if _, err := BuildAveragedPaperTable("t", cfg, nil, epochs, []float64{0}, 0, 4, 0.05); err == nil {
		t.Error("zero replicas accepted")
	}
}

// TestAveragedPaperTableConfidenceIntervals pins the CI semantics of the
// averaging harness: identical replicas (σ = 0) carry zero-width
// intervals, fading replicas carry positive ones on the shadow-affected
// rows, the deterministic builder carries none, and the rendered table
// shows the ±95% CI rows.
func TestAveragedPaperTableConfidenceIntervals(t *testing.T) {
	cfg := corridorConfig()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	epochs := res.CrossingTableEpochs()

	det, err := BuildPaperTable("t", res, nil, epochs, []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	if det.Replicas != 1 {
		t.Errorf("deterministic table reports %d replicas", det.Replicas)
	}
	for c, cell := range det.Rows[0].Cells {
		if cell.OutputHDCI95 != 0 || cell.SSNdBCI95 != 0 || cell.CSSPdBCI95 != 0 {
			t.Errorf("deterministic cell %d carries a CI: %+v", c, cell)
		}
	}
	if strings.Contains(det.String(), "±95% CI") {
		t.Error("deterministic table renders CI rows")
	}

	// σ = 0: all replicas coincide, every interval collapses to zero.
	avg0, err := BuildAveragedPaperTable("t", cfg, nil, epochs, []float64{0}, 5, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c, cell := range avg0.Rows[0].Cells {
		if cell.OutputHDCI95 != 0 || cell.SSNdBCI95 != 0 {
			t.Errorf("sigma-0 cell %d carries a nonzero CI: %+v", c, cell)
		}
	}

	// σ > 0: the shadow-affected rows (SSN, and HD through it) spread.
	avg, err := BuildAveragedPaperTable("t", cfg, nil, epochs, []float64{0}, 10, 4, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if avg.Replicas != 10 {
		t.Fatalf("averaged table reports %d replicas", avg.Replicas)
	}
	sawSSN, sawHD := false, false
	for _, cell := range avg.Rows[0].Cells {
		if cell.SSNdBCI95 < 0 || cell.OutputHDCI95 < 0 || cell.CSSPdBCI95 < 0 {
			t.Fatalf("negative CI half-width: %+v", cell)
		}
		sawSSN = sawSSN || cell.SSNdBCI95 > 0
		sawHD = sawHD || cell.OutputHDCI95 > 0
	}
	if !sawSSN || !sawHD {
		t.Errorf("shadowed averaging produced no spread (SSN CI > 0: %v, HD CI > 0: %v)", sawSSN, sawHD)
	}
	rendered := avg.String()
	if !strings.Contains(rendered, "±95% CI") {
		t.Errorf("averaged table does not render CI rows:\n%s", rendered)
	}
	if !strings.Contains(avg.Title, "±95% CI") {
		t.Errorf("averaged title does not mention CIs: %q", avg.Title)
	}
	// The max-output cell reports its own CI for check notes.
	if got := avg.MaxOutputCell(); got.OutputHD != avg.MaxOutput() {
		t.Errorf("MaxOutputCell %.4f disagrees with MaxOutput %.4f", got.OutputHD, avg.MaxOutput())
	}
}

// TestTCritical95 sanity-pins the Student t table the CI harness uses.
func TestTCritical95(t *testing.T) {
	cases := map[int]float64{1: 12.706, 4: 2.776, 9: 2.262, 30: 2.042, 31: 1.96, 1000: 1.96}
	for df, want := range cases {
		if got := tCritical95(df); got != want {
			t.Errorf("tCritical95(%d) = %g, want %g", df, got, want)
		}
	}
	if !math.IsNaN(tCritical95(0)) {
		t.Error("df 0 must be NaN")
	}
}

// TestRunConcurrentSharedFLC exercises the documented concurrency contract:
// one FLC (and one stateless Controller) may serve many goroutines.
func TestRunConcurrentSharedFLC(t *testing.T) {
	flc := core.NewFLC()
	want, err := flc.Evaluate(-3.5, -93.7, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 200; i++ {
				got, err := flc.Evaluate(-3.5, -93.7, 1.2)
				if err != nil {
					errs <- err
					return
				}
				if got != want {
					errs <- fmt.Errorf("worker %d: %g != %g", w, got, want)
					return
				}
				// Interleave with unrelated inputs to shake shared state.
				if _, err := flc.Evaluate(float64(i%7)-5, -118+float64(i%30), float64(i%15)/10); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}
