package fuzzyho

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section (run with `go test -bench=. -benchmem`).  Each
// BenchmarkTableN / BenchmarkFigNN target rebuilds the corresponding
// artifact end-to-end and reports its headline quantity as a custom metric,
// so a single bench run doubles as the reproduction record for
// EXPERIMENTS.md.  BenchmarkAblation* targets quantify the design choices
// called out in DESIGN.md §5; the remaining benchmarks measure the
// throughput of the hot paths (FLC inference, defuzzifiers, simulation).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/fuzzy"
	"repro/internal/handover"
	"repro/internal/sim"
)

// benchExperiment runs one experiment builder per iteration and fails the
// bench if the artifact misses its success criteria.
func benchExperiment(b *testing.B, build func() (*Experiment, error)) *Experiment {
	b.Helper()
	var exp *Experiment
	var err error
	for i := 0; i < b.N; i++ {
		exp, err = build()
		if err != nil {
			b.Fatal(err)
		}
	}
	if !exp.Pass() {
		b.Fatalf("experiment %s failed its criteria:\n%s", exp.ID, exp.VerdictString())
	}
	return exp
}

// BenchmarkTable2Parameters regenerates the Table 2 parameter sheet.
func BenchmarkTable2Parameters(b *testing.B) {
	benchExperiment(b, Table2)
}

// BenchmarkTable3PingPongAvoidance regenerates Table 3 (iseed = 100,
// speeds 0-50 km/h).  Metric max_output must stay below 0.7.
func BenchmarkTable3PingPongAvoidance(b *testing.B) {
	exp := benchExperiment(b, Table3)
	b.ReportMetric(extractMaxOutput(b, exp), "max_output")
}

// BenchmarkTable4HandoverDecision regenerates Table 4 (iseed = 200).
// Metric handovers must equal 3.
func BenchmarkTable4HandoverDecision(b *testing.B) {
	benchExperiment(b, Table4)
	cfg, _, err := resolvedScenario(PaperCrossingConfig())
	if err != nil {
		b.Fatal(err)
	}
	res, err := RunSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.HandoverCount()), "handovers")
	b.ReportMetric(float64(res.PingPongCount), "pingpong")
}

func extractMaxOutput(b *testing.B, exp *Experiment) float64 {
	b.Helper()
	cfg, _, err := resolvedScenario(PaperBoundaryConfig())
	if err != nil {
		b.Fatal(err)
	}
	res, err := RunSim(cfg)
	if err != nil {
		b.Fatal(err)
	}
	table, err := sim.BuildPaperTable("t", res, nil, res.BoundaryTableEpochs(6), TableSpeeds)
	if err != nil {
		b.Fatal(err)
	}
	return table.MaxOutput()
}

// BenchmarkFig07WalkSeed100 regenerates the Fig. 7 walk pattern.
func BenchmarkFig07WalkSeed100(b *testing.B) {
	benchExperiment(b, Figure7)
}

// BenchmarkFig08WalkSeed200 regenerates the Fig. 8 walk pattern.
func BenchmarkFig08WalkSeed200(b *testing.B) {
	benchExperiment(b, Figure8)
}

// BenchmarkFig09PowerServing regenerates the Fig. 9 serving-power trace.
func BenchmarkFig09PowerServing(b *testing.B) {
	benchExperiment(b, Figure9)
}

// BenchmarkFig10PowerNeighbor1 regenerates Fig. 10.
func BenchmarkFig10PowerNeighbor1(b *testing.B) {
	benchExperiment(b, Figure10)
}

// BenchmarkFig11PowerNeighbor2 regenerates Fig. 11.
func BenchmarkFig11PowerNeighbor2(b *testing.B) {
	benchExperiment(b, Figure11)
}

// BenchmarkFig12MeasurementPoints100 regenerates Fig. 12.
func BenchmarkFig12MeasurementPoints100(b *testing.B) {
	benchExperiment(b, Figure12)
}

// BenchmarkFig13MeasurementPoints200 regenerates Fig. 13.
func BenchmarkFig13MeasurementPoints200(b *testing.B) {
	benchExperiment(b, Figure13)
}

// BenchmarkComparisonFuzzyVsBaselines runs the §6 future-work comparison.
func BenchmarkComparisonFuzzyVsBaselines(b *testing.B) {
	benchExperiment(b, Comparison)
}

// --- Micro-benchmarks: hot paths -----------------------------------------

// BenchmarkEvaluate is the map-based inference baseline: one decision of the
// paper's FLC through fuzzy.System.Evaluate, building the input map per call
// the way a map-API caller must.  BenchmarkEvaluateFast measures the same
// decisions on the positional fast path; the ratio of the two is the fast
// path's headline speedup.  Every scalar and batch body draws its rows
// from benchPool.
func BenchmarkEvaluate(b *testing.B) {
	sys := NewFLC().System()
	cols := benchPool(sys)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % benchPoolRows
		hd, err := sys.Evaluate(map[string]float64{
			core.VarCSSP: cols[0][j],
			core.VarSSN:  cols[1][j],
			core.VarDMB:  cols[2][j],
		})
		if err != nil {
			b.Fatal(err)
		}
		sink += hd
	}
	if math.IsNaN(sink) {
		b.Fatal("sink NaN")
	}
}

// BenchmarkEvaluateFast measures the allocation-free positional path:
// fuzzify → 64-rule inference → height defuzzification on caller-owned
// Scratch buffers.  Must report 0 allocs/op.
func BenchmarkEvaluateFast(b *testing.B) {
	sys := NewFLC().System()
	cols := benchPool(sys)
	sc := sys.NewScratch()
	xs := sc.Xs()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % benchPoolRows
		xs[0], xs[1], xs[2] = cols[0][j], cols[1][j], cols[2][j]
		hd, err := sys.EvaluateInto(sc, xs)
		if err != nil {
			b.Fatal(err)
		}
		sink += hd
	}
	if math.IsNaN(sink) {
		b.Fatal("sink NaN")
	}
}

// BenchmarkEvaluateCompiled measures one decision through the compiled
// control surface (the exact segment-table kernel for the paper's FLC):
// the same query loop as BenchmarkEvaluateFast with the Mamdani pipeline
// compiled away.  Must report 0 allocs/op; the headline is the ratio to
// BenchmarkEvaluateFast.
func BenchmarkEvaluateCompiled(b *testing.B) {
	cs, err := fuzzy.CompileSurface(NewFLC().System())
	if err != nil {
		b.Fatal(err)
	}
	cols := benchPool(cs.System())
	xs := make([]float64, 3)
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % benchPoolRows
		xs[0], xs[1], xs[2] = cols[0][j], cols[1][j], cols[2][j]
		hd, err := cs.Evaluate(xs)
		if err != nil {
			b.Fatal(err)
		}
		sink += hd
	}
	if math.IsNaN(sink) {
		b.Fatal("sink NaN")
	}
}

// BenchmarkEvaluateCompiledBatch measures the columnar batch entry point
// the serve shards drain sub-batches through: per-decision cost with the
// call overhead amortized across a 64-row column batch.
func BenchmarkEvaluateCompiledBatch(b *testing.B) {
	cs, err := fuzzy.CompileSurface(NewFLC().System())
	if err != nil {
		b.Fatal(err)
	}
	benchCompiledBatch(b, cs)
}

// BenchmarkEvaluateCompiledBatchTrend is BenchmarkEvaluateCompiledBatch on
// trendfuzzy's 4-input surface: the N-axis kernel walk the serve shards
// score trend frames through.
func BenchmarkEvaluateCompiledBatchTrend(b *testing.B) {
	cs, err := handover.DefaultTrendSurface()
	if err != nil {
		b.Fatal(err)
	}
	benchCompiledBatch(b, cs)
}

// benchPoolRows is the row count of benchPool.
const benchPoolRows = 4096

// benchPool draws benchPoolRows rows seeded-uniform over each input's
// universe plus 5% of its span beyond either end, so the clamp runs too;
// it returns one column per input.  A short periodic input pattern lets
// the branch predictor learn every data-dependent branch of the
// inference; a shard's real rows do not, and neither do these.
func benchPool(sys *fuzzy.System) [][]float64 {
	rng := rand.New(rand.NewSource(1))
	inputs := sys.Inputs()
	cols := make([][]float64, len(inputs))
	for a, v := range inputs {
		span := v.Max - v.Min
		cols[a] = make([]float64, benchPoolRows)
		for i := range cols[a] {
			cols[a][i] = v.Min - 0.05*span + rng.Float64()*1.1*span
		}
	}
	return cols
}

// benchCompiledBatch scores 64-row windows of benchPool.
func benchCompiledBatch(b *testing.B, cs *fuzzy.CompiledSurface) {
	const n = 64
	cols := benchPool(cs.System())
	in := make([][]float64, len(cols))
	var dst [n]float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * n % benchPoolRows
		for a := range in {
			in[a] = cols[a][off : off+n]
		}
		if err := cs.EvaluateBatch(dst[:], in); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/decision")
}

// BenchmarkEvaluateParallel runs the fast path on every core with one
// Scratch per goroutine — the aggregate inference throughput ceiling.
func BenchmarkEvaluateParallel(b *testing.B) {
	sys := NewFLC().System()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sc := sys.NewScratch()
		xs := sc.Xs()
		xs[0], xs[2] = -3.5, 1.1
		i := 0
		for pb.Next() {
			xs[1] = -95 + float64(i%10)
			if _, err := sys.EvaluateInto(sc, xs); err != nil {
				b.Error(err) // FailNow is not allowed off the benchmark goroutine
				return
			}
			i++
		}
	})
}

// --- Fleet benchmarks ------------------------------------------------------

// fleetBenchConfigs builds the scenario grid the fleet benchmarks run: both
// paper base seeds × 4 replicas × 3 speeds = 24 independent simulations.
func fleetBenchConfigs() []SimConfig {
	speeds := []float64{0, 25, 50}
	cfgs, _ := SweepGrid("boundary", PaperBoundaryConfig(), 4, speeds)
	c2, _ := SweepGrid("crossing", PaperCrossingConfig(), 4, speeds)
	return append(cfgs, c2...)
}

// benchFleet runs the grid through RunFleet with the given worker count and
// reports epochs/sec (the scale metric the ROADMAP tracks).
func benchFleet(b *testing.B, workers int) {
	cfgs := fleetBenchConfigs()
	b.ReportAllocs()
	b.ResetTimer()
	epochs := 0
	for i := 0; i < b.N; i++ {
		results, err := RunFleet(cfgs, workers)
		if err != nil {
			b.Fatal(err)
		}
		epochs = 0
		for _, r := range results {
			epochs += len(r.Epochs)
		}
	}
	b.ReportMetric(float64(epochs*b.N)/b.Elapsed().Seconds(), "epochs/sec")
	b.ReportMetric(float64(len(cfgs)*b.N)/b.Elapsed().Seconds(), "runs/sec")
}

// BenchmarkFleetSequential is the single-worker fleet baseline.
func BenchmarkFleetSequential(b *testing.B) { benchFleet(b, 1) }

// BenchmarkFleetParallel8 shards the same grid across 8 workers; results
// are byte-identical to the sequential run (see sim/fleet_test.go), only
// the wall clock changes.
func BenchmarkFleetParallel8(b *testing.B) { benchFleet(b, 8) }

// BenchmarkFLCInference measures one fuzzy handover decision (fuzzify →
// 64-rule inference → height defuzzification), the per-epoch cost of the
// paper's controller.
func BenchmarkFLCInference(b *testing.B) {
	flc := NewFLC()
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hd, err := flc.Evaluate(-3.5, -95+float64(i%10), 1.1)
		if err != nil {
			b.Fatal(err)
		}
		sink += hd
	}
	if math.IsNaN(sink) {
		b.Fatal("sink NaN")
	}
}

// BenchmarkFLCInferenceTrace measures the explained-decision path.
func BenchmarkFLCInferenceTrace(b *testing.B) {
	flc := NewFLC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := flc.EvaluateTrace(-3.5, -95, 1.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkControllerDecide measures the full POTLC → FLC → PRTLC pipeline.
func BenchmarkControllerDecide(b *testing.B) {
	ctrl := NewController()
	r := Report{
		ServingDB: -98, PrevServingDB: -96.5, HavePrev: true,
		CSSPdB: -3.5, SSNdB: -93.7, DMBNorm: 1.2,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctrl.Decide(r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationRun measures one full crossing-scenario simulation
// (walk generation, 19-cell scans, fuzzy decisions, event accounting).
func BenchmarkSimulationRun(b *testing.B) {
	cfg, _, err := resolvedScenario(PaperCrossingConfig())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunSim(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScenarioSearch measures the seed-search cost for the
// boundary-hover scenario (geometric pre-filter + behavioural verify).
func BenchmarkScenarioSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.ResolveScenario(sim.PaperBoundaryConfig(), 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Defuzzifier micro-benchmarks ----------------------------------------

func benchDefuzzifier(b *testing.B, d fuzzy.Defuzzifier) {
	flc, err := NewFLCWithOptions(FLCOptions{Engine: fuzzy.Options{Defuzzifier: d}})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := flc.Evaluate(-3.5, -95, 1.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDefuzzWeightedAverage measures the paper's height method.
func BenchmarkDefuzzWeightedAverage(b *testing.B) {
	benchDefuzzifier(b, fuzzy.WeightedAverage{})
}

// BenchmarkDefuzzCentroid measures numeric centroid defuzzification.
func BenchmarkDefuzzCentroid(b *testing.B) {
	benchDefuzzifier(b, fuzzy.Centroid{})
}

// BenchmarkDefuzzBisector measures bisector defuzzification.
func BenchmarkDefuzzBisector(b *testing.B) {
	benchDefuzzifier(b, fuzzy.Bisector{})
}

// --- Ablation benches (DESIGN.md §5) --------------------------------------

// ablationOutcome re-runs both paper scenarios under a modified controller
// and reports (hover handovers, crossing handovers, crossing ping-pong).
func ablationOutcome(b *testing.B, algo Algorithm) (hoverHO, crossHO, crossPP int) {
	b.Helper()
	hoverCfg, _, err := resolvedScenario(PaperBoundaryConfig())
	if err != nil {
		b.Fatal(err)
	}
	crossCfg, _, err := resolvedScenario(PaperCrossingConfig())
	if err != nil {
		b.Fatal(err)
	}
	hoverCfg.Algorithm = algo
	crossCfg.Algorithm = algo
	hr, err := RunSim(hoverCfg)
	if err != nil {
		b.Fatal(err)
	}
	cr, err := RunSim(crossCfg)
	if err != nil {
		b.Fatal(err)
	}
	return hr.HandoverCount(), cr.HandoverCount(), cr.PingPongCount
}

// BenchmarkAblationMamdaniVsLarsen compares max–min inference (paper)
// against max–product (Larsen) on both scenarios.
func BenchmarkAblationMamdaniVsLarsen(b *testing.B) {
	larsenFLC, err := NewFLCWithOptions(FLCOptions{Engine: fuzzy.Options{
		AndNorm:     fuzzy.ProductNorm,
		Implication: fuzzy.ProductImplication,
	}})
	if err != nil {
		b.Fatal(err)
	}
	larsen := NewFuzzyAlgorithm(NewControllerWithConfig(ControllerConfig{FLC: larsenFLC}))
	var hoverHO, crossHO int
	for i := 0; i < b.N; i++ {
		hoverHO, crossHO, _ = ablationOutcome(b, larsen)
	}
	b.ReportMetric(float64(hoverHO), "larsen_hover_handovers")
	b.ReportMetric(float64(crossHO), "larsen_cross_handovers")
}

// BenchmarkAblationCentroidDefuzzifier swaps the height defuzzifier for the
// centroid and reports the behavioural deltas.
func BenchmarkAblationCentroidDefuzzifier(b *testing.B) {
	centroidFLC, err := NewFLCWithOptions(FLCOptions{Engine: fuzzy.Options{
		Defuzzifier: fuzzy.Centroid{},
	}})
	if err != nil {
		b.Fatal(err)
	}
	algo := NewFuzzyAlgorithm(NewControllerWithConfig(ControllerConfig{FLC: centroidFLC}))
	var hoverHO, crossHO int
	for i := 0; i < b.N; i++ {
		hoverHO, crossHO, _ = ablationOutcome(b, algo)
	}
	b.ReportMetric(float64(hoverHO), "centroid_hover_handovers")
	b.ReportMetric(float64(crossHO), "centroid_cross_handovers")
}

// BenchmarkAblationNoPRTLC disables the PRTLC confirmation stage; the
// metric quantifies how much of the ping-pong suppression the test loop
// contributes versus the FLC itself.
func BenchmarkAblationNoPRTLC(b *testing.B) {
	algo := NewFuzzyAlgorithm(NewControllerWithConfig(ControllerConfig{DisablePRTLC: true}))
	var hoverHO, crossHO, crossPP int
	for i := 0; i < b.N; i++ {
		hoverHO, crossHO, crossPP = ablationOutcome(b, algo)
	}
	b.ReportMetric(float64(hoverHO), "noprtlc_hover_handovers")
	b.ReportMetric(float64(crossHO), "noprtlc_cross_handovers")
	b.ReportMetric(float64(crossPP), "noprtlc_cross_pingpong")
}

// BenchmarkAblationNoQualityGate disables the POTLC gate and measures the
// extra FLC evaluations it would cost (the gate exists for economy, not
// correctness).
func BenchmarkAblationNoQualityGate(b *testing.B) {
	algo := NewFuzzyAlgorithm(NewControllerWithConfig(ControllerConfig{DisableQualityGate: true}))
	var hoverHO, crossHO int
	for i := 0; i < b.N; i++ {
		hoverHO, crossHO, _ = ablationOutcome(b, algo)
	}
	b.ReportMetric(float64(hoverHO), "nogate_hover_handovers")
	b.ReportMetric(float64(crossHO), "nogate_cross_handovers")
}

// BenchmarkAblationThresholdSweep sweeps the 0.7 decision threshold and
// reports the hover/crossing handover counts at 0.6 and 0.8, bracketing the
// paper's operating point.
func BenchmarkAblationThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, th := range []float64{0.6, 0.8} {
			algo := NewFuzzyAlgorithm(NewControllerWithConfig(ControllerConfig{Threshold: th}))
			hoverHO, crossHO, _ := ablationOutcome(b, algo)
			if i == b.N-1 {
				b.ReportMetric(float64(hoverHO), "hover_handovers_th"+thLabel(th))
				b.ReportMetric(float64(crossHO), "cross_handovers_th"+thLabel(th))
			}
		}
	}
}

func thLabel(th float64) string {
	if th == 0.6 {
		return "060"
	}
	return "080"
}

// BenchmarkAblationHysteresisMarginSweep sweeps the baseline margin to show
// the tuning sensitivity the fuzzy controller avoids: small margins
// ping-pong, large margins miss necessary handovers.
func BenchmarkAblationHysteresisMarginSweep(b *testing.B) {
	margins := []float64{0, 2, 4, 8}
	for i := 0; i < b.N; i++ {
		for _, m := range margins {
			hoverHO, crossHO, crossPP := ablationOutcome(b, handover.Hysteresis{MarginDB: m})
			if i == b.N-1 && (m == 0 || m == 8) {
				label := "0dB"
				if m == 8 {
					label = "8dB"
				}
				b.ReportMetric(float64(hoverHO), "hover_handovers_"+label)
				b.ReportMetric(float64(crossHO), "cross_handovers_"+label)
				b.ReportMetric(float64(crossPP), "cross_pingpong_"+label)
			}
		}
	}
}

// BenchmarkAblationAdaptiveThreshold evaluates the speed-adaptive extension
// (EXPERIMENTS.md: the fixed 0.7 threshold stalls at 40-50 km/h): both
// scenarios are re-run at 50 km/h under the fixed and the adaptive
// controller.  The adaptive variant must restore the crossing handovers
// without flapping on the hover walk.
func BenchmarkAblationAdaptiveThreshold(b *testing.B) {
	hoverCfg, _, err := resolvedScenario(PaperBoundaryConfig())
	if err != nil {
		b.Fatal(err)
	}
	crossCfg, _, err := resolvedScenario(PaperCrossingConfig())
	if err != nil {
		b.Fatal(err)
	}
	var fixedCross, adaptiveCross, adaptiveHover int
	for i := 0; i < b.N; i++ {
		run := func(cfg SimConfig, algo Algorithm, speed float64) int {
			cfg.Algorithm = algo
			cfg.SpeedKmh = speed
			res, err := RunSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			return res.HandoverCount()
		}
		fixedCross = run(crossCfg, NewFuzzyAlgorithm(nil), 50)
		adaptiveCross = run(crossCfg, NewAdaptiveFuzzy(), 50)
		adaptiveHover = run(hoverCfg, NewAdaptiveFuzzy(), 50)
	}
	b.ReportMetric(float64(fixedCross), "fixed_cross_handovers_50kmh")
	b.ReportMetric(float64(adaptiveCross), "adaptive_cross_handovers_50kmh")
	b.ReportMetric(float64(adaptiveHover), "adaptive_hover_handovers_50kmh")
	if adaptiveHover != 0 {
		b.Fatalf("adaptive controller flapped on the hover walk at 50 km/h: %d", adaptiveHover)
	}
	if adaptiveCross <= fixedCross {
		b.Fatalf("adaptive (%d) did not beat fixed (%d) crossing handovers at 50 km/h",
			adaptiveCross, fixedCross)
	}
}

// BenchmarkAblationShadowing runs the crossing scenario under correlated
// log-normal shadow fading (σ = 6 dB, D = 50 m) — the disturbance the paper
// names as the root cause of ping-pong — and reports the fuzzy and naive
// ping-pong counts over 10 replicas.
func BenchmarkAblationShadowing(b *testing.B) {
	base, _, err := resolvedScenario(PaperCrossingConfig())
	if err != nil {
		b.Fatal(err)
	}
	var fuzzyPP, naivePP int
	for i := 0; i < b.N; i++ {
		fuzzyPP, naivePP = 0, 0
		for rep := 0; rep < 10; rep++ {
			cfg := base
			cfg.Seed = DeriveSeed(base.Seed, 1000+rep)
			cfg.ShadowSigmaDB = 6
			cfg.ShadowDecorrKm = 0.05
			fr, err := RunSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			fuzzyPP += fr.PingPongCount
			cfg.Algorithm = handover.Hysteresis{MarginDB: 0}
			nr, err := RunSim(cfg)
			if err != nil {
				b.Fatal(err)
			}
			naivePP += nr.PingPongCount
		}
	}
	b.ReportMetric(float64(fuzzyPP), "fuzzy_pingpong_10rep")
	b.ReportMetric(float64(naivePP), "naive_pingpong_10rep")
}

// BenchmarkAblationPartitionShift re-anchors the DMB partition ±10% and
// verifies the Table 3/4 verdicts survive — the membership-sensitivity
// check of DESIGN.md §5.
func BenchmarkAblationPartitionShift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scale := range []float64{0.9, 1.1} {
			dmb := fuzzy.MustVariable(core.VarDMB, core.DmbMin, core.DmbMax,
				fuzzy.Term{Name: core.DmbNR, MF: fuzzy.ShoulderLeft(0.25*scale, 0.4*scale)},
				fuzzy.Term{Name: core.DmbNSN, MF: fuzzy.Tri(0.25*scale, 0.4*scale, 0.75*scale)},
				fuzzy.Term{Name: core.DmbNSF, MF: fuzzy.Tri(0.4*scale, 0.75*scale, 1.0*scale)},
				fuzzy.Term{Name: core.DmbFA, MF: fuzzy.ShoulderRight(0.8*scale, 1.0*scale)},
			)
			flc, err := NewFLCWithOptions(FLCOptions{DMB: dmb})
			if err != nil {
				b.Fatal(err)
			}
			algo := NewFuzzyAlgorithm(NewControllerWithConfig(ControllerConfig{FLC: flc}))
			hoverHO, crossHO, _ := ablationOutcome(b, algo)
			if i == b.N-1 {
				label := "090"
				if scale > 1 {
					label = "110"
				}
				b.ReportMetric(float64(hoverHO), "hover_handovers_dmb"+label)
				b.ReportMetric(float64(crossHO), "cross_handovers_dmb"+label)
			}
		}
	}
}
