package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/handover"
	"repro/internal/serve"
	"repro/internal/sim"
)

// engine-paper: the decision hot path at saturation with nothing else in
// the way.  One submitter goroutine feeds one shard, so two cores are not
// oversubscribed; 65,536 terminals (~32 MiB of terminal state) exceed a
// core's L2.  Each round builds a fresh engine, warms every terminal with
// one decision (set-up), then times a fixed 16 epochs × 65,536 reports in
// 1,024-report SubmitBatch calls.  A run repeats rounds for its seconds
// and folds them with foldRounds.
const (
	epTerminals = 1 << 16
	epBatch     = 1024
	epEpochs    = 16
	epBatches   = epEpochs * epTerminals / epBatch
	// epRing indexes batch submit stamps; the shard queue holds at most
	// 1024 sub-batches of 64 (64 batches), far below it.
	epRing = 1024
	// epLatWindow batches (~15 ms) make one latency window: a stall of
	// the machine delays every batch queued through it, so per-window
	// quantiles keep the stalls from deciding a round's p90.  Run side by
	// side, 32-batch windows read p90 29.5–33.1 ms over six runs where
	// 128-batch windows read 30.8–35.5 ms.
	epLatWindow = 32
)

// epSink is the decision callback of one round.  It runs on the shard
// goroutine; the submitter touches its fields only while the shard is
// idle (before submitting, after done).
type epSink struct {
	d      digest
	errors uint64
	target uint64
	done   chan struct{}

	timed    bool
	base     uint64
	submitNs [epRing]int64
	lat      []float64 // ms, one per batch: submit → the batch's last decision

	// traced: every decideSample-th callback is clocked.
	traced    bool
	cbNs      int64
	cbClocked uint64
}

func (s *epSink) on(o serve.Outcome) {
	var t0 int64
	clock := s.traced && s.d.n%decideSample == 0
	if clock {
		t0 = now()
	}
	s.d.add(outcomeHash(&o))
	if o.Err != nil {
		s.errors++
	}
	if s.timed {
		if k := s.d.n - s.base; k%epBatch == 0 {
			b := k/epBatch - 1
			s.lat = append(s.lat, float64(now()-s.submitNs[b%epRing])/1e6)
		}
	}
	if s.d.n == s.target {
		s.done <- struct{}{}
	}
	if clock {
		s.cbNs += now() - t0
		s.cbClocked++
	}
}

type enginePaper struct {
	o    opts
	pop  *population
	warm []serve.Report
	ref  digest
	ps   *probeSet
	log  *spanLog
}

func runEnginePaper(o opts) (*result, error) {
	streams, walkMs, err := walkStreams([]sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()}, 8, []float64{0, 10, 30, 50}, o.seed)
	if err != nil {
		return nil, err
	}
	w := &enginePaper{o: o, pop: newPopulation(streams, epTerminals, o.seed)}
	w.warm = w.pop.warmup()
	total := epTerminals * (1 + epEpochs)
	w.ref, err = referenceDigest(serve.Config{Compiled: true}, total, func(i int) serve.Report {
		if i < epTerminals {
			return w.warm[i]
		}
		return w.pop.timed(i - epTerminals)
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if o.traced {
		w.ps = &probeSet{capRows: 1 << 16}
		w.log = newSpanLog(1 << 16)
	}

	res := newResult()
	res.headline, res.higherBetter = "decisions_per_s", true
	var rounds []map[string]float64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(rounds) < 3 || time.Now().Before(deadline) {
		r, ok, err := w.round()
		if err != nil {
			return nil, err
		}
		res.attempted += uint64(total)
		res.failed += uint64(r["errors"])
		if !ok {
			res.correct = false
		}
		rounds = append(rounds, r)
	}
	foldRounds(res, rounds)
	res.samples["latency_p50_ms"] = len(rounds) * epBatches
	res.samples["latency_p90_ms"] = len(rounds) * epBatches
	for _, k := range []string{"serve.engine.submit_cpu_ns_per_report", "serve.engine.blocked_share",
		"runtime.allocs_per_decision", "runtime.gc_cycles_per_1m_decisions", "gen.cpu_share"} {
		res.layers[k] = medianOf(rounds, k)
	}
	res.layers["serve.engine.residence_us_p50"] = res.e2e["latency_p50_ms"] * 1e3
	res.layers["gen.latency_p99_ms"] = medianOf(rounds, "latency_p99_ms")
	res.layers["serve.engine.residence_us_p99"] = res.layers["gen.latency_p99_ms"] * 1e3
	res.layers["serve.engine.queue_depth_p50"] = medianOf(rounds, "queue_depth")
	res.notes["rounds"] = len(rounds)
	res.notes["reference_decisions"] = w.ref.n
	res.layers["sim.run_ms_per_walk"] = median(walkMs)
	if o.traced {
		w.layerMetrics(res, rounds)
		// The simulator's scenario resolution, which no timed phase runs:
		// the paper's two representative walks, found single-threaded.
		runtime.GOMAXPROCS(1)
		t0 := time.Now()
		for _, c := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()} {
			if _, _, err := sim.ResolveScenario(c, 0); err != nil {
				return nil, err
			}
		}
		res.layers["sim.resolve_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		runtime.GOMAXPROCS(2)
	}
	return res, nil
}

// round builds, warms and times one engine; ok reports whether its
// decisions matched the reference.
func (w *enginePaper) round() (map[string]float64, bool, error) {
	sink := &epSink{done: make(chan struct{}, 1), lat: make([]float64, 0, epBatches), traced: w.o.traced}
	cfg := serve.Config{Shards: 1, Compiled: true, OnDecision: sink.on}
	if w.o.traced {
		cfg.Compiled = false
		cfg.AlgorithmFactory = w.ps.factory(func() handover.BatchScorer {
			f, _ := handover.NewCompiledFuzzy() // the reference built the same surface already
			return f
		})
	}

	// Set-up, single-threaded: construction plus one decision per
	// terminal.
	runtime.GOMAXPROCS(1)
	baseHeap := liveHeap()
	t0 := time.Now()
	e, err := serve.New(cfg)
	if err != nil {
		return nil, false, err
	}
	if err := e.Start(); err != nil {
		return nil, false, err
	}
	sink.target = epTerminals
	for b := 0; b < epTerminals; b += epBatch {
		if err := e.SubmitBatch(w.warm[b : b+epBatch]); err != nil {
			return nil, false, err
		}
	}
	<-sink.done
	setup := time.Since(t0).Seconds()
	runtime.GOMAXPROCS(2)
	heap := liveHeap() - baseHeap

	// Timed phase: fixed work, completion signalled by the callback.
	sink.base = sink.d.n
	sink.target = sink.d.n + epEpochs*epTerminals
	sink.timed = true
	batch := make([]serve.Report, epBatch)
	depth := make([]float64, 0, epBatches/16)
	var inCPU, inWall time.Duration
	// The submitter's thread is locked for the timed phase only: at set-up's
	// single P, a locked thread would hand the P to the shard's thread and
	// back at every full queue.
	lockGenThread()
	defer runtime.UnlockOSThread()
	gen0 := threadCPU()
	pc := startPhase()
	g := 0
	for b := 0; b < epBatches; b++ {
		for i := range batch {
			batch[i] = w.pop.timed(g)
			g++
		}
		sink.submitNs[b%epRing] = now()
		c0, w0 := threadCPU(), now()
		if err := e.SubmitBatch(batch); err != nil {
			return nil, false, err
		}
		w1 := now()
		inCPU += threadCPU() - c0
		inWall += time.Duration(w1 - w0)
		if w.o.traced && b%16 == 0 {
			depth = append(depth, float64(e.Stats().Shards[0].QueueDepth))
			w.log.add(span{Layer: "serve.engine.submit", Parent: -1, Term: uint64(batch[0].Terminal), Seq: uint64(1 + (g-epBatch)/epTerminals), Start: w0, End: w1})
		}
	}
	<-sink.done
	tot := pc.stop()
	genCPU := threadCPU() - gen0 - inCPU
	runtime.UnlockOSThread()
	if err := e.Stop(); err != nil {
		return nil, false, err
	}

	decisions := float64(epEpochs * epTerminals)
	programCPU := tot.cpu - genCPU
	r := map[string]float64{
		"decisions_per_s":                       decisions / tot.wall.Seconds(),
		"cpu_ms_per_1k_decisions":               programCPU.Seconds() * 1e3 / (decisions / 1e3),
		"latency_p50_ms":                        windowed(sink.lat, epLatWindow, 0.50),
		"latency_p90_ms":                        windowed(sink.lat, epLatWindow, 0.90),
		"latency_p99_ms":                        quantile(sink.lat, 0.99),
		"heap_bytes_per_terminal":               heap / epTerminals,
		"setup_s":                               setup,
		"errors":                                float64(sink.errors),
		"serve.engine.submit_cpu_ns_per_report": float64(inCPU.Nanoseconds()) / decisions,
		"serve.engine.blocked_share":            (inWall - inCPU).Seconds() / tot.wall.Seconds(),
		"runtime.allocs_per_decision":           float64(tot.mallocs) / decisions,
		"runtime.gc_cycles_per_1m_decisions":    float64(tot.gcs) / decisions * 1e6,
		"gen.cpu_share":                         genCPU.Seconds() / tot.cpu.Seconds(),
		"queue_depth":                           median(depth),
		"wall_ns":                               float64(tot.wall.Nanoseconds()),
		"callback_ns":                           0,
	}
	if sink.cbClocked > 0 {
		r["callback_ns"] = float64(sink.cbNs) / float64(sink.cbClocked) * float64(sink.d.n)
	}
	return r, sink.d == w.ref, nil
}

// layerMetrics fills the traced run's handover and fuzzy metrics and the
// self-time shares of the shard's wall time.  The shard is the
// bottleneck (serve.engine.blocked_share near 1), so its wall time per
// decision is the inverse throughput; the part no probe or callback
// covers is the engine's own queue, route, gather and commit work.
func (w *enginePaper) layerMetrics(res *result, rounds []map[string]float64) {
	var decisions, wall, callback float64
	for _, r := range rounds {
		decisions += epEpochs * epTerminals
		wall += r["wall_ns"]
		callback += r["callback_ns"]
	}
	t := totalsOf(w.ps)
	// Probes also ran through every warm-up, which the rounds' wall time
	// does not cover; scale their totals to the timed decisions.
	scale := decisions / (decisions + float64(len(rounds)*epTerminals))
	t.handoverMetrics(res.layers, t.decides+t.perReport)
	flc, err := core.DefaultCompiledFLC()
	if err == nil && t.cols != nil {
		dst := make([]float64, len(t.cols[0]))
		ns := passesNs(func() { err = flc.EvaluateBatch(dst, t.cols[0], t.cols[1], t.cols[2]) })
		if err == nil {
			res.layers["fuzzy.eval_ns_per_point"] = ns / float64(len(dst))
		}
	}
	kernel := res.layers["fuzzy.eval_ns_per_point"] * t.scored * scale
	handoverNs := (t.scoreNs+t.decideNs)*scale - kernel
	trace := callback
	res.layers["selftime.handover"] = handoverNs / wall
	res.layers["selftime.fuzzy"] = kernel / wall
	res.layers["selftime.trace"] = trace / wall
	res.layers["selftime.serve.engine"] = 1 - (handoverNs+kernel+trace)/wall
	res.spans = w.log
}
