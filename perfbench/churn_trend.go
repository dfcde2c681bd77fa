package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/handover"
	"repro/internal/serve"
	"repro/internal/sim"
)

// churn-trend: the only workload that moves terminal state beside
// decisions.  One submitter feeds an in-process cluster.Local serving the
// compiled 4-input trendfuzzy scorer on trend-drift walks, in a closed
// loop that keeps at most ctWindow reports in flight, so every terminal
// waits for its decision before its next report goes out.  Each round
// builds a fresh 2-node cluster and warms every terminal (set-up), then
// times ctRound reports during which membership grows to 3 nodes and
// shrinks back to 2 at fixed report offsets; moving terminals' reports
// are held in the migration buffer until cutover.  A run has a fixed
// number of rounds, so every run migrates the same number of times, and
// folds them with foldRounds.
//
// This is a closed loop, not a fixed-rate open loop: at 50,000 reports/s
// a sub-millisecond open-loop latency read the box, not the program — its
// p90 moved 0.4–3 ms between runs and the in-process generator woke up to
// 10 ms late whenever GC or a migration held the Ps.  With the window,
// latency is the window over the throughput.
const (
	ctTerminals = 1 << 13
	ctBatch     = 256
	// ctWindow also bounds what one membership change can hold in the
	// migration buffer, since buffered reports stay in flight: two changes
	// per round hold at most 2·ctWindow/ctRound ≈ 0.2% of the reports,
	// far below the 1% where latency_p90_ms would start to read migration
	// stalls (a 4,096 window held 0.8%).
	ctWindow  = 1 << 10
	ctRound   = 1 << 20
	ctBatches = ctRound / ctBatch
	// ctOps membership changes per round: grow, then shrink.
	ctOps      = 2
	ctMaxNodes = 2 + ctOps
	// ctSample: per-report latency is recorded for terminals whose ID is
	// a multiple.
	ctSample = 16
)

// ctSink is one round's decision callback state.  Callbacks run on the
// member engines' shard goroutines: per-node fields are touched by that
// node's goroutine only, per-batch and per-report slots by whichever node
// decides the report, and the submitter reads them after waiting for the
// count.
type ctSink struct {
	pop   *population
	nodes [ctMaxNodes]struct {
		d      digest
		errors uint64
		_      [48]byte
	}
	count atomic.Uint64
	want  atomic.Uint64
	sig   chan struct{}
	// expired fires when the round has run too long.
	expired <-chan time.Time

	// left counts each timed batch's undecided reports; done is when its
	// last one was decided.
	left []atomic.Int32
	done []int64
	// decided holds the decision time of sampled terminals' timed
	// reports, at slot(terminal, seq).
	decided []int64
	// traced: the deciding node's last ScoreFrame bracket per slot.
	probes               [ctMaxNodes]atomic.Pointer[probe]
	frameStart, frameEnd []int64
}

// slot indexes a sampled terminal's timed report.
func slot(terminal, seq uint64) int {
	return int(seq-1)*(ctTerminals/ctSample) + int(terminal/ctSample)
}

func (s *ctSink) on(node int, o serve.Outcome) {
	n := &s.nodes[node]
	n.d.add(outcomeHash(&o))
	if o.Err != nil {
		n.errors++
	}
	if o.Seq >= 1 && s.left != nil {
		if b := s.pop.index(uint64(o.Terminal), o.Seq) / ctBatch; b < len(s.left) && s.left[b].Add(-1) == 0 {
			s.done[b] = now()
		}
		if o.Terminal%ctSample == 0 {
			if i := slot(uint64(o.Terminal), o.Seq); i < len(s.decided) {
				s.decided[i] = now()
				if s.frameStart != nil {
					if p := s.probes[node].Load(); p != nil {
						s.frameStart[i], s.frameEnd[i] = p.frameStart, p.frameEnd
					}
				}
			}
		}
	}
	if c := s.count.Add(1); c == s.want.Load() {
		select {
		case s.sig <- struct{}{}:
		default:
		}
	}
}

// waitFor blocks until n decisions were delivered, woken by the decision
// callback that delivers the n-th; it never polls.
func (s *ctSink) waitFor(n uint64) error {
	if s.count.Load() >= n {
		return nil
	}
	s.want.Store(n)
	for s.count.Load() < n {
		select {
		case <-s.sig:
		case <-s.expired:
			return fmt.Errorf("timed out waiting for decision %d (have %d)", n, s.count.Load())
		}
	}
	return nil
}

func (s *ctSink) digest() (digest, uint64) {
	var d digest
	var errs uint64
	for i := range s.nodes {
		d.merge(s.nodes[i].d)
		errs += s.nodes[i].errors
	}
	return d, errs
}

// migOp is one membership change and what it moved.
type migOp struct {
	add           bool
	before, after []int
	wallNs        int64
	moved         int
	err           error
}

func trendScorer() handover.BatchScorer {
	t, _ := handover.NewCompiledTrendFuzzy() // compiled once before any cluster starts
	return t
}

type churnTrend struct {
	o    opts
	pop  *population
	warm []serve.Report
	ref  digest
	// traced: every round's probes, and the last round's sampled requests.
	probes []*probeSet
	wf     *waterfall
	ops    []migOp
}

func runChurnTrend(o opts) (*result, error) {
	if _, err := handover.NewCompiledTrendFuzzy(); err != nil {
		return nil, err
	}
	streams, walkMs, err := walkStreams([]sim.Config{sim.TrendDriftConfig()}, 16, []float64{10, 30, 50}, o.seed)
	if err != nil {
		return nil, err
	}
	w := &churnTrend{o: o, pop: newPopulation(streams, ctTerminals, o.seed)}
	w.warm = w.pop.warmup()
	total := ctTerminals + ctRound
	w.ref, err = referenceDigest(serve.Config{AlgorithmFactory: func() handover.Algorithm { return trendScorer() }}, total, func(i int) serve.Report {
		if i < ctTerminals {
			return w.warm[i]
		}
		return w.pop.timed(i - ctTerminals)
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	res := newResult()
	res.headline, res.higherBetter = "decisions_per_s", true
	n := max(3, int(o.seconds))
	var rounds []map[string]float64
	for len(rounds) < n {
		r, ok, err := w.round(len(rounds) == n-1)
		if err != nil {
			return nil, err
		}
		res.attempted += uint64(total)
		res.failed += uint64(r["failed"])
		res.correct = res.correct && ok
		rounds = append(rounds, r)
	}
	foldRounds(res, rounds)
	res.notes["rounds"] = len(rounds)
	layers := res.layers
	for _, k := range []string{"cluster.submit_ns_per_report", "serve.engine.residence_us_p50", "serve.engine.residence_us_p99",
		"serve.engine.queue_depth_p50", "runtime.allocs_per_decision", "runtime.gc_cycles_per_1m_decisions",
		"gen.latency_p99_ms", "gen.cpu_share"} {
		layers[k] = medianOf(rounds, k)
	}

	var moved, migMs []float64
	var buffered float64
	for _, r := range rounds {
		buffered += r["buffered"]
	}
	for i := range w.ops {
		op := &w.ops[i]
		if op.err != nil {
			res.correct = false
			res.notes["membership_error"] = op.err.Error()
		}
		moved = append(moved, float64(op.moved))
		migMs = append(migMs, float64(op.wallNs)/1e6)
	}
	var sumMoved, sumMig float64
	for i := range moved {
		sumMoved += moved[i]
		sumMig += migMs[i]
	}
	layers["cluster.moved_terminals_per_op"] = sumMoved / float64(max(1, len(moved)))
	layers["cluster.migrate_us_per_moved_terminal"] = sumMig * 1e3 / max(1, sumMoved)
	layers["cluster.migrate_ms_p50"] = median(migMs)
	layers["cluster.buffered_share"] = buffered / float64(len(rounds)*ctRound)
	layers["sim.run_ms_per_walk"] = median(walkMs)
	res.notes["migrate_ms"] = migMs
	res.notes["moved_terminals"] = moved
	if o.traced {
		t := totalsOf(w.probes...)
		t.handoverMetrics(layers, t.decides+t.perReport)
		if surf, err := handover.DefaultTrendSurface(); err == nil && t.cols != nil {
			dst := make([]float64, len(t.cols[0]))
			ns := passesNs(func() { err = surf.EvaluateBatch(dst, t.cols) })
			if err == nil {
				layers["fuzzy.eval_ns_per_point"] = ns / float64(len(dst))
			}
		}
		res.spans = newSpanLog(1 << 16)
		w.wf.shares(layers, res.spans)
	}
	return res, nil
}

// round builds, warms and times one cluster; ok reports whether its
// decisions matched the reference and its membership changes all ran.
func (w *churnTrend) round(last bool) (map[string]float64, bool, error) {
	pop := w.pop
	sink := &ctSink{pop: pop, sig: make(chan struct{}, 1), expired: time.After(2 * time.Minute)}
	factory := func() handover.Algorithm { return trendScorer() }
	if w.o.traced {
		ps := &probeSet{capRows: 1 << 16}
		w.probes = append(w.probes, ps)
		wrap := ps.factory(trendScorer)
		factory = func() handover.Algorithm {
			// Local builds members in ID order, so a probe's creation
			// index is its node's ID.
			p := wrap().(*probe)
			sink.probes[p.node].Store(p)
			return p
		}
	}

	// Set-up, single-threaded: construction plus one decision per
	// terminal.
	runtime.GOMAXPROCS(1)
	baseHeap := liveHeap()
	t0 := time.Now()
	l, err := cluster.NewLocal(cluster.LocalConfig{
		Nodes:      2,
		Engine:     serve.Config{Shards: 1, AlgorithmFactory: factory},
		OnDecision: sink.on,
	})
	if err != nil {
		return nil, false, err
	}
	defer l.Close()
	for b := 0; b < ctTerminals; b += ctBatch {
		if err := l.SubmitBatch(w.warm[b : b+ctBatch]); err != nil {
			return nil, false, err
		}
	}
	if err := sink.waitFor(ctTerminals); err != nil {
		return nil, false, fmt.Errorf("warm-up: %w", err)
	}
	setup := time.Since(t0).Seconds()
	runtime.GOMAXPROCS(2)
	heap := liveHeap() - baseHeap

	// Timed phase: fixed work, membership changes at fixed offsets.
	sink.left = make([]atomic.Int32, ctBatches)
	for b := range sink.left {
		sink.left[b].Store(ctBatch)
	}
	sink.done = make([]int64, ctBatches)
	sink.decided = make([]int64, ctRound/ctSample)
	if w.o.traced {
		sink.frameStart = make([]int64, len(sink.decided))
		sink.frameEnd = make([]int64, len(sink.decided))
	}
	submitAt := make([]int64, ctBatches)
	submitEnd := make([]int64, ctBatches)
	var depth []float64

	var window atomic.Pointer[[2]*cluster.Ring]
	opCh := make(chan migOp, ctOps)
	var ops []migOp
	var opsWG sync.WaitGroup
	opsWG.Add(1)
	go func() {
		defer opsWG.Done()
		nextID := 2
		for op := range opCh {
			op.before = l.Members()
			if op.add {
				op.after = append(append([]int(nil), op.before...), nextID)
				nextID++
			} else {
				op.after = append([]int(nil), op.before[1:]...)
			}
			oldRing, err1 := cluster.NewRingMembers(op.before, 0)
			newRing, err2 := cluster.NewRingMembers(op.after, 0)
			if err1 == nil && err2 == nil {
				window.Store(&[2]*cluster.Ring{oldRing, newRing})
			}
			t0 := now()
			if op.add {
				_, op.err = l.AddNode()
			} else {
				op.err = l.RemoveNode(op.before[0])
			}
			op.wallNs = now() - t0
			window.Store(nil)
			ops = append(ops, op)
		}
	}()

	var buffered, inWall int64
	var genCPU time.Duration
	batch := make([]serve.Report, ctBatch)
	opEvery := ctBatches / (ctOps + 1)
	var waitErr error
	// One P for the timed phase.  On two, every refill of the window wakes
	// a goroutine on the other vCPU, and how fast a shared VM wakes it
	// decides the figure: the same two-P code read 0.82–0.94 M decisions/s
	// in ten runs and 1.46–1.73 M in six runs an hour later, where one P,
	// run alternately with those six, read 0.94–0.99 M (IQR/median 0.03
	// against 0.09).
	runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(2)
	pc := startPhase()
	for b := 0; b < ctBatches; b++ {
		// Closed loop: at most ctWindow reports in flight after this batch.
		if need := b*ctBatch + ctBatch - ctWindow; need > 0 {
			if waitErr = sink.waitFor(uint64(ctTerminals + need)); waitErr != nil {
				break
			}
		}
		// The generator's own work is clocked on a thread pinned only for
		// that stretch: pinned across its waits too, every switch to a
		// shard goroutine on the one P would hand the P between OS threads.
		runtime.LockOSThread()
		c0 := threadCPU()
		g0 := b * ctBatch
		for i := range batch {
			batch[i] = pop.timed(g0 + i)
		}
		if win := window.Load(); win != nil {
			for i := range batch {
				if t := batch[i].Terminal; win[0].NodeOf(t) != win[1].NodeOf(t) {
					buffered++
				}
			}
		}
		if b > 0 && b%opEvery == 0 && b/opEvery <= ctOps {
			opCh <- migOp{add: (b/opEvery)%2 == 1}
		}
		genCPU += threadCPU() - c0
		runtime.UnlockOSThread()
		entry := now()
		if err := l.SubmitBatch(batch); err != nil {
			return nil, false, err
		}
		exit := now()
		inWall += exit - entry
		submitAt[b], submitEnd[b] = entry, exit
		if w.o.traced && b%64 == 0 {
			for _, id := range l.Members() {
				depth = append(depth, float64(l.EngineStats(id).Totals().QueueDepth))
			}
		}
	}
	close(opCh)
	opsWG.Wait()
	if waitErr == nil {
		waitErr = sink.waitFor(uint64(ctTerminals + ctRound))
	}
	tot := pc.stop()
	if err := l.Close(); err != nil {
		return nil, false, err
	}

	got, errs := sink.digest()
	ok := waitErr == nil && got == w.ref && len(ops) == ctOps
	for i := range ops {
		op := &ops[i]
		oldRing, _ := cluster.NewRingMembers(op.before, 0)
		newRing, _ := cluster.NewRingMembers(op.after, 0)
		for t := 0; t < ctTerminals; t++ {
			if oldRing.NodeOf(serve.TerminalID(t)) != newRing.NodeOf(serve.TerminalID(t)) {
				op.moved++
			}
		}
	}
	w.ops = append(w.ops, ops...)

	// Latency, as on engine-paper: a batch's SubmitBatch entry → the last
	// of its decisions.
	lat := make([]float64, 0, ctBatches)
	for b, d := range sink.done {
		if d != 0 {
			lat = append(lat, float64(d-submitAt[b])/1e6)
		}
	}
	// The sampled terminals' reports: SubmitBatch entry → decision.
	var residence []float64
	var idx []int
	for g := 0; g < ctRound; g++ {
		r := pop.timed(g)
		if r.Terminal%ctSample != 0 {
			continue
		}
		if d := sink.decided[slot(uint64(r.Terminal), uint64(1+g/ctTerminals))]; d != 0 {
			residence = append(residence, float64(d-submitAt[g/ctBatch])/1e3)
			idx = append(idx, g)
		}
	}
	if w.o.traced && last {
		w.wf = &waterfall{}
		for _, g := range idx {
			r := pop.timed(g)
			term, seq := uint64(r.Terminal), uint64(1+g/ctTerminals)
			i, b := slot(term, seq), g/ctBatch
			spans := []span{{Layer: "cluster", Term: term, Seq: seq, Start: submitAt[b], End: submitEnd[b]}}
			if fs, fe := sink.frameStart[i], sink.frameEnd[i]; fe > 0 {
				spans = append(spans,
					span{Layer: "handover", Term: term, Seq: seq, Start: fs, End: fe},
					span{Layer: "serve.engine", Term: term, Seq: seq, Start: fe, End: sink.decided[i]})
			}
			w.wf.add(wfReq{term: term, seq: seq, start: submitAt[b], end: sink.decided[i], spans: spans})
		}
	}

	decisions := float64(ctRound)
	return map[string]float64{
		"decisions_per_s":                    decisions / tot.wall.Seconds(),
		"cpu_ms_per_1k_decisions":            (tot.cpu - genCPU).Seconds() * 1e3 / (decisions / 1e3),
		"latency_p50_ms":                     quantile(lat, 0.50),
		"latency_p90_ms":                     quantile(lat, 0.90),
		"heap_bytes_per_terminal":            heap / ctTerminals,
		"setup_s":                            setup,
		"failed":                             float64(errs + uint64(ctTerminals+ctRound) - min(uint64(ctTerminals+ctRound), sink.count.Load())),
		"buffered":                           float64(buffered),
		"cluster.submit_ns_per_report":       float64(inWall) / decisions,
		"serve.engine.residence_us_p50":      quantile(residence, 0.50),
		"serve.engine.residence_us_p99":      quantile(residence, 0.99),
		"serve.engine.queue_depth_p50":       median(depth),
		"runtime.allocs_per_decision":        float64(tot.mallocs) / decisions,
		"runtime.gc_cycles_per_1m_decisions": float64(tot.gcs) / decisions * 1e6,
		"gen.latency_p99_ms":                 quantile(lat, 0.99),
		"gen.cpu_share":                      genCPU.Seconds() / tot.cpu.Seconds(),
	}, ok, nil
}
