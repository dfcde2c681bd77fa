// Command hoload is the synthetic load generator for the streaming serve
// engine.  It replays sim-generated walks for N terminals: the paper's
// scenario families are expanded with sim.SweepGrid into replica × speed
// grids, each grid cell is simulated once to obtain its measurement
// stream, and the streams are assigned round-robin to the terminal
// population.  Submitter workers then cycle the population's reports
// through an in-process engine for the requested duration, and the run
// reports sustained throughput plus decision-latency percentiles
// (submit → decision callback, measured with a lock-free log-linear
// histogram).
//
// Usage:
//
//	hoload -terminals 10000 -shards 8 -duration 5s
//	hoload -terminals 512 -workers 2 -speeds 0,30,50 -replicas 4
//	hoload -algo adaptive -compiled -speeds 0,30,50   # speed-adaptive extension
//	hoload -cluster 2 -shards 2 -compiled             # route through an
//	                                                  # in-process 2-node cluster
//	hoload -cluster 2 -churn 250ms                    # grow/shrink membership
//	                                                  # mid-replay, migrating state
//
// With -cluster N the population is partitioned across N engine nodes by
// the cluster router's consistent-hash ring (each node gets -shards
// shards) — the single-box replay mode of the multi-node scaling layer.
// With -churn D the membership alternately grows and shrinks every D
// while the replay runs: each step migrates the moved terminals' full
// decision state to the new owner, exercising the elastic-membership
// path under sustained load.
//
// Determinism caveat: each terminal's decision sequence over its first
// replay pass is exactly the sim path's (the determinism tests pin this);
// once a pass wraps around, carried-over state (power history, ping-pong
// ring) makes subsequent passes diverge from a fresh run — throughput
// numbers are unaffected.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof registers the profiling handlers
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	fuzzyho "repro"
)

// timeRing is the per-terminal submit-timestamp ring: slot seq%len holds
// the submit time of in-flight report seq.  completed (written by the
// shard callback) lets the submitter cap in-flight reports below the ring
// size, so a slot is never overwritten before its decision lands.
const ringSize = 64

type timeRing struct {
	completed atomic.Uint64 // seq of decisions delivered so far
	slots     [ringSize]int64
}

// loadTarget abstracts the engine vs cluster-router replay destination.
type loadTarget struct {
	submit    func(rs []fuzzyho.MeasurementReport) error
	flush     func() error
	stop      func() error
	totals    func() fuzzyho.ClusterNodeStats
	statLines func() []string
	// nodes snapshots the per-node counters (-metrics-out per-node
	// submitted series); nil in single-engine mode.
	nodes func() []fuzzyho.ClusterNodeStats
}

func main() {
	var (
		terminals = flag.Int("terminals", 1024, "terminal population size")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "engine shards (per node with -cluster)")
		clusterN  = flag.Int("cluster", 0, "route through an in-process cluster of N engine nodes (0: single engine)")
		queue     = flag.Int("queue", 0, "per-shard queue depth (messages; 0: the engine default)")
		workers   = flag.Int("workers", 2, "submitter goroutines")
		duration  = flag.Duration("duration", 2*time.Second, "load duration")
		scenario  = flag.String("scenario", "both", "walk family: boundary, crossing, trend or both")
		replicas  = flag.Int("replicas", 4, "seed sub-streams per scenario")
		speedsCS  = flag.String("speeds", "0,10,30,50", "comma-separated speeds in km/h")
		batchLen  = flag.Int("batch", 256, "reports per SubmitBatch call")
		algo      = flag.String("algo", "fuzzy", "decision algorithm: fuzzy (the paper controller), adaptive (speed-adaptive threshold) or trendfuzzy (4-input FLC with the SSN-trend antecedent)")
		compiled  = flag.Bool("compiled", false, "decide on the compiled control surface (columnar batch pipeline)")
		pprofHost = flag.String("pprof", "", "net/http/pprof listen address (e.g. 127.0.0.1:6060; empty: off)")
		churn     = flag.Duration("churn", 0, "with -cluster: alternately grow and shrink the membership every interval, migrating terminal state live (0: off)")
		metricsTo = flag.String("metrics-out", "", "write a per-second JSONL time series (throughput, windowed latency quantiles, per-node submitted) to this file")
	)
	flag.Parse()
	if *terminals < 1 {
		fatal(fmt.Errorf("-terminals must be ≥ 1, got %d", *terminals))
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be ≥ 1, got %d", *shards))
	}
	if *clusterN < 0 {
		fatal(fmt.Errorf("-cluster must be ≥ 0, got %d", *clusterN))
	}
	if *queue < 0 {
		fatal(fmt.Errorf("-queue must be ≥ 0, got %d", *queue))
	}
	if *workers < 1 {
		fatal(fmt.Errorf("-workers must be ≥ 1, got %d", *workers))
	}
	if *duration <= 0 {
		fatal(fmt.Errorf("-duration must be > 0, got %v", *duration))
	}
	if *replicas < 1 {
		fatal(fmt.Errorf("-replicas must be ≥ 1, got %d", *replicas))
	}
	if *batchLen < 1 {
		fatal(fmt.Errorf("-batch must be ≥ 1, got %d", *batchLen))
	}
	speeds, err := fuzzyho.ParseSpeeds(*speedsCS)
	if err != nil {
		fatal(err)
	}

	streams, err := buildStreams(*scenario, *replicas, speeds)
	if err != nil {
		fatal(err)
	}
	epochs := 0
	for _, s := range streams {
		epochs += len(s)
	}
	topology := "1 engine"
	if *clusterN > 0 {
		topology = fmt.Sprintf("%d cluster nodes", *clusterN)
	}
	fmt.Printf("hoload: %d walk streams (%d epochs) for %d terminals, %s × %d shards, %d workers, %v\n",
		len(streams), epochs, *terminals, topology, *shards, *workers, *duration)

	rings := make([]*timeRing, *terminals)
	for i := range rings {
		rings[i] = &timeRing{}
	}
	var lat fuzzyho.LatencyRecorder
	if *pprofHost != "" {
		go func() {
			if err := http.ListenAndServe(*pprofHost, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hoload: pprof:", err)
			}
		}()
	}

	onDecision := func(o fuzzyho.ServeOutcome) {
		r := rings[int(o.Terminal)]
		t0 := r.slots[o.Seq%ringSize]
		lat.Observe(time.Duration(nowNanos() - t0))
		r.completed.Store(o.Seq + 1)
	}
	target, router, err := buildTarget(*clusterN, *shards, *queue, *algo, *compiled, onDecision)
	if err != nil {
		fatal(err)
	}
	if *churn > 0 && router == nil {
		fatal(fmt.Errorf("-churn needs -cluster N"))
	}
	var sampler *metricsSampler
	if *metricsTo != "" {
		sampler, err = startSampler(*metricsTo, target, &lat)
		if err != nil {
			fatal(err)
		}
	}
	churnStop := make(chan struct{})
	var churnWG sync.WaitGroup
	if *churn > 0 {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			churnLoop(router, *churn, churnStop)
		}()
	}

	start := time.Now()
	deadline := start.Add(*duration)
	var wg sync.WaitGroup
	for w := 0; w < *workers; w++ {
		lo := w * *terminals / *workers
		hi := (w + 1) * *terminals / *workers
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			submitRange(target.submit, streams, rings, lo, hi, *batchLen, deadline)
		}(lo, hi)
	}
	wg.Wait()
	close(churnStop)
	churnWG.Wait()
	if err := target.flush(); err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)
	if err := target.stop(); err != nil {
		fatal(err)
	}
	if sampler != nil {
		if err := sampler.close(); err != nil {
			fatal(err)
		}
	}

	tot := target.totals()
	fmt.Printf("decisions   %d (%d handovers, %d ping-pongs, %d errors)\n",
		tot.Decisions, tot.Handovers, tot.PingPongs, tot.Errors)
	fmt.Printf("throughput  %.0f decisions/sec over %v\n",
		float64(tot.Decisions)/elapsed.Seconds(), elapsed.Round(time.Millisecond))
	fmt.Printf("latency     p50=%v p90=%v p99=%v max=%v (n=%d)\n",
		lat.Quantile(0.50), lat.Quantile(0.90), lat.Quantile(0.99), lat.Max(), lat.Count())
	for _, line := range target.statLines() {
		fmt.Println(line)
	}
	if tot.Errors > 0 {
		os.Exit(1)
	}
}

// metricsSample is one -metrics-out line: a per-second window of the
// run, with windowed (not cumulative) latency quantiles.
type metricsSample struct {
	TSec      float64      `json:"t_sec"`
	Decisions uint64       `json:"decisions"`
	Rate      float64      `json:"decisions_per_sec"`
	P50Ns     int64        `json:"p50_ns"`
	P90Ns     int64        `json:"p90_ns"`
	P99Ns     int64        `json:"p99_ns"`
	MaxNs     int64        `json:"max_ns"`
	Samples   uint64       `json:"samples"`
	Nodes     []nodeSample `json:"nodes,omitempty"`
}

// nodeSample is one node's share of the routed load at sample time.
type nodeSample struct {
	Node      int    `json:"node"`
	Submitted uint64 `json:"submitted"`
	Decisions uint64 `json:"decisions"`
}

// metricsSampler writes the per-second JSONL series for -metrics-out.
type metricsSampler struct {
	f      *os.File
	enc    *json.Encoder
	target *loadTarget
	lat    *fuzzyho.LatencyRecorder
	start  time.Time
	prev   fuzzyho.LatencySnapshot
	prevN  uint64
	prevT  time.Time
	stop   chan struct{}
	done   chan struct{}
	err    error
}

// startSampler opens path and samples once a second until closed.
func startSampler(path string, target *loadTarget, lat *fuzzyho.LatencyRecorder) (*metricsSampler, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("metrics-out: %w", err)
	}
	now := time.Now()
	s := &metricsSampler{
		f: f, enc: json.NewEncoder(f), target: target, lat: lat,
		start: now, prevT: now,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go s.loop()
	return s, nil
}

func (s *metricsSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.sample()
		}
	}
}

// sample writes one window line.  The window runs from the previous
// sample, so the rate divides by its length: the final window close()
// samples is usually shorter than a second.
func (s *metricsSampler) sample() {
	win := s.lat.SnapshotDelta(&s.prev)
	dec := s.target.totals().Decisions
	now := time.Now()
	rec := metricsSample{
		TSec:      now.Sub(s.start).Seconds(),
		Decisions: dec,
		Rate:      float64(dec-s.prevN) / now.Sub(s.prevT).Seconds(),
		P50Ns:     int64(win.Quantile(0.50)),
		P90Ns:     int64(win.Quantile(0.90)),
		P99Ns:     int64(win.Quantile(0.99)),
		MaxNs:     int64(win.Max()),
		Samples:   win.Count(),
	}
	s.prevN, s.prevT = dec, now
	if s.target.nodes != nil {
		for _, n := range s.target.nodes() {
			rec.Nodes = append(rec.Nodes, nodeSample{Node: n.Node, Submitted: n.Submitted, Decisions: n.Decisions})
		}
	}
	if err := s.enc.Encode(rec); err != nil && s.err == nil {
		s.err = fmt.Errorf("metrics-out: %w", err)
	}
}

// close writes a final sample covering the tail window and closes the
// file.
func (s *metricsSampler) close() error {
	close(s.stop)
	<-s.done
	s.sample()
	if err := s.f.Close(); err != nil && s.err == nil {
		s.err = fmt.Errorf("metrics-out: %w", err)
	}
	if s.err == nil {
		fmt.Fprintf(os.Stderr, "hoload: wrote per-second metrics to %s\n", s.f.Name())
	}
	return s.err
}

// churnLoop alternately grows and shrinks the cluster membership every
// interval until stopped: each step migrates the moved terminals' full
// decision state to their new owner under live load.  Shrink steps
// remove the lowest live member, so long-held state keeps moving.
func churnLoop(router *fuzzyho.LocalCluster, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	grow := true
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		if grow {
			start := time.Now()
			id, err := router.AddNode()
			if err != nil {
				fmt.Fprintln(os.Stderr, "hoload: churn add:", err)
			} else {
				fmt.Fprintf(os.Stderr, "hoload: churn: added node %d in %v (members %v)\n", id, time.Since(start).Round(time.Millisecond), router.Members())
			}
		} else if members := router.Members(); len(members) > 1 {
			id := members[0]
			start := time.Now()
			if err := router.RemoveNode(id); err != nil {
				fmt.Fprintln(os.Stderr, "hoload: churn remove:", err)
			} else {
				fmt.Fprintf(os.Stderr, "hoload: churn: removed node %d in %v (members %v)\n", id, time.Since(start).Round(time.Millisecond), router.Members())
			}
		}
		grow = !grow
	}
}

// buildTarget wires either a single engine or an in-process cluster
// router as the replay destination.  The second return is non-nil in
// cluster mode (the -churn hook).
func buildTarget(clusterN, shards, queue int, algo string, compiled bool,
	onDecision func(fuzzyho.ServeOutcome)) (*loadTarget, *fuzzyho.LocalCluster, error) {
	cfg := fuzzyho.ServeConfig{Shards: shards, QueueDepth: queue}
	factory, err := fuzzyho.ServeAlgorithmFactory(algo, compiled)
	if err != nil {
		return nil, nil, err
	}
	if factory != nil {
		cfg.AlgorithmFactory = factory
	} else {
		cfg.Compiled = compiled
	}

	if clusterN > 0 {
		router, err := fuzzyho.NewLocalCluster(fuzzyho.ClusterLocalConfig{
			Nodes:      clusterN,
			Engine:     cfg,
			OnDecision: func(_ int, o fuzzyho.ServeOutcome) { onDecision(o) },
		})
		if err != nil {
			return nil, nil, err
		}
		return &loadTarget{
			submit: router.SubmitBatch,
			flush:  func() error { return router.Flush(time.Minute) },
			stop:   router.Close,
			totals: func() fuzzyho.ClusterNodeStats { return router.Stats().Totals() },
			statLines: func() []string {
				var lines []string
				for _, n := range router.Stats().Nodes {
					lines = append(lines, fmt.Sprintf("node %-3d    %s", n.Node, n))
				}
				return lines
			},
			nodes: func() []fuzzyho.ClusterNodeStats { return router.Stats().Nodes },
		}, router, nil
	}

	cfg.OnDecision = onDecision
	engine, err := fuzzyho.NewServeEngine(cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := engine.Start(); err != nil {
		return nil, nil, err
	}
	return &loadTarget{
		submit: engine.SubmitBatch,
		flush:  func() error { engine.Flush(); return nil },
		stop:   engine.Stop,
		totals: func() fuzzyho.ClusterNodeStats {
			t := engine.Stats().Totals()
			return fuzzyho.ClusterNodeStats{
				Node: -1, Decisions: t.Decisions, Handovers: t.Handovers,
				PingPongs: t.PingPongs, Errors: t.Errors, Terminals: t.Terminals,
			}
		},
		statLines: func() []string {
			var lines []string
			for _, s := range engine.Stats().Shards {
				lines = append(lines, fmt.Sprintf("shard %-3d   %s", s.Shard, s))
			}
			return lines
		},
	}, nil, nil
}

// submitRange drives terminals [lo, hi): round-robin one epoch per
// terminal, batching reports and capping per-terminal in-flight reports
// below the timestamp-ring size.
func submitRange(submit func([]fuzzyho.MeasurementReport) error, streams [][]fuzzyho.MeasurementReport,
	rings []*timeRing, lo, hi, batchLen int, deadline time.Time) {
	batch := make([]fuzzyho.MeasurementReport, 0, batchLen)
	seqs := make([]uint64, hi-lo)
	flush := func() bool {
		if len(batch) == 0 {
			return true
		}
		if err := submit(batch); err != nil {
			fmt.Fprintln(os.Stderr, "hoload:", err)
			return false
		}
		batch = batch[:0]
		return true
	}
	for epoch := 0; ; epoch++ {
		if time.Now().After(deadline) {
			flush()
			return
		}
		for t := lo; t < hi; t++ {
			stream := streams[t%len(streams)]
			seq := seqs[t-lo]
			ring := rings[t]
			// Flow control: keep in-flight below the ring size so the
			// submit timestamp survives until the decision callback.
			for seq-ring.completed.Load() >= ringSize-2 {
				if !flush() || time.Now().After(deadline) {
					return
				}
				runtime.Gosched()
			}
			rep := stream[epoch%len(stream)]
			rep.Terminal = fuzzyho.TerminalID(t)
			ring.slots[seq%ringSize] = nowNanos()
			batch = append(batch, rep)
			seqs[t-lo] = seq + 1
			if len(batch) == batchLen {
				if !flush() {
					return
				}
			}
		}
	}
}

// buildStreams expands the scenario families into a replica × speed fleet
// and simulates each cell once, returning the per-cell report streams
// (terminal IDs are assigned at submit time).
func buildStreams(scenario string, replicas int, speeds []float64) ([][]fuzzyho.MeasurementReport, error) {
	var bases []fuzzyho.SimConfig
	switch scenario {
	case "boundary":
		bases = []fuzzyho.SimConfig{fuzzyho.PaperBoundaryConfig()}
	case "crossing":
		bases = []fuzzyho.SimConfig{fuzzyho.PaperCrossingConfig()}
	case "trend":
		bases = []fuzzyho.SimConfig{fuzzyho.TrendDriftConfig()}
	case "both", "":
		bases = []fuzzyho.SimConfig{fuzzyho.PaperBoundaryConfig(), fuzzyho.PaperCrossingConfig()}
	default:
		return nil, fmt.Errorf("unknown scenario %q (want boundary, crossing, trend or both)", scenario)
	}
	var cfgs []fuzzyho.SimConfig
	for _, b := range bases {
		c, _ := fuzzyho.SweepGrid("load", b, replicas, speeds)
		cfgs = append(cfgs, c...)
	}
	results, err := fuzzyho.RunFleet(cfgs, 0)
	if err != nil {
		return nil, err
	}
	streams := make([][]fuzzyho.MeasurementReport, len(results))
	for i, res := range results {
		streams[i] = fuzzyho.ReplayReports(0, res.Measurements())
	}
	return streams, nil
}

func nowNanos() int64 { return time.Now().UnixNano() }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoload:", err)
	os.Exit(1)
}
