package main

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/handover"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sim"
)

// wire-cluster: the production path hoload → hocluster → hoserve in one
// process over loopback TCP, built the way cmd/hocluster and cmd/hoserve
// build it: a front-door serve.Daemon over cluster.TCP, and two node
// serve.Daemons over 1-shard engines with metrics registries on and the
// daemon-default exact inference.  One generator connection sends, every
// 1 ms tick, one line carrying the tick's wcPerTick reports (4,000/s),
// and reads the decision lines back.
//
// Both daemons' sinks flush on a 50 ms ticker, so a decision waits for
// the node sink's next tick and then for the front door's.  The second
// wait is the phase between the two tickers, fixed for a connection's
// life; the front-door connection is opened half a flush period after
// the node connections so that phase is the same in every run, instead of
// a per-run draw from 0–50 ms.  The rate stays far below the ≈13k
// outcomes/s per connection where the 64 KiB sink buffer would fill
// within one tick and flushing would turn fill-driven.
const (
	wcTerminals = 1 << 12
	wcPerTick   = 4
	wcTick      = time.Millisecond
	// wcSetups measured set-ups per run.  One set-up's time varies by
	// ±35% within a run: at one P, how much of the outcome path (node
	// sink, router parse, front-door route) runs before the nodes' last
	// decision depends on scheduling, so its allocations and CPU vary too.
	wcSetups    = 15
	wcPhase     = 25 * time.Millisecond
	wcSettle    = 5 * time.Millisecond
	wcWarmLine  = 64
	wcFlushWait = time.Minute
)

// wcReceiver reads the generator connection's decision lines.  Everything it shares is allocated before it starts and
// read by the generator after a done signal or after it finished.
type wcReceiver struct {
	conn    net.Conn
	pop     *population
	targets []uint64
	done    chan struct{}
	// decided[g] is when the line deciding timed report g arrived.
	decided []int64
	lines   [][]byte // traced: a sample of outcome lines for codec timing
	keep    int

	d        digest
	got      uint64
	errLines uint64
	cpuNs    atomic.Int64
	finished chan struct{}
}

func (r *wcReceiver) run() {
	defer close(r.finished)
	// The thread is locked once the warm-up decisions are in, so the timed
	// phase's CPU is this thread's own; locked during set-up, at one P, it
	// would hand the P back and forth at every read.
	defer runtime.UnlockOSThread()
	buf := make([]byte, 1<<16)
	var ls lineSplitter
	next := 0
	for {
		n, err := r.conn.Read(buf)
		at := now()
		ls.feed(buf[:n], func(line []byte) { r.handle(line, at) })
		for next < len(r.targets) && r.got >= r.targets[next] {
			if next == 0 {
				lockGenThread()
			}
			r.cpuNs.Store(int64(threadCPU()))
			r.done <- struct{}{}
			next++
		}
		r.cpuNs.Store(int64(threadCPU()))
		if err != nil {
			return
		}
	}
}

func (r *wcReceiver) handle(line []byte, at int64) {
	w, err := serve.ParseOutcomeLine(line)
	if err != nil {
		r.errLines++
		return
	}
	r.d.add(wireHash(&w))
	r.got++
	if w.Seq >= 1 {
		if g := r.pop.index(w.Terminal, w.Seq); g < len(r.decided) {
			r.decided[g] = at
		}
		if len(r.lines) < r.keep {
			r.lines = append(r.lines, append([]byte(nil), line...))
		}
	}
}

// wcNode is one hoserve-shaped node.
type wcNode struct {
	engine *serve.Engine
	ln     net.Listener
}

// wireCluster is one built cluster plus the generator's connection.
type wireCluster struct {
	o       opts
	pop     *population
	nodes   [2]wcNode
	router  *cluster.TCP
	frontLn net.Listener
	gen     net.Conn
	recv    *wcReceiver
	// handlers counts daemon accept loops and connection handlers, so
	// teardown can wait for all of them.
	handlers sync.WaitGroup
	errs     atomic.Uint64
	errMsg   atomic.Value
	tr       *wcTrace
	// warmed closes when the node engines have decided one report per
	// terminal: the end of set-up, before those decisions wait out the
	// sinks' flush ticks on their way back.
	decided atomic.Int64
	warmed  chan struct{}
	// decidedAt[g], on the build that serves the timed phase, is when a
	// node engine's OnDecision saw timed report g: the path without the
	// two sinks' flush waits.
	decidedAt []int64
}

func (w *wireCluster) onError(_ int, err error) {
	w.errs.Add(1)
	w.errMsg.Store(err.Error())
}

// build starts the nodes, the router and the front door.
func (w *wireCluster) build() error {
	hash := handover.PaperFeatureSchema().Hash()
	addrs := make([]string, len(w.nodes))
	for i := range w.nodes {
		mux := serve.NewDecisionMux()
		reg := obs.NewRegistry()
		route := mux.Route
		cfg := serve.Config{Shards: 1, Metrics: reg}
		if w.tr != nil {
			route = w.tr.route(w.tr.nodeRoute[i], mux.Route)
			cfg.AlgorithmFactory = w.tr.ps.factory(func() handover.BatchScorer { return handover.NewFuzzy(nil) })
		}
		cfg.OnDecision = func(o serve.Outcome) {
			if o.Seq >= 1 && w.decidedAt != nil {
				if g := w.pop.index(uint64(o.Terminal), o.Seq); g < len(w.decidedAt) {
					w.decidedAt[g] = now()
				}
			}
			route(o)
			if w.decided.Add(1) == wcTerminals {
				close(w.warmed)
			}
		}
		e, err := serve.New(cfg)
		if err != nil {
			return err
		}
		if w.tr != nil {
			w.tr.nodeRoute[i].probe = w.tr.ps.all()[i]
		}
		if err := e.Start(); err != nil {
			return err
		}
		d := &serve.Daemon{
			Name:       "hoserve",
			Mux:        mux,
			Submit:     e.SubmitBatch,
			Drain:      func() error { e.Flush(); return nil },
			SchemaHash: e.SchemaHash(),
			Stats: func() serve.WireStats {
				return serve.WireStats{Shards: e.Stats().Shards, Points: reg.Export()}
			},
		}
		d.Extract, d.Restore, d.Release = cluster.MigrationHooks(e)
		if w.tr != nil {
			d.Submit = w.tr.submit(w.tr.nodeSubmit[i], e.SubmitBatch)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		tl := &trackedListener{Listener: ln, wg: &w.handlers}
		if w.tr != nil {
			tl.rd, tl.wr = w.tr.nodeRead[i], w.tr.nodeWrite[i]
		}
		w.nodes[i] = wcNode{engine: e, ln: ln}
		addrs[i] = ln.Addr().String()
		w.serve(d, tl)
	}

	frontMux := serve.NewDecisionMux()
	reg := obs.NewRegistry()
	route := frontMux.Route
	tcfg := cluster.TCPConfig{Addrs: addrs, SchemaHash: hash, OnError: w.onError}
	if w.tr != nil {
		route = w.tr.route(w.tr.frontRoute, frontMux.Route)
		tcfg.Dial = w.tr.dial(addrs)
	}
	tcfg.OnDecision = func(_ int, o serve.Outcome) { route(o) }
	router, err := cluster.DialTCP(tcfg)
	if err != nil {
		return err
	}
	w.router = router
	cluster.RegisterMetrics(reg, router)
	front := &serve.Daemon{
		Name:       "hocluster",
		Mux:        frontMux,
		Submit:     router.SubmitBatch,
		Drain:      func() error { return router.Flush(wcFlushWait) },
		SchemaHash: hash,
		Stats:      func() serve.WireStats { return serve.WireStats{Points: reg.Export()} },
	}
	if w.tr != nil {
		front.Submit = w.tr.submit(w.tr.frontSubmit, router.SubmitBatch)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.frontLn = ln
	tl := &trackedListener{Listener: ln, wg: &w.handlers}
	if w.tr != nil {
		tl.rd, tl.wr = w.tr.frontRead, w.tr.frontWrite
	}
	w.serve(front, tl)
	return nil
}

// connect opens the generator connection and starts its receiver.
func (w *wireCluster) connect(recv *wcReceiver) error {
	conn, err := net.Dial("tcp", w.frontLn.Addr().String())
	if err != nil {
		return err
	}
	w.gen = conn
	recv.conn = conn
	w.recv = recv
	go recv.run()
	return nil
}

// start builds the cluster, connects the generator and decides one
// report per terminal, and returns the set-up time: until the nodes have
// decided, leaving out the two deliberate waits.
func (w *wireCluster) start(recv *wcReceiver, warm []serve.Report, line []byte) (time.Duration, error) {
	t0 := time.Now()
	if err := w.build(); err != nil {
		return 0, err
	}
	took := time.Since(t0)
	time.Sleep(wcPhase)
	t0 = time.Now()
	if err := w.connect(recv); err != nil {
		return 0, err
	}
	took += time.Since(t0)
	// Let the front door accept the connection and start its flush ticker
	// before load arrives: a ticker goroutine queued behind ingest work
	// would start late, at a random phase.
	time.Sleep(wcSettle)
	t0 = time.Now()
	var err error
	for b := 0; b < len(warm); b += wcWarmLine {
		if line, err = w.sendLine(line, warm[b:b+wcWarmLine]); err != nil {
			return 0, err
		}
	}
	select {
	case <-w.warmed:
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("warm-up: nodes decided %d of %d reports", w.decided.Load(), wcTerminals)
	}
	took += time.Since(t0)
	if err := waitDone(recv.done, 30*time.Second); err != nil {
		return 0, fmt.Errorf("warm-up: %w", err)
	}
	return took, nil
}

func (w *wireCluster) serve(d *serve.Daemon, ln net.Listener) {
	w.handlers.Add(1)
	go func() {
		defer w.handlers.Done()
		d.RunTCP(ln)
	}()
}

// teardown closes the generator connection (the front door drains and
// closes it), the router, the listeners and the engines, and waits until
// every goroutine the build started has ended.
func (w *wireCluster) teardown() error {
	var errs []error
	if w.gen != nil {
		if tc, ok := w.gen.(*net.TCPConn); ok {
			errs = append(errs, tc.CloseWrite())
		}
		<-w.recv.finished
		errs = append(errs, w.gen.Close())
	}
	if w.router != nil {
		errs = append(errs, w.router.Close())
	}
	if w.frontLn != nil {
		w.frontLn.Close()
	}
	for _, n := range w.nodes {
		if n.ln != nil {
			n.ln.Close()
		}
	}
	w.handlers.Wait()
	for _, n := range w.nodes {
		if n.engine != nil {
			errs = append(errs, n.engine.Stop())
		}
	}
	return errors.Join(errs...)
}

// sendLine encodes reports as one batch line and writes it.
func (w *wireCluster) sendLine(buf []byte, rs []serve.Report) ([]byte, error) {
	buf = serve.AppendBatchJSON(buf[:0], rs)
	_, err := w.gen.Write(buf)
	return buf, err
}

func runWireCluster(o opts) (*result, error) {
	streams, walkMs, err := walkStreams([]sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()}, 4, []float64{0, 10, 30, 50}, o.seed)
	if err != nil {
		return nil, err
	}
	pop := newPopulation(streams, wcTerminals, o.seed)
	warm := pop.warmup()
	ticks := int(o.seconds * float64(time.Second/wcTick))
	total := ticks * wcPerTick
	ref, err := referenceDigest(serve.Config{}, wcTerminals+total, func(i int) serve.Report {
		if i < wcTerminals {
			return warm[i]
		}
		return pop.timed(i - wcTerminals)
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}

	// Set-up, single-threaded and repeated: build the cluster and decide
	// one report per terminal.  One more build, unmeasured and with every
	// P free so the daemons' flush tickers start on time (see wcPhase),
	// serves the timed phase.
	var w *wireCluster
	var setups, heaps []float64
	line := make([]byte, 0, 1<<14)
	for rep := 0; rep <= wcSetups; rep++ {
		if w != nil {
			if err := w.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		w = &wireCluster{o: o, pop: pop, warmed: make(chan struct{})}
		if o.traced {
			w.tr = newWCTrace(pop, total)
		}
		recv := &wcReceiver{
			pop: pop, targets: []uint64{wcTerminals, uint64(wcTerminals + total)},
			done: make(chan struct{}, 2), decided: make([]int64, total),
			finished: make(chan struct{}),
		}
		if o.traced {
			recv.keep = 1 << 14
			recv.lines = make([][]byte, 0, recv.keep)
		}
		measured := rep < wcSetups
		if measured {
			runtime.GOMAXPROCS(1)
		} else {
			runtime.GOMAXPROCS(openLoopProcs)
			w.decidedAt = make([]int64, total)
		}
		base := liveHeap()
		took, err := w.start(recv, warm, line)
		if err != nil {
			w.teardown()
			return nil, err
		}
		if measured {
			setups = append(setups, took.Seconds())
			runtime.GOMAXPROCS(2)
			heaps = append(heaps, (liveHeap()-base)/wcTerminals)
		}
	}
	defer runtime.GOMAXPROCS(2)

	// Timed phase.
	if w.tr != nil {
		w.tr.start()
	}
	late := make([]float64, ticks)
	sendAt := make([]int64, ticks)
	var sent [][]byte
	var queued, depth []float64
	batch := make([]serve.Report, wcPerTick)
	sched := newSchedule(2*time.Millisecond, wcTick)
	start := sched.due(0)
	recvCPU0 := w.recv.cpuNs.Load()
	// The sender's thread is locked for the timed phase only (see
	// engine-paper).
	lockGenThread()
	defer runtime.UnlockOSThread()
	gen0 := threadCPU()
	pc := startPhase()
	var sendErr error
	for k := 0; k < ticks; k++ {
		sched.wait()
		for i := range batch {
			batch[i] = pop.timed(k*wcPerTick + i)
		}
		at := now()
		if line, sendErr = w.sendLine(line, batch); sendErr != nil {
			break
		}
		sendAt[k] = at
		late[k] = float64(at-sched.due(k)) / 1e6
		if w.tr != nil {
			if len(sent) < 1<<13 {
				sent = append(sent, append([]byte(nil), line...))
			}
			if k%16 == 0 {
				for _, c := range w.router.ClientCounters() {
					queued = append(queued, float64(c.Counters.QueuedLines))
				}
				for _, n := range w.nodes {
					depth = append(depth, float64(n.engine.Stats().Totals().QueueDepth))
				}
			}
		}
	}
	waitErr := sendErr
	if waitErr == nil {
		waitErr = waitDone(w.recv.done, 30*time.Second)
	}
	tot := pc.stop()
	genCPU := threadCPU() - gen0 + time.Duration(w.recv.cpuNs.Load()-recvCPU0)
	runtime.UnlockOSThread()
	if err := w.teardown(); err != nil && waitErr == nil {
		waitErr = fmt.Errorf("teardown: %w", err)
	}

	res := newResult()
	// Not latency: two 50 ms flush ticks make up nearly all of it (see
	// CHOICES.md), so tracing overhead shows in CPU.
	res.headline, res.higherBetter = "cpu_ms_per_1k_decisions", false
	r := w.recv
	res.attempted = uint64(wcTerminals + total)
	res.failed = res.attempted - min(res.attempted, r.got) + r.errLines + w.errs.Load()
	res.correct = waitErr == nil && r.d == ref && r.errLines == 0
	if waitErr != nil {
		res.notes["error"] = waitErr.Error()
	}
	if m, ok := w.errMsg.Load().(string); ok {
		res.notes["router_error"] = m
	}
	due := func(g int) int64 { return start + int64(g/wcPerTick)*int64(wcTick) }
	var lat, path []float64
	var last int64
	for g, d := range r.decided {
		if d == 0 {
			continue
		}
		lat = append(lat, float64(d-due(g))/1e6)
		last = max(last, d)
	}
	for g, d := range w.decidedAt {
		if d != 0 {
			path = append(path, float64(d-due(g))/1e6)
		}
	}
	decisions := float64(len(lat))
	perWindow := int(latencyWindow/wcTick) * wcPerTick
	// The path itself, due tick → node engine decision, which latency
	// covers along with the flush waits: shown beside latency in every
	// run, so a slower path shows though latency cannot.
	res.layers["gen.decide_ms_p50"] = windowed(path, perWindow, 0.50)
	res.layers["gen.decide_ms_p90"] = windowed(path, perWindow, 0.90)
	res.notes["gen.decide_ms"] = []float64{res.layers["gen.decide_ms_p50"], res.layers["gen.decide_ms_p90"]}
	res.e2e["decisions_per_s"] = decisions / (float64(last-start) / 1e9)
	res.e2e["cpu_ms_per_1k_decisions"] = (tot.cpu - genCPU).Seconds() * 1e3 / (decisions / 1e3)
	res.e2e["latency_p50_ms"] = windowed(lat, perWindow, 0.50)
	res.e2e["latency_p90_ms"] = windowed(lat, perWindow, 0.90)
	res.layers["gen.latency_p99_ms"] = quantile(append([]float64(nil), lat...), 0.99)
	res.e2e["heap_bytes_per_terminal"] = median(heaps)
	res.notes["setup_s"] = append([]float64(nil), setups...)
	res.e2e["setup_s"] = median(setups)
	for _, m := range endToEnd {
		res.samples[m.name] = len(lat)
	}
	res.samples["heap_bytes_per_terminal"] = len(heaps)
	res.samples["setup_s"] = len(setups)
	// Lateness per 100 ms window, like latency: after one box stall the
	// generator sends every overdue tick at once, so a single 100 ms stall
	// alone makes 1% of a 10 s run's ticks late by up to 100 ms.  The run
	// fell behind only when the typical window's p99 did.
	res.lateP99Ms = windowed(late, int(latencyWindow/wcTick), 0.99)
	res.notes["gen.late_max_ms"] = quantile(append([]float64(nil), late...), 1)
	layers := res.layers
	layers["runtime.allocs_per_decision"] = float64(tot.mallocs) / decisions
	layers["runtime.gc_cycles_per_1m_decisions"] = float64(tot.gcs) / decisions * 1e6
	layers["gen.late_p99_ms"] = res.lateP99Ms
	layers["gen.cpu_share"] = genCPU.Seconds() / tot.cpu.Seconds()
	layers["sim.run_ms_per_walk"] = median(walkMs)
	if w.tr != nil {
		layers["serve.client.queued_lines_p50"] = median(queued)
		layers["serve.engine.queue_depth_p50"] = median(depth)
		w.tr.layerMetrics(res, start, sendAt, sent, r)
	}
	return res, nil
}

// wcTrace holds the traced run's hooks: per-report stamps indexed by the
// timed report's global index, and the captured connection traffic.
type wcTrace struct {
	pop   *population
	total int
	ps    *probeSet
	on    atomic.Bool

	frontSubmit *submitHook
	nodeSubmit  [2]*submitHook
	frontRoute  *routeHook
	nodeRoute   [2]*routeHook

	frontRead, frontWrite *capture
	nodeRead, nodeWrite   [2]*capture
	dialRead, dialWrite   [2]*capture
}

// submitHook stamps each report passing a Daemon.Submit hook.  It runs
// on one connection handler goroutine; seq counts the terminal's reports
// through this hook.
type submitHook struct {
	entry, exit []int64
	seq         []uint32
	ns          int64
	reports     uint64
}

// routeHook stamps each outcome passing a decision callback into
// DecisionMux.Route; the node hooks also keep the deciding shard's last
// scorer call bracket.
type routeHook struct {
	entry []int64
	frame [][2]int64
	probe *probe // set before the node's engine starts
	// The front door's hook runs on both node clients' read loops.
	ns       atomic.Int64
	outcomes atomic.Uint64
}

func newWCTrace(pop *population, total int) *wcTrace {
	t := &wcTrace{pop: pop, total: total, ps: &probeSet{capRows: 1 << 16}}
	newSubmit := func() *submitHook {
		return &submitHook{entry: make([]int64, total), exit: make([]int64, total), seq: make([]uint32, pop.size())}
	}
	t.frontSubmit = newSubmit()
	t.frontRoute = &routeHook{entry: make([]int64, total)}
	t.frontRead, t.frontWrite = &capture{}, &capture{}
	for i := 0; i < 2; i++ {
		t.nodeSubmit[i] = newSubmit()
		t.nodeRoute[i] = &routeHook{entry: make([]int64, total), frame: make([][2]int64, total)}
		t.nodeRead[i], t.nodeWrite[i] = &capture{}, &capture{}
		t.dialRead[i], t.dialWrite[i] = &capture{}, &capture{}
	}
	return t
}

// start turns the captures and stamps on for the timed phase.
func (t *wcTrace) start() {
	t.on.Store(true)
	for _, c := range t.captures() {
		c.on.Store(true)
	}
}

func (t *wcTrace) captures() []*capture {
	return []*capture{t.frontRead, t.frontWrite, t.nodeRead[0], t.nodeRead[1], t.nodeWrite[0], t.nodeWrite[1],
		t.dialRead[0], t.dialRead[1], t.dialWrite[0], t.dialWrite[1]}
}

func (t *wcTrace) submit(h *submitHook, next func([]serve.Report) error) func([]serve.Report) error {
	return func(rs []serve.Report) error {
		t0 := now()
		err := next(rs)
		t1 := now()
		for i := range rs {
			term := rs[i].Terminal
			seq := h.seq[term]
			h.seq[term]++
			if seq >= 1 && t.on.Load() {
				if g := t.pop.index(uint64(term), uint64(seq)); g < t.total {
					h.entry[g], h.exit[g] = t0, t1
				}
			}
		}
		if t.on.Load() {
			h.ns += t1 - t0
			h.reports += uint64(len(rs))
		}
		return err
	}
}

func (t *wcTrace) route(h *routeHook, next func(serve.Outcome)) func(serve.Outcome) {
	return func(o serve.Outcome) {
		t0 := now()
		next(o)
		t1 := now()
		if o.Seq >= 1 && t.on.Load() {
			if g := t.pop.index(uint64(o.Terminal), o.Seq); g < t.total {
				h.entry[g] = t0
				if p := h.probe; p != nil {
					h.frame[g] = [2]int64{p.frameStart, p.frameEnd}
				}
			}
			h.ns.Add(t1 - t0)
			h.outcomes.Add(1)
		}
	}
}

// dial wraps the router's node connections to capture their traffic.
func (t *wcTrace) dial(addrs []string) func(string) (net.Conn, error) {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		for i, a := range addrs {
			if a == addr {
				return &tracedConn{Conn: c, rd: t.dialRead[i], wr: t.dialWrite[i]}, nil
			}
		}
		return c, nil
	}
}

// reportStamps maps a captured report-line stream to per-report arrival
// times, counting each terminal's reports from sequence number 1.
func (t *wcTrace) reportStamps(c *capture) ([]int64, int) {
	out := make([]int64, t.total)
	seq := make([]uint32, t.pop.size())
	lines := 0
	for _, l := range c.lines() {
		if len(l.line) > 0 && l.line[0] == '{' && len(l.line) > 6 && string(l.line[:6]) == `{"ctl"` {
			continue
		}
		rs, err := serve.ParseBatchLine(l.line)
		if err != nil {
			continue
		}
		lines++
		for _, r := range rs {
			seq[r.Terminal]++
			if g := t.pop.index(uint64(r.Terminal), uint64(seq[r.Terminal])); g < t.total {
				out[g] = l.at
			}
		}
	}
	return out, lines
}

// outcomeStamps maps a captured outcome-line stream to per-report times.
func (t *wcTrace) outcomeStamps(c *capture) []int64 {
	out := make([]int64, t.total)
	for _, l := range c.lines() {
		w, err := serve.ParseOutcomeLine(l.line)
		if err != nil || w.Seq < 1 {
			continue
		}
		if g := t.pop.index(w.Terminal, w.Seq); g < t.total {
			out[g] = l.at
		}
	}
	return out
}

// layerMetrics derives the traced run's per-layer metrics and the latency
// waterfall from the hooks and captures.
func (t *wcTrace) layerMetrics(res *result, start int64, sendAt []int64, sent [][]byte, r *wcReceiver) {
	layers := res.layers
	frontIn, _ := t.reportStamps(t.frontRead)
	frontOut := t.outcomeStamps(t.frontWrite)
	var nodeIn, nodeOut, dialOut, dialIn [2][]int64
	var reports, lines, writes, bytesOut, bytesIn, outcomes float64
	for i := 0; i < 2; i++ {
		nodeIn[i], _ = t.reportStamps(t.nodeRead[i])
		nodeOut[i] = t.outcomeStamps(t.nodeWrite[i])
		var n int
		dialOut[i], n = t.reportStamps(t.dialWrite[i])
		dialIn[i] = t.outcomeStamps(t.dialRead[i])
		lines += float64(n)
		writes += float64(t.dialWrite[i].calls.Load())
		bytesOut += float64(t.dialWrite[i].bytes.Load())
		bytesIn += float64(t.dialRead[i].bytes.Load())
		reports += float64(t.nodeSubmit[i].reports)
		outcomes += float64(t.nodeRoute[i].outcomes.Load())
	}
	if reports > 0 && lines > 0 {
		layers["serve.wire.bytes_per_report"] = bytesOut / reports
		layers["serve.client.reports_per_line"] = reports / lines
		layers["serve.client.writes_per_1k_reports"] = writes / reports * 1e3
		layers["serve.daemon.submit_ns_per_report"] = float64(t.nodeSubmit[0].ns+t.nodeSubmit[1].ns) / reports
	}
	if outcomes > 0 {
		layers["serve.wire.bytes_per_outcome"] = bytesIn / outcomes
		layers["serve.daemon.route_ns_per_outcome"] = float64(t.nodeRoute[0].ns.Load()+t.nodeRoute[1].ns.Load()+t.frontRoute.ns.Load()) / (outcomes + float64(t.frontRoute.outcomes.Load()))
	}
	if t.frontSubmit.reports > 0 {
		layers["cluster.submit_ns_per_report"] = float64(t.frontSubmit.ns) / float64(t.frontSubmit.reports)
	}
	pt := totalsOf(t.ps)
	pt.handoverMetrics(layers, pt.decides+pt.perReport)
	if pt.cols != nil {
		flc := core.NewFLC()
		sc := flc.NewScratch()
		cols := pt.cols
		var err error
		ns := passesNs(func() {
			for i := range cols[0] {
				if _, err = flc.EvaluateInto(sc, cols[0][i], cols[1][i], cols[2][i]); err != nil {
					return
				}
			}
		})
		if err == nil {
			layers["core.flc_ns_per_eval"] = ns / float64(len(cols[0]))
		}
	}
	codecMetrics(layers, sent, r.lines)

	var residence, flush, nodeFlush, frontFlush []float64
	wf := &waterfall{}
	for g := 0; g < t.total; g++ {
		seen := r.decided[g]
		k := g / wcPerTick
		node := -1
		for i := 0; i < 2; i++ {
			if t.nodeRoute[i].entry[g] != 0 {
				node = i
			}
		}
		if seen == 0 || node < 0 || sendAt[k] == 0 {
			continue
		}
		rep := t.pop.timed(g)
		term, seq := uint64(rep.Terminal), uint64(1+g/t.pop.size())
		due := start + int64(k)*int64(wcTick)
		ns, nr := t.nodeSubmit[node], t.nodeRoute[node]
		residence = append(residence, float64(nr.entry[g]-ns.entry[g])/1e3)
		nodeFlush = append(nodeFlush, float64(nodeOut[node][g]-nr.entry[g])/1e6)
		frontFlush = append(frontFlush, float64(frontOut[g]-t.frontRoute.entry[g])/1e6)
		flush = append(flush, nodeFlush[len(nodeFlush)-1]+frontFlush[len(frontFlush)-1])
		fr := nr.frame[g]
		b := []struct {
			layer string
			at    int64
		}{
			{"gen", sendAt[k]},
			{"host", frontIn[g]},
			{"serve.daemon", t.frontSubmit.entry[g]},
			{"cluster", t.frontSubmit.exit[g]},
			{"serve.client", dialOut[node][g]},
			{"host", nodeIn[node][g]},
			{"serve.daemon", ns.entry[g]},
			{"serve.engine", fr[0]},
			{"handover", fr[1]},
			{"serve.engine", nr.entry[g]},
			{"serve.daemon", nodeOut[node][g]},
			{"host", dialIn[node][g]},
			{"serve.client", t.frontRoute.entry[g]},
			{"serve.daemon", frontOut[g]},
			{"host", seen},
		}
		var spans []span
		prev := due
		for _, s := range b {
			if s.at == 0 {
				continue
			}
			if s.at > prev {
				spans = append(spans, span{Layer: s.layer, Term: term, Seq: seq, Start: prev, End: s.at})
				prev = s.at
			}
		}
		wf.add(wfReq{term: term, seq: seq, start: due, end: seen, spans: spans})
	}
	layers["serve.engine.residence_us_p50"] = quantile(residence, 0.50)
	layers["serve.engine.residence_us_p99"] = quantile(residence, 0.99)
	layers["serve.daemon.flush_wait_ms_p50"] = quantile(flush, 0.50)
	layers["serve.daemon.flush_wait_ms_p99"] = quantile(flush, 0.99)
	for name, xs := range map[string][]float64{"node": nodeFlush, "front": frontFlush} {
		if len(xs) > 0 {
			res.notes["flush_wait_ms_"+name] = []float64{quantile(xs, 0.01), quantile(xs, 0.5), quantile(xs, 0.99)}
		}
	}
	res.spans = newSpanLog(1 << 16)
	wf.shares(layers, res.spans)
}

// codecMetrics times the wire codecs on the run's own lines: the report
// lines the generator sent and a sample of the decision lines it got.
func codecMetrics(layers map[string]float64, sent, outcomes [][]byte) {
	var batches [][]serve.Report
	n := 0
	for _, l := range sent {
		rs, err := serve.ParseBatchLine(l)
		if err != nil {
			continue
		}
		batches = append(batches, rs)
		n += len(rs)
	}
	if n > 0 {
		layers["serve.wire.parse_ns_per_report"] = passesNs(func() {
			for _, l := range sent {
				_, _ = serve.ParseBatchLine(l)
			}
		}) / float64(n)
		buf := make([]byte, 0, 1<<12)
		layers["serve.wire.encode_ns_per_report"] = passesNs(func() {
			for _, rs := range batches {
				buf = serve.AppendBatchJSON(buf[:0], rs)
			}
		}) / float64(n)
	}
	var outs []serve.Outcome
	for _, l := range outcomes {
		if w, err := serve.ParseOutcomeLine(l); err == nil {
			outs = append(outs, w.Outcome())
		}
	}
	if len(outs) > 0 {
		layers["serve.wire.parse_ns_per_outcome"] = passesNs(func() {
			for _, l := range outcomes {
				_, _ = serve.ParseOutcomeLine(l)
			}
		}) / float64(len(outcomes))
		buf := make([]byte, 0, 256)
		layers["serve.wire.encode_ns_per_outcome"] = passesNs(func() {
			for i := range outs {
				buf = serve.AppendOutcomeJSON(buf[:0], outs[i])
			}
		}) / float64(len(outs))
	}
}

// waitDone waits for a completion signal without polling.
func waitDone(done <-chan struct{}, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-done:
		return nil
	case <-t.C:
		return fmt.Errorf("timed out after %v waiting for decisions", timeout)
	}
}
