package cluster

import (
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
	"repro/internal/serve"
	"repro/internal/sim"
)

// testMeas builds a valid measurement whose inputs vary with id.
func testMeas(id int) cell.Measurement {
	return cell.Measurement{
		Serving:    hexgrid.Cell{I: 0, J: 0},
		Neighbor:   hexgrid.Cell{I: 1, J: 0},
		ServingDB:  -80 - float64(id%7),
		NeighborDB: -100 + float64(id%9),
		CSSPdB:     -1 + float64(id%5)*0.5,
		DMBNorm:    0.5 + float64(id%4)*0.1,
		WalkedKm:   0.1 * float64(id%11),
		SpeedKmh:   float64(10 * (id % 5)),
	}
}

// startNodeDaemon serves one engine over TCP with the daemon connection
// protocol — the in-test stand-in for a hoserve process.  Returns the
// node's address and a stop function.
func startNodeDaemon(t testing.TB, cfg serve.Config) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, addr, stop = startNodeDaemonOn(t, ln, cfg)
	return addr, stop
}

// startNodeDaemonOn is startNodeDaemon on a caller-provided listener
// (kill/restart tests rebind the same port), also returning the engine
// so crash-recovery tests can snapshot it.  The daemon serves the full
// snapshot control plane, exactly as hoserve wires it.
func startNodeDaemonOn(t testing.TB, ln net.Listener, cfg serve.Config) (engine *serve.Engine, addr string, stop func()) {
	t.Helper()
	mux := serve.NewDecisionMux()
	cfg.OnDecision = mux.Route
	e, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	d := &serve.Daemon{
		Name:       "testnode",
		Mux:        mux,
		Submit:     e.SubmitBatch,
		Drain:      func() error { e.Flush(); return nil },
		SchemaHash: e.SchemaHash(),
	}
	d.Extract, d.Restore, d.Release = MigrationHooks(e)
	d.Stats = func() serve.WireStats {
		ws := serve.WireStats{Shards: e.Stats().Shards}
		if cfg.Metrics != nil {
			ws.Points = cfg.Metrics.Export()
		}
		return ws
	}
	var wg sync.WaitGroup
	var cmu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			cmu.Lock()
			conns = append(conns, conn)
			cmu.Unlock()
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				d.ServeConn(conn)
			}(conn)
		}
	}()
	return e, ln.Addr().String(), func() {
		ln.Close()
		cmu.Lock()
		for _, c := range conns {
			c.Close()
		}
		cmu.Unlock()
		wg.Wait()
		e.Stop()
	}
}

// TestTCPClusterMatchesSingleEngine runs the paper scenario grid through
// a 2-node TCP cluster (real sockets, real wire protocol) and demands
// per-terminal decision sequences identical to a single engine — wire
// codec parity included, since scores and flags survive the JSON round
// trip bit for bit.
func TestTCPClusterMatchesSingleEngine(t *testing.T) {
	reports, terminals := paperGridReports(t, []float64{0, 30}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	nodeCfg := serve.Config{Shards: 2, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	addr0, stop0 := startNodeDaemon(t, nodeCfg)
	defer stop0()
	addr1, stop1 := startNodeDaemon(t, nodeCfg)
	defer stop1()

	rec := newOutcomeRecorder(terminals)
	var recMu sync.Mutex
	router, err := DialTCP(TCPConfig{
		Addrs: []string{addr0, addr1},
		OnDecision: func(_ int, o serve.Outcome) {
			// Two node readers may interleave across terminals; each
			// terminal still arrives on exactly one reader.  The lock
			// only orders the slice-header writes.
			recMu.Lock()
			rec.record(o)
			recMu.Unlock()
		},
		OnError: func(node int, err error) { t.Errorf("node %d: %v", node, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(reports); i += 113 {
		end := i + 113
		if end > len(reports) {
			end = len(reports)
		}
		if err := router.SubmitBatch(reports[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.Flush(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	tot := router.Stats().Totals()
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}

	checkSequencesEqual(t, "tcp/nodes=2", rec, ref)
	if tot.Submitted != uint64(len(reports)) || tot.Decisions != uint64(len(reports)) || tot.Lost != 0 {
		t.Errorf("totals %+v, want submitted=decisions=%d lost=0", tot, len(reports))
	}
	if tot.Handovers == 0 {
		t.Error("grid executed no handovers over TCP; equivalence is vacuous")
	}
	// Both nodes must have decided — otherwise the ring degenerated.
	for _, ns := range router.Stats().Nodes {
		if ns.Decisions == 0 {
			t.Errorf("node %d (%s) decided nothing", ns.Node, ns.Addr)
		}
	}
}

// trendNodeConfig is a node engine serving the 4-input trend schema.
func trendNodeConfig(shards int) serve.Config {
	return serve.Config{
		Shards: shards, QueueDepth: 64,
		PingPongWindowKm: sim.DefaultPingPongWindowKm,
		AlgorithmFactory: func() handover.Algorithm {
			a, err := handover.NewCompiledTrendFuzzy()
			if err != nil {
				panic(err)
			}
			return a
		},
	}
}

// TestTCPClusterSchemaMismatch pins the fail-fast contract of the hello
// schema exchange: a router announcing the paper schema (the zero-value
// default) against a node serving the trend schema is rejected at the
// first connection — loudly, through OnError — and a router announcing
// the matching hash is served.
func TestTCPClusterSchemaMismatch(t *testing.T) {
	addr, stop := startNodeDaemon(t, trendNodeConfig(1))
	defer stop()

	errCh := make(chan error, 64)
	router, err := DialTCP(TCPConfig{
		Addrs:      []string{addr},
		RedialWait: 10 * time.Millisecond,
		MaxRedials: 2,
		OnError:    func(_ int, err error) { errCh <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	sawMismatch := false
	deadline := time.After(10 * time.Second)
	for !sawMismatch {
		select {
		case err := <-errCh:
			if strings.Contains(err.Error(), "schema mismatch") {
				sawMismatch = true
			}
		case <-deadline:
			t.Fatal("schema mismatch never surfaced through OnError")
		}
	}

	// The matching announcement is served end to end.
	ok, err := DialTCP(TCPConfig{
		Addrs:      []string{addr},
		SchemaHash: handover.TrendFeatureSchema().Hash(),
		OnError:    func(_ int, err error) { t.Errorf("matching schema: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	var rs []serve.Report
	for id := 0; id < 64; id++ {
		rs = append(rs, serve.Report{Terminal: serve.TerminalID(id), Meas: testMeas(id)})
	}
	if err := ok.SubmitBatch(rs); err != nil {
		t.Fatal(err)
	}
	if err := ok.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := ok.Stats().Totals().Decisions; got != uint64(len(rs)) {
		t.Errorf("matching-schema router decided %d, want %d", got, len(rs))
	}
	if err := ok.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestTCPClusterTrendFuzzyMatchesSingleEngine extends the wire-parity
// guarantee to the 4-input stateful schema: the trend fleet through a
// 2-node TCP cluster of trend engines must reproduce a single trend
// engine's per-terminal sequences — which also exercises the schema
// announcement on every node connection.
func TestTCPClusterTrendFuzzyMatchesSingleEngine(t *testing.T) {
	cfgs, _ := sim.SweepGrid("cluster", sim.TrendDriftConfig(), 2, []float64{0, 30})
	factory := func() handover.Algorithm {
		a, err := handover.NewCompiledTrendFuzzy()
		if err != nil {
			panic(err)
		}
		return a
	}
	for i := range cfgs {
		cfgs[i].AlgorithmFactory = factory
	}
	streams := make([][]serve.Report, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("sim config %d: %v", i, err)
		}
		streams[i] = serve.ReplayReports(serve.TerminalID(i), res.Measurements())
	}
	reports, terminals := serve.InterleaveReports(streams), len(cfgs)

	ref := runSingleEngine(t, trendNodeConfig(4), reports, terminals)

	addr0, stop0 := startNodeDaemon(t, trendNodeConfig(2))
	defer stop0()
	addr1, stop1 := startNodeDaemon(t, trendNodeConfig(2))
	defer stop1()

	rec := newOutcomeRecorder(terminals)
	var recMu sync.Mutex
	router, err := DialTCP(TCPConfig{
		Addrs:      []string{addr0, addr1},
		SchemaHash: handover.TrendFeatureSchema().Hash(),
		OnDecision: func(_ int, o serve.Outcome) {
			recMu.Lock()
			rec.record(o)
			recMu.Unlock()
		},
		OnError: func(node int, err error) { t.Errorf("node %d: %v", node, err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(reports); i += 113 {
		end := i + 113
		if end > len(reports) {
			end = len(reports)
		}
		if err := router.SubmitBatch(reports[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := router.Flush(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
	checkSequencesEqual(t, "tcp-trend/nodes=2", rec, ref)
}

// TestTCPClusterBackpressure: a node that accepts but does not read
// fills its bounded send queue and socket buffers, and SubmitBatch then
// blocks on it, while the healthy node keeps deciding its share; once the
// stalled node reads again, the blocked SubmitBatch returns.
func TestTCPClusterBackpressure(t *testing.T) {
	// Healthy node.
	addr0, stop0 := startNodeDaemon(t, serve.Config{Shards: 1, QueueDepth: 64})
	defer stop0()
	// Stalled node: accepts, then reads nothing until released.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	hold := make(chan struct{})
	var holdOnce sync.Once
	unhold := func() { holdOnce.Do(func() { close(hold) }) }
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		<-hold
		io.Copy(io.Discard, conn)
	}()

	router, err := DialTCP(TCPConfig{
		Addrs:      []string{addr0, ln.Addr().String()},
		QueueDepth: 2,
		CloseGrace: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()
	defer unhold()

	var rs []serve.Report
	for id := 0; id < 512; id++ {
		rs = append(rs, serve.Report{Terminal: serve.TerminalID(id), Meas: testMeas(id)})
	}
	const maxBatches = 1 << 14
	var sent atomic.Int64
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		for i := 0; i < maxBatches && !stop.Load(); i++ {
			if err := router.SubmitBatch(rs); err != nil {
				done <- err
				return
			}
			sent.Add(1)
		}
		done <- nil
	}()

	// Blocked: the batch count stops moving with the stalled node's
	// queue full.
	stalled := router.Client(1)
	deadline := time.Now().Add(10 * time.Second)
	for last := int64(-1); ; {
		select {
		case err := <-done:
			t.Fatalf("submitter finished (%v) after %d batches without blocking on a node that does not read", err, sent.Load())
		case <-time.After(100 * time.Millisecond):
		}
		n := sent.Load()
		if n == last && stalled.Counters().QueuedLines == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("SubmitBatch never blocked: %d batches sent, %d lines queued", n, stalled.Counters().QueuedLines)
		}
		last = n
	}
	blocked := sent.Load()

	// The healthy node accepted its share and decides all of it while its
	// peer is stalled.
	healthy := router.Client(0)
	if err := healthy.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if n0 := healthy.Counters(); n0.Submitted == 0 || n0.Delivered != n0.Submitted {
		t.Errorf("healthy node %+v while its peer was stalled, want its share accepted and decided", n0)
	}

	// Unblocked: once the stalled node reads, the pending SubmitBatch
	// returns.
	unhold()
	deadline = time.Now().Add(10 * time.Second)
	for sent.Load() == blocked {
		if time.Now().After(deadline) {
			t.Fatal("SubmitBatch still blocked after the stalled node resumed reading")
		}
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestTCPClusterSurfacesNodeLoss: killing one node mid-stream surfaces
// the loss through OnError and the Lost counter — never a silent drop —
// while the surviving node keeps deciding its terminals.
func TestTCPClusterSurfacesNodeLoss(t *testing.T) {
	addr0, stop0 := startNodeDaemon(t, serve.Config{Shards: 1, QueueDepth: 64})
	defer stop0()
	addr1, stop1 := startNodeDaemon(t, serve.Config{Shards: 1, QueueDepth: 64})

	lossCh := make(chan error, 64)
	router, err := DialTCP(TCPConfig{
		Addrs:      []string{addr0, addr1},
		RedialWait: 10 * time.Millisecond,
		MaxRedials: 2,
		OnError:    func(node int, err error) { lossCh <- err },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	var rs []serve.Report
	for id := 0; id < 256; id++ {
		rs = append(rs, serve.Report{Terminal: serve.TerminalID(id), Meas: testMeas(id)})
	}
	if err := router.SubmitBatch(rs); err != nil {
		t.Fatal(err)
	}
	if err := router.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	stop1() // node 1 dies for good
	deadline := time.Now().Add(10 * time.Second)
	lossSeen := false
	for !lossSeen && time.Now().Before(deadline) {
		if err := router.SubmitBatch(rs); err != nil {
			// Node 1 down for good: submission against it now fails
			// loudly, which also satisfies the no-silent-drop contract.
			lossSeen = true
			break
		}
		select {
		case <-lossCh:
			lossSeen = true
		case <-time.After(20 * time.Millisecond):
		}
	}
	if !lossSeen {
		t.Fatal("node loss never surfaced")
	}
	if router.Stats().Nodes[0].Decisions == 0 {
		t.Error("surviving node decided nothing")
	}
}
