package serve

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// exportValues flattens a registry export into name → summed value for
// counters/gauges, and name/label → value for labeled points.
func exportValues(points []obs.Point) map[string]float64 {
	out := map[string]float64{}
	for _, p := range points {
		if p.Kind == obs.KindHistogram {
			continue
		}
		if len(p.Labels) == 0 {
			out[p.Name] += p.Value
			continue
		}
		key := p.Name
		for _, l := range p.Labels {
			key += "{" + l.Key + "=" + l.Value + "}"
		}
		out[key] = p.Value
		out[p.Name] += p.Value // aggregate across labels too
	}
	return out
}

// TestMetricsMatchEngineStats pins the tentpole consistency contract:
// after concurrent load and a flush, every counter on /metrics equals the
// corresponding Engine.Stats() field exactly — the collector reads the
// same atomics, so there is no second bookkeeping to drift.  Runs under
// race as-is.
func TestMetricsMatchEngineStats(t *testing.T) {
	reg := obs.NewRegistry()
	e, err := New(Config{Shards: 4, QueueDepth: 256, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	const workers = 4
	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				var r Report
				if i%3 == 0 {
					r = gateMeas(TerminalID(w*64 + i%32))
				} else {
					r = flcMeas(TerminalID(w*64 + i%32))
				}
				if err := e.SubmitBatch([]Report{r}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	e.Flush()

	tot := e.Stats().Totals()
	if tot.Decisions != workers*perWorker {
		t.Fatalf("decisions = %d, want %d", tot.Decisions, workers*perWorker)
	}
	vals := exportValues(reg.Export())
	pin := func(name string, want uint64) {
		t.Helper()
		if got := vals[name]; got != float64(want) {
			t.Errorf("%s = %g, want %d (Engine.Stats)", name, got, want)
		}
	}
	pin("serve_decisions_total", tot.Decisions)
	pin("serve_handovers_total", tot.Handovers)
	pin("serve_pingpongs_total", tot.PingPongs)
	pin("serve_errors_total", tot.Errors)
	pin("serve_terminals", tot.Terminals)
	pin("serve_queue_depth", uint64(tot.QueueDepth))

	// The verdict classes must partition the decision count, and each
	// labeled verdict counter must equal Verdicts().
	var verdictSum uint64
	for name, n := range e.Verdicts() {
		verdictSum += n
		if got := vals[`serve_verdicts_total{verdict=`+name+`}`]; got != float64(n) {
			t.Errorf("verdict %q = %g on /metrics, want %d", name, got, n)
		}
	}
	if verdictSum != tot.Decisions {
		t.Errorf("verdicts sum to %d, decisions %d — classes do not partition", verdictSum, tot.Decisions)
	}

	// Stage histograms observed work: one queue-wait and one service
	// sample per dequeued sub-batch.
	if vals["serve_queue_wait_ns"] != 0 {
		t.Errorf("histogram leaked into counter export")
	}
	for _, p := range reg.Export() {
		if p.Name == "serve_batch_service_ns" && p.Count == 0 {
			t.Errorf("serve_batch_service_ns has no samples after %d decisions", tot.Decisions)
		}
	}

	// And the rendered Prometheus text carries the pinned counter.
	text := obs.PrometheusText(reg.Export())
	if !strings.Contains(text, "serve_decisions_total 2000") {
		t.Errorf("prometheus text lacks pinned serve_decisions_total:\n%s", text)
	}
}

// TestMetricsSteadyStateAllocs extends the engine's zero-alloc pin to a
// metrics-enabled engine: the instrumented steady-state path (queue-wait
// stamps, stage histograms, verdict tallies) must still run without heap
// allocations per decision.
func TestMetricsSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the regression runs in the non-race job")
	}
	reg := obs.NewRegistry()
	e, err := New(Config{Shards: 4, QueueDepth: 512, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	batch := steadyBatch(256, 32)
	for i := 0; i < 4; i++ {
		if err := e.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := e.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	})
	perDecision := allocs / float64(len(batch))
	if perDecision >= 0.01 {
		t.Errorf("metrics-enabled steady state allocates %.4f allocs/decision, want ~0", perDecision)
	}
}

// TestDecisionTraceSampling pins the sampling cadence, the ring bound,
// and the captured FLC explanation.
func TestDecisionTraceSampling(t *testing.T) {
	e, err := New(Config{Shards: 1, QueueDepth: 64, TraceEvery: 5, TraceBuffer: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	for i := 0; i < 50; i++ {
		if err := e.SubmitBatch([]Report{flcMeas(TerminalID(i % 8))}); err != nil {
			t.Fatal(err)
		}
	}
	e.Flush()

	if got := e.TracesSampled(); got != 10 {
		t.Fatalf("sampled %d decisions, want 10 (50 decisions / every 5)", got)
	}
	traces := e.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want the 4 newest", len(traces))
	}
	for i, tr := range traces {
		if tr.Shard != 0 {
			t.Errorf("trace %d: shard %d, want 0", i, tr.Shard)
		}
		if tr.Reason == "" {
			t.Errorf("trace %d: no decision reason", i)
		}
		if tr.FLC == "" {
			t.Errorf("trace %d: no FLC explanation (default algorithm implements Explainer)", i)
		}
		if !strings.Contains(tr.FLC, "HD") {
			t.Errorf("trace %d: FLC text lacks the HD verdict line:\n%s", i, tr.FLC)
		}
		if tr.When.IsZero() {
			t.Errorf("trace %d: zero capture time", i)
		}
	}
	// Oldest-first: samples 7..10 of 10 (decision indices 35, 40, 45, 50).
	for i := 1; i < len(traces); i++ {
		if !traces[i].When.After(traces[i-1].When) && traces[i].When != traces[i-1].When {
			t.Errorf("traces not oldest-first at %d", i)
		}
	}

	// Tracing off → nil.
	e2, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e2.Traces() != nil || e2.TracesSampled() != 0 {
		t.Error("tracing disabled engine reports traces")
	}
}

// TestWireControlStatsRoundTrip pins the {"ctl":"stats"} wire shape:
// encode → isControlLine → parse must reproduce the payload.
func TestWireControlStatsRoundTrip(t *testing.T) {
	st := &WireStats{
		Shards: []ShardStats{
			{Shard: 0, Terminals: 3, Decisions: 10, Handovers: 2, PingPongs: 1, QueueDepth: 5},
			{Shard: 1, Decisions: 7, Errors: 1},
		},
		Points: []obs.Point{
			{Name: "serve_decisions_total", Kind: obs.KindCounter, Value: 17},
			{Name: "serve_queue_wait_ns", Kind: obs.KindHistogram, Count: 4, Sum: 400, Max: 200,
				Labels:    []obs.Label{obs.L("node", "2")},
				Quantiles: []obs.Quantile{{Q: 0.5, Value: 90}}},
		},
	}
	line := AppendControlJSON(nil, WireControl{Op: "stats", Stats: st})
	if !isControlLine(line) {
		t.Fatalf("stats reply not recognized as a control line: %s", line)
	}
	c, err := ParseControlLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if c.Op != "stats" || c.Stats == nil {
		t.Fatalf("parsed op %q, stats %v", c.Op, c.Stats)
	}
	if len(c.Stats.Shards) != 2 || c.Stats.Shards[0].Decisions != 10 || c.Stats.Shards[1].Errors != 1 {
		t.Errorf("shards did not round-trip: %+v", c.Stats.Shards)
	}
	if len(c.Stats.Points) != 2 {
		t.Fatalf("points did not round-trip: %+v", c.Stats.Points)
	}
	p := c.Stats.Points[1]
	if p.Kind != obs.KindHistogram || p.Count != 4 || len(p.Quantiles) != 1 || p.Quantiles[0].Value != 90 {
		t.Errorf("histogram point did not round-trip: %+v", p)
	}
	if len(p.Labels) != 1 || p.Labels[0] != obs.L("node", "2") {
		t.Errorf("labels did not round-trip: %+v", p.Labels)
	}

	// The request side carries no payload and stays a pure ctl line.
	req := AppendControlJSON(nil, WireControl{Op: "stats"})
	if string(req) != `{"ctl":"stats"}`+"\n" {
		t.Errorf("stats request = %q", req)
	}

	// An unsupported-stats error reply round-trips the error.
	errLine := AppendControlJSON(nil, WireControl{Op: "stats", Error: "nope"})
	ec, err := ParseControlLine(errLine)
	if err != nil {
		t.Fatal(err)
	}
	if ec.Error != "nope" || ec.Stats != nil {
		t.Errorf("error reply round-trip: %+v", ec)
	}
}

// TestNodeClientStatsRoundTrip scrapes a live daemon over the wire —
// through the fault-injection transport, across injected latency and a
// connection cut — and pins the scraped counters to the node's truth.
func TestNodeClientStatsRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	addr, stop := startTestNode(t, Config{Shards: 2, Metrics: reg})
	defer stop()

	inj := NewFaultInjector()
	c, err := DialNode(addr, NodeClientConfig{
		RedialWait:    10 * time.Millisecond,
		RedialMaxWait: 50 * time.Millisecond,
		Dial:          inj.Dial,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.Send(clientTestReports(4, 8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	st, err := c.Stats(5 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var decisions uint64
	for _, sh := range st.Shards {
		decisions += sh.Decisions
	}
	if decisions != 32 {
		t.Fatalf("scraped %d decisions across shards, want 32", decisions)
	}
	if got := exportValues(st.Points)["serve_decisions_total"]; got != 32 {
		t.Fatalf("scraped serve_decisions_total = %g, want 32", got)
	}

	// A second scrape under injected latency still completes.
	inj.SetDelay(20 * time.Millisecond)
	if _, err := c.Stats(5 * time.Second); err != nil {
		t.Fatalf("stats under delay: %v", err)
	}
	inj.SetDelay(0)

	// Partition the node: the scrape must fail cleanly (redials are
	// refused too), then heal and the next scrape succeeds.
	inj.Partition()
	if _, err := c.Stats(200 * time.Millisecond); err == nil {
		t.Fatal("stats across a partition succeeded")
	}
	inj.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err = c.Stats(time.Second)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats never recovered after heal: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := exportValues(st.Points)["serve_decisions_total"]; got != 32 {
		t.Fatalf("post-heal serve_decisions_total = %g, want 32", got)
	}
}

// TestStatsNotSupported pins the daemon's error reply when no Stats hook
// is wired (e.g. a stdio-only deployment).
func TestStatsNotSupported(t *testing.T) {
	mux := NewDecisionMux()
	e, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	d := &Daemon{
		Name:   "bare",
		Mux:    mux,
		Submit: e.SubmitBatch,
		Drain:  func() error { e.Flush(); return nil },
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		d.ServeConn(conn)
	}()
	c, err := DialNode(ln.Addr().String(), NodeClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Stats(2 * time.Second); err == nil || !strings.Contains(err.Error(), "not supported") {
		t.Fatalf("want a not-supported error, got %v", err)
	}
}
