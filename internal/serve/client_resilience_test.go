package serve

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRedialDelaySchedule pins the reconnect backoff as a pure schedule:
// exponential from base, capped, jitter adding at most half a step.
func TestRedialDelaySchedule(t *testing.T) {
	const base, max = 100 * time.Millisecond, 3 * time.Second
	for _, tc := range []struct {
		name    string
		base    time.Duration
		max     time.Duration
		attempt int
		jitter  float64
		want    time.Duration
	}{
		{"first", base, max, 0, 0, 100 * time.Millisecond},
		{"second", base, max, 1, 0, 200 * time.Millisecond},
		{"third", base, max, 2, 0, 400 * time.Millisecond},
		{"capped", base, max, 5, 0, 3 * time.Second},
		{"deep-capped", base, max, 60, 0, 3 * time.Second},
		{"jitter-half-step", base, max, 1, 1, 300 * time.Millisecond},
		{"flat-when-capped-at-base", base, base, 9, 0, base},
		{"zero-attempt-jittered", base, max, 0, 0.5, 125 * time.Millisecond},
	} {
		if got := redialDelay(tc.base, tc.max, tc.attempt, tc.jitter); got != tc.want {
			t.Errorf("%s: redialDelay(%v,%v,%d,%g) = %v, want %v",
				tc.name, tc.base, tc.max, tc.attempt, tc.jitter, got, tc.want)
		}
	}
	// Monotone non-decreasing without jitter: later attempts never wait
	// less (a fleet must spread out, not oscillate back onto the node).
	prev := time.Duration(0)
	for i := 0; i < 20; i++ {
		d := redialDelay(base, max, i, 0)
		if d < prev {
			t.Fatalf("attempt %d waits %v < attempt %d's %v", i, d, i-1, prev)
		}
		prev = d
	}
}

// contReports builds epochs [from, from+n) of the clientTestReports
// stream for the given terminals, so a test can continue a terminal's
// trajectory after a migration or reconnect.
func contReports(terminals []uint64, from, n int) []Report {
	var streams [][]Report
	for _, tid := range terminals {
		var s []Report
		for e := from; e < from+n; e++ {
			s = append(s, Report{
				Terminal: TerminalID(tid),
				Meas: wireMeas(0, 0, 1, 0,
					-80-float64(e), -95+float64(2*e), float64(e)-10, 0.2+0.05*float64(e),
					0.1*float64(e), 30),
			})
		}
		streams = append(streams, s)
	}
	return InterleaveReports(streams)
}

// TestNodeClientIdentityTakeover is the end-to-end reconnect contract:
// cut the connection under a client, let it redial with its identity,
// and the same terminals keep deciding with continuous sequence numbers
// — the reconnection inherits its own claims instead of bouncing off
// them, and the Reconnects counter says what happened.
func TestNodeClientIdentityTakeover(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 2})
	defer stop()

	inj := NewFaultInjector()
	var mu sync.Mutex
	seqs := map[TerminalID][]uint64{}
	c, err := DialNode(addr, NodeClientConfig{
		RedialWait:    10 * time.Millisecond,
		RedialMaxWait: 50 * time.Millisecond,
		Dial:          inj.Dial,
		OnOutcome: func(o Outcome) {
			mu.Lock()
			seqs[o.Terminal] = append(seqs[o.Terminal], o.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	terminals := []uint64{1, 2, 3}
	if err := c.Send(contReports(terminals, 0, 6)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Sever the wire with nothing in flight; the client redials.
	inj.CutAll()

	// Same terminals, next epochs: must be accepted and decided in
	// sequence even if the node hasn't noticed the old connection died.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Send(contReports(terminals, 6, 6))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("send after cut never succeeded: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatalf("flush after reconnect: %v", err)
	}
	cnt := c.Counters()
	if cnt.Reconnects == 0 {
		t.Error("reconnect not counted")
	}
	if cnt.Lost != 0 {
		t.Errorf("lost %d reports across a quiescent cut", cnt.Lost)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tid := range terminals {
		got := seqs[TerminalID(tid)]
		if len(got) != 12 {
			t.Fatalf("terminal %d: %d outcomes, want 12", tid, len(got))
		}
		for i, s := range got {
			if s != uint64(i) {
				t.Fatalf("terminal %d: outcome %d has seq %d — sequence broke at the reconnect", tid, i, s)
			}
		}
	}
}

// cutBeforeWriteConn closes itself at its first report-line write and
// fails that write with no byte sent: the state a writer meets when the
// connection is cut between taking a line from the queue and writing it.
type cutBeforeWriteConn struct {
	net.Conn
	cut bool // only the client's writer goroutine writes
}

func (c *cutBeforeWriteConn) Write(b []byte) (int, error) {
	if !c.cut && !isControlLine(b) {
		c.cut = true
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// TestNodeClientCarriesUnwrittenLine: a report line whose write fails
// before its first byte left never reached the node, so it is not lost:
// the client writes it first on the next connection, and every outcome
// arrives in sequence.
func TestNodeClientCarriesUnwrittenLine(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 2})
	defer stop()

	var dials atomic.Int32
	var mu sync.Mutex
	seqs := map[TerminalID][]uint64{}
	c, err := DialNode(addr, NodeClientConfig{
		RedialWait:    10 * time.Millisecond,
		RedialMaxWait: 50 * time.Millisecond,
		Dial: func(addr string) (net.Conn, error) {
			conn, err := net.Dial("tcp", addr)
			if err != nil || dials.Add(1) > 1 {
				return conn, err
			}
			return &cutBeforeWriteConn{Conn: conn}, nil
		},
		OnOutcome: func(o Outcome) {
			mu.Lock()
			seqs[o.Terminal] = append(seqs[o.Terminal], o.Seq)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	terminals := []uint64{1, 2, 3}
	for _, from := range []int{0, 6} {
		if err := c.Send(contReports(terminals, from, 6)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if cnt := c.Counters(); cnt.Lost != 0 || cnt.Reconnects != 1 || cnt.Delivered != 36 {
		t.Errorf("ledger %+v, want 36 delivered, none lost, one reconnect", cnt)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, tid := range terminals {
		got := seqs[TerminalID(tid)]
		if len(got) != 12 {
			t.Fatalf("terminal %d: %d outcomes, want 12", tid, len(got))
		}
		for i, s := range got {
			if s != uint64(i) {
				t.Fatalf("terminal %d: outcome %d has seq %d", tid, i, s)
			}
		}
	}
}

// TestNodeClientExtractRestore moves live terminal state between two
// nodes over the wire and proves the decision sequences continue on the
// destination exactly where the source left off.
func TestNodeClientExtractRestore(t *testing.T) {
	addr1, stop1 := startTestNode(t, Config{Shards: 2})
	defer stop1()
	addr2, stop2 := startTestNode(t, Config{Shards: 2})
	defer stop2()

	var mu sync.Mutex
	seqs := map[TerminalID][]uint64{}
	record := func(o Outcome) {
		mu.Lock()
		seqs[o.Terminal] = append(seqs[o.Terminal], o.Seq)
		mu.Unlock()
	}
	c1, err := DialNode(addr1, NodeClientConfig{OnOutcome: record})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := DialNode(addr2, NodeClientConfig{OnOutcome: record})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// Terminals 0..3 build 6 epochs of history on node 1.
	if err := c1.Send(contReports([]uint64{0, 1, 2, 3}, 0, 6)); err != nil {
		t.Fatal(err)
	}
	// No explicit Flush: the extract op drains behind the reports.
	// The test node's membership pred keeps id%2==0 for member 0, so
	// extracting as self=0 of members {0,1} ships the odd terminals.
	snaps, err := c1.Extract([]int{0, 1}, 128, 0, false, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 {
		t.Fatalf("extracted %d terminals, want 2 (the odd ones)", len(snaps))
	}
	for _, s := range snaps {
		if s.Terminal%2 == 0 {
			t.Fatalf("extract shipped even terminal %d", s.Terminal)
		}
		if s.Seq != 6 {
			t.Fatalf("terminal %d snapshot at seq %d, want 6", s.Terminal, s.Seq)
		}
	}
	if err := c2.Restore(snaps, false, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Restoring the same terminals again must fail in the ack: they are
	// live on node 2 now.
	if err := c2.Restore(snaps, false, 5*time.Second); err == nil || !strings.Contains(err.Error(), "already live") {
		t.Fatalf("double restore: %v", err)
	}

	// The moved terminals continue on node 2; the kept ones on node 1.
	if err := c2.Send(contReports([]uint64{1, 3}, 6, 6)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(contReports([]uint64{0, 2}, 6, 6)); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c2.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	for tid := TerminalID(0); tid < 4; tid++ {
		got := seqs[tid]
		if len(got) != 12 {
			t.Fatalf("terminal %d: %d outcomes, want 12", tid, len(got))
		}
		for i, s := range got {
			if s != uint64(i) {
				t.Fatalf("terminal %d: outcome %d has seq %d — sequence broke at the migration", tid, i, s)
			}
		}
	}
}

// TestNodeClientCtlUnsupportedOp: a daemon without snapshot hooks
// answers extract inside the ack — the data-plane ledger stays clean.
func TestNodeClientCtlErrorsDoNotPoisonFlush(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 1})
	defer stop()
	c, err := DialNode(addr, NodeClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// self not in members → the extract fails remotely, inside the ack.
	if _, err := c.Extract([]int{5, 6}, 128, 9, false, 5*time.Second); err == nil ||
		!strings.Contains(err.Error(), "self not in members") {
		t.Fatalf("extract with bad membership: %v", err)
	}
	// The failure was op-scoped: reports still flow and Flush balances.
	if err := c.Send(contReports([]uint64{7}, 0, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatalf("flush after failed ctl op: %v", err)
	}
	if cnt := c.Counters(); cnt.RemoteErrors != 0 {
		t.Errorf("ctl failure leaked into remote-error count: %+v", cnt)
	}
}

// TestFaultInjectorShapesTraffic pins the injector's write knobs through
// a real client: a duplicated line double-decides, a partition cuts and
// heals, and the dial counter sees every connection.
func TestFaultInjectorShapesTraffic(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 1})
	defer stop()

	inj := NewFaultInjector()
	var mu sync.Mutex
	var outs []Outcome
	c, err := DialNode(addr, NodeClientConfig{
		RedialWait:    10 * time.Millisecond,
		RedialMaxWait: 50 * time.Millisecond,
		MaxRedials:    200,
		Dial:          inj.Dial,
		OnOutcome: func(o Outcome) {
			mu.Lock()
			outs = append(outs, o)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Prime the connection so the hello line is already on the wire —
	// the knobs must hit report traffic, not the handshake.
	if err := c.Send(contReports([]uint64{1}, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Duplicate the next write: one submitted report, two decisions.
	// (Same connection owns the terminal, so the duplicate is accepted
	// and advances the terminal's state — exactly what a replayed wire
	// message would do.)
	inj.DuplicateWrites(1)
	if err := c.Send(contReports([]uint64{1}, 1, 1)); err != nil {
		t.Fatal(err)
	}
	dupDeadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(outs)
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(dupDeadline) {
			t.Fatalf("duplicated line did not double-decide (%d outcomes)", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	if len(outs) != 3 || outs[1].Seq != 1 || outs[2].Seq != 2 {
		t.Fatalf("duplicate outcomes %+v, want seqs 1,2 for the duplicated report", outs)
	}
	mu.Unlock()

	// Partition: the client cannot reconnect until Heal.
	before := inj.Dials()
	inj.Partition()
	time.Sleep(50 * time.Millisecond)
	if err := c.Err(); err != nil {
		t.Fatalf("client went fatally down during a short partition: %v", err)
	}
	inj.Heal()
	deadline := time.Now().Add(5 * time.Second)
	for inj.Dials() == before {
		if time.Now().After(deadline) {
			t.Fatal("client never redialed after heal")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Send(contReports([]uint64{1}, 1, 1)); err != nil {
		t.Fatalf("send after heal: %v", err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	if cnt := c.Counters(); cnt.Reconnects == 0 {
		t.Errorf("partition+heal left no reconnect trace: %+v", cnt)
	}
}

// secondWriteFails accepts its first write and fails every later one.
type secondWriteFails struct {
	net.Conn // nil: only Write is called
	writes   int
}

func (c *secondWriteFails) Write(b []byte) (int, error) {
	if c.writes++; c.writes > 1 {
		return 0, net.ErrClosed
	}
	return len(b), nil
}

// TestFaultInjectorDuplicateCountsTheSentCopy: a duplicated write whose
// replay fails still reports the first copy as sent, so the client does
// not carry a line the node already has.
func TestFaultInjectorDuplicateCountsTheSentCopy(t *testing.T) {
	inj := NewFaultInjector()
	inj.DuplicateWrites(1)
	fc := &faultConn{Conn: &secondWriteFails{}, f: inj}
	line := []byte("{\"terminal\":1}\n")
	if n, err := fc.Write(line); n != len(line) || err == nil {
		t.Errorf("Write = (%d, %v), want (%d, the replay's error)", n, err, len(line))
	}
}

// TestFaultInjectorDroppedWriteOpensLedgerGap: a silently dropped line
// is exactly the failure Lost accounting exists for — the client can't
// know, but the ledger imbalance is visible and Flush names it.
func TestFaultInjectorDroppedWriteOpensLedgerGap(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 1})
	defer stop()
	inj := NewFaultInjector()
	c, err := DialNode(addr, NodeClientConfig{Dial: inj.Dial})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Prime past the hello handshake so the drop hits a report line.
	if err := c.Send(contReports([]uint64{1}, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	inj.DropWrites(1)
	if err := c.Send(contReports([]uint64{1}, 1, 1)); err != nil {
		t.Fatal(err)
	}
	err = c.Flush(300 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("Flush over a dropped line = %v, want outstanding-report timeout", err)
	}
	if cnt := c.Counters(); cnt.Submitted != 2 || cnt.Delivered != 1 {
		t.Errorf("ledger %+v, want the dropped report outstanding", cnt)
	}
}

// TestBindingSupersededSendRejected covers the protocol edge where an
// old connection keeps writing after its claims were taken over: its
// lines are rejected with ErrSuperseded-derived errors, never submitted.
func TestBindingSupersededSendRejected(t *testing.T) {
	mux := NewDecisionMux()
	e, err := New(Config{Shards: 1, OnDecision: mux.Route})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	mux.Drain = func() error { e.Flush(); return nil }

	old := NewBinding(mux, NewSink(&strings.Builder{}))
	old.SetIdentity("ghost")
	if err := old.Submit(contReports([]uint64{4}, 0, 1), e.SubmitBatch); err != nil {
		t.Fatal(err)
	}
	reborn := NewBinding(mux, NewSink(&strings.Builder{}))
	reborn.SetIdentity("ghost")
	if err := reborn.Submit(contReports([]uint64{4}, 1, 1), e.SubmitBatch); err != nil {
		t.Fatalf("takeover submit: %v", err)
	}
	if err := old.Submit(contReports([]uint64{4}, 2, 1), e.SubmitBatch); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("superseded submit: %v", err)
	}
	e.Flush()
	if tot := e.Stats().Totals(); tot.Decisions != 2 {
		t.Errorf("%d decisions, want 2 — the superseded line must not run", tot.Decisions)
	}
}
