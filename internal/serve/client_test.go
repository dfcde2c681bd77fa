package serve

import (
	"errors"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"
)

// startTestNode serves an engine over TCP with the daemon's connection
// protocol (IngestLines + DecisionMux per connection), returning its
// address and a stop function.  It is the in-test stand-in for a hoserve
// daemon.
func startTestNode(t *testing.T, cfg Config) (addr string, stop func()) {
	t.Helper()
	mux := NewDecisionMux()
	cfg.OnDecision = mux.Route
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &Daemon{
		Name:   "testnode",
		Mux:    mux,
		Submit: e.SubmitBatch,
		Drain:  func() error { e.Flush(); return nil },
		// Stand-in membership pred: member i of members owns terminals
		// with id ≡ i (mod len).  The real daemons build a consistent-
		// hash ring here; the serve-layer protocol doesn't care how the
		// pred partitions.
		Extract: func(members []int, _, self int, keep bool) ([]TerminalSnapshot, error) {
			idx := -1
			for i, m := range members {
				if m == self {
					idx = i
				}
			}
			if idx < 0 {
				return nil, errors.New("self not in members")
			}
			pred := func(id TerminalID) bool {
				return int(id)%len(members) != idx
			}
			if keep {
				return e.SnapshotWhere(pred)
			}
			return e.ExtractSnapshots(pred)
		},
		Restore: func(snaps []TerminalSnapshot, skipLive bool) error {
			if skipLive {
				_, err := e.RestoreSnapshotsSkipLive(snaps)
				return err
			}
			return e.RestoreSnapshots(snaps)
		},
		Release: func(members []int, _, self int) (int, error) {
			idx := -1
			for i, m := range members {
				if m == self {
					idx = i
				}
			}
			if idx < 0 {
				return 0, errors.New("self not in members")
			}
			return e.DiscardTerminals(func(id TerminalID) bool {
				return int(id)%len(members) != idx
			})
		},
		Stats: func() WireStats {
			ws := WireStats{Shards: e.Stats().Shards}
			if cfg.Metrics != nil {
				ws.Points = cfg.Metrics.Export()
			}
			return ws
		},
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
	return ln.Addr().String(), func() {
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

// clientTestReports builds an interleaved multi-terminal stream with
// enough epochs to execute handovers (crossing walk-like powers).
func clientTestReports(terminals, epochs int) []Report {
	var streams [][]Report
	for tid := 0; tid < terminals; tid++ {
		var s []Report
		for e := 0; e < epochs; e++ {
			// Serving decays, neighbor rises: forces eventual handover.
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

// TestNodeClientRoundTrip pins the client against a live node: every
// report decided, per-terminal sequences identical to an in-process
// engine on the same stream.
func TestNodeClientRoundTrip(t *testing.T) {
	const terminals, epochs = 5, 12
	reports := clientTestReports(terminals, epochs)

	// Reference: in-process engine.
	ref := newRecorder(terminals)
	e, err := New(Config{Shards: 2, OnDecision: ref.record})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch(reports); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	e.Stop()

	addr, stop := startTestNode(t, Config{Shards: 2})
	defer stop()

	got := newRecorder(terminals)
	var mu sync.Mutex
	c, err := DialNode(addr, NodeClientConfig{
		OnOutcome: func(o Outcome) { mu.Lock(); got.record(o); mu.Unlock() },
		OnError:   func(err error) { t.Errorf("unexpected client error: %v", err) },
	})
	if err != nil {
		t.Fatal(err)
	}
	// Send in a few batches to exercise coalesced lines.
	for i := 0; i < len(reports); i += 17 {
		end := i + 17
		if end > len(reports) {
			end = len(reports)
		}
		if err := c.Send(reports[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil && !errors.Is(err, ErrClientClosed) {
		t.Fatal(err)
	}

	for tid := 0; tid < terminals; tid++ {
		want, have := *ref[TerminalID(tid)], *got[TerminalID(tid)]
		if len(have) != len(want) {
			t.Fatalf("terminal %d: %d outcomes over the wire, %d in-process", tid, len(have), len(want))
		}
		for j := range want {
			w, h := want[j], have[j]
			if h.Seq != w.Seq || h.Decision.Handover != w.Decision.Handover ||
				h.Decision.Scored != w.Decision.Scored || h.Decision.Score != w.Decision.Score ||
				h.Decision.Reason != w.Decision.Reason || h.Executed != w.Executed || h.PingPong != w.PingPong {
				t.Fatalf("terminal %d epoch %d: wire %+v ≠ in-process %+v", tid, j, h, w)
			}
		}
	}
	cnt := c.Counters()
	if cnt.Submitted != uint64(len(reports)) || cnt.Delivered != cnt.Submitted || cnt.Lost != 0 {
		t.Errorf("ledger %+v, want submitted=delivered=%d lost=0", cnt, len(reports))
	}
}

// TestNodeClientRejectsInvalidReports: wire validity is enforced before
// anything is enqueued — one bad report must fail the Send with its
// index, not poison a coalesced line at the remote daemon.
func TestNodeClientRejectsInvalidReports(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 1})
	defer stop()
	c, err := DialNode(addr, NodeClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	valid := Report{Terminal: 1, Meas: wireMeas(0, 0, 1, 0, -88, -84, -2.5, 1.1, 3.2, 30)}
	sameCell := Report{Terminal: 2, Meas: wireMeas(0, 0, 0, 0, -88, -84, -2.5, 1.1, 3.2, 30)}
	nan := valid
	nan.Meas.ServingDB = math.NaN()
	wideServing := Report{Terminal: 3, Meas: wireMeas(math.MaxInt32+1, 0, 1, 0, -88, -84, -2.5, 1.1, 3.2, 30)}
	wideNeighbor := Report{Terminal: 4, Meas: wireMeas(0, 0, 1, math.MinInt32-1, -88, -84, -2.5, 1.1, 3.2, 30)}
	for _, tc := range []struct {
		name string
		bad  Report
	}{{"serving==neighbor", sameCell}, {"NaN", nan}, {"serving", wideServing}, {"neighbor", wideNeighbor}} {
		err := c.Send([]Report{valid, tc.bad})
		if err == nil || !strings.Contains(err.Error(), "report 1") {
			t.Errorf("%s: Send = %v, want index-naming validation error", tc.name, err)
		}
		if wide := tc.bad.Terminal > 2; wide && !strings.Contains(err.Error(), tc.name+" [") {
			t.Errorf("%s: Send = %v, want the field named", tc.name, err)
		}
	}
	if cnt := c.Counters(); cnt.Submitted != 0 {
		t.Errorf("rejected sends leaked into the ledger: %+v", cnt)
	}
}

// TestNodeClientFlushFailsFastAfterRemoteReject: a line-level reject from
// the node opens a ledger gap the client cannot size; Flush must fail
// fast with a reject-naming error instead of burning its whole timeout.
func TestNodeClientFlushFailsFastAfterRemoteReject(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 1})
	defer stop()

	rs := clientTestReports(1, 1) // terminal 0
	a, err := DialNode(addr, NodeClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(rs); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// A second connection to the same node submitting A's terminal gets
	// an ownership reject — the realistic way a healthy client sees a
	// line-level error.
	b, err := DialNode(addr, NodeClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Send(rs); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = b.Flush(30 * time.Second)
	if err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("Flush after remote reject = %v, want reject-naming error", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("Flush took %v; the reject fail-fast did not engage", elapsed)
	}
	if b.Counters().RemoteErrors == 0 {
		t.Error("remote reject not counted")
	}
}

// TestNodeClientBackpressure: a node that accepts but never reads fills
// the bounded queue; TrySend surfaces ErrBacklogged instead of blocking.
func TestNodeClientBackpressure(t *testing.T) {
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
		<-hold
		conn.Close()
	}()
	// Unblock the peer before Close runs (defers are LIFO): a Close while
	// the writer is kernel-blocked against a never-reading peer would wait
	// out the whole redial budget.
	c, err := DialNode(ln.Addr().String(), NodeClientConfig{
		QueueDepth: 2, RedialWait: 10 * time.Millisecond, MaxRedials: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer unhold()
	rs := clientTestReports(1, 1)
	backlogged := false
	// The OS socket buffer absorbs some lines; the bounded queue must
	// still fill once the writer blocks on the kernel.
	for i := 0; i < 100000 && !backlogged; i++ {
		if err := c.TrySend(rs); err != nil {
			if !errors.Is(err, ErrBacklogged) {
				t.Fatalf("TrySend: %v", err)
			}
			backlogged = true
		}
	}
	if !backlogged {
		t.Fatal("queue never backlogged against a stalled node")
	}
}

// TestNodeClientReconnect: killing the connection mid-stream surfaces the
// in-flight loss and the client reconnects and keeps serving — no silent
// drops, no permanent stall.
func TestNodeClientReconnect(t *testing.T) {
	addr, stop := startTestNode(t, Config{Shards: 1})
	defer stop()

	var errs []string
	var emu sync.Mutex
	delivered := make(chan Outcome, 1024)
	c, err := DialNode(addr, NodeClientConfig{
		RedialWait: 20 * time.Millisecond,
		OnOutcome:  func(o Outcome) { delivered <- o },
		OnError: func(err error) {
			emu.Lock()
			errs = append(errs, err.Error())
			emu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rs := clientTestReports(1, 1)
	if err := c.Send(rs); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Sever the transport under the client: forge a write failure by
	// dialing through a proxy we can kill.  Simpler: restart-capable node
	// keeps listening, so killing the established conn from the client's
	// peer side is enough — the test node closes conns when the listener
	// closes, so instead exercise the path by pointing a second client at
	// a one-shot server that dies after the first line.
	oneshot, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer oneshot.Close()
	accepted := make(chan struct{}, 2)
	go func() {
		first := true
		for {
			conn, err := oneshot.Accept()
			if err != nil {
				return
			}
			accepted <- struct{}{}
			if first {
				first = false
				// Die without answering: the line's reports are lost.
				time.Sleep(30 * time.Millisecond)
				conn.Close()
				continue
			}
			// Second connection: echo outcomes like a healthy node.
			go func(conn net.Conn) {
				mux := NewDecisionMux()
				e, _ := New(Config{Shards: 1, OnDecision: mux.Route})
				e.Start()
				d := &Daemon{
					Name:   "oneshot",
					Mux:    mux,
					Submit: e.SubmitBatch,
					Drain:  func() error { e.Flush(); return nil },
				}
				d.ServeConn(conn)
				e.Stop()
			}(conn)
		}
	}()

	var lostSeen sync.WaitGroup
	lostSeen.Add(1)
	var once sync.Once
	c2, err := DialNode(oneshot.Addr().String(), NodeClientConfig{
		RedialWait: 20 * time.Millisecond,
		OnError: func(err error) {
			if strings.Contains(err.Error(), "lost") {
				once.Do(lostSeen.Done)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	<-accepted
	if err := c2.Send(rs); err != nil {
		t.Fatal(err)
	}
	// Wait until the one-shot conn died and the loss was surfaced.
	done := make(chan struct{})
	go func() { lostSeen.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight loss never surfaced")
	}
	// The client must have reconnected: a fresh send is decided.
	<-accepted
	if err := c2.Send(rs); err != nil {
		t.Fatalf("send after reconnect: %v", err)
	}
	if err := c2.Flush(5 * time.Second); err != nil {
		t.Fatalf("flush after reconnect: %v", err)
	}
	cnt := c2.Counters()
	if cnt.Lost == 0 || cnt.Delivered == 0 {
		t.Errorf("ledger %+v: want both lost (first conn) and delivered (reconnect)", cnt)
	}
}

// TestNodeClientGoesDownLoudly: when the node vanishes for good, the
// client gives up after bounded redials, fails sends with the fatal
// error, and accounts every undelivered report as lost.
func TestNodeClientGoesDownLoudly(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	conns := make(chan net.Conn, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conns <- conn
	}()

	c, err := DialNode(addr, NodeClientConfig{
		RedialWait: 10 * time.Millisecond,
		MaxRedials: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conn := <-conns
	ln.Close() // no reconnection possible
	rs := clientTestReports(1, 1)
	if err := c.Send(rs); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the line hit the dead peer's socket
	conn.Close()

	// Poll sends until the client reports itself down.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := c.Send(rs)
		if err != nil && !errors.Is(err, ErrBacklogged) {
			if !strings.Contains(err.Error(), "gave up") {
				t.Fatalf("fatal error %v, want redial give-up", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never went down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Flush(time.Second); err == nil {
		t.Error("Flush on a down client reported success")
	}
	cnt := c.Counters()
	if cnt.Submitted != cnt.Delivered+cnt.Lost {
		t.Errorf("ledger does not balance: %+v", cnt)
	}
}

// failingReadConn is a connection whose writes succeed and whose every
// read fails with err.
type failingReadConn struct {
	net.Conn // nil: only the methods below are called
	err      error
}

func (c failingReadConn) Read([]byte) (int, error)         { return 0, c.err }
func (c failingReadConn) Write(b []byte) (int, error)      { return len(b), nil }
func (c failingReadConn) Close() error                     { return nil }
func (c failingReadConn) SetDeadline(time.Time) error      { return nil }
func (c failingReadConn) SetReadDeadline(time.Time) error  { return nil }
func (c failingReadConn) SetWriteDeadline(time.Time) error { return nil }

// TestNodeClientSurfacesReadError: when the connection fails a read
// after the hello, OnError receives that read error, not only a generic
// "closed by peer".
func TestNodeClientSurfacesReadError(t *testing.T) {
	errRead := errors.New("read failed on purpose")
	var mu sync.Mutex
	var got []error
	c, err := DialNode("node-under-test", NodeClientConfig{
		MaxRedials: -1,
		Dial:       func(string) (net.Conn, error) { return failingReadConn{err: errRead}, nil },
		OnError: func(err error) {
			mu.Lock()
			got = append(got, err)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("client never went down")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, err := range got {
		if errors.Is(err, errRead) {
			if !strings.Contains(err.Error(), "node-under-test") {
				t.Errorf("read error %q does not name the node", err)
			}
			return
		}
	}
	t.Fatalf("OnError never received the read error; got %v", got)
}
