package cluster

import (
	"bufio"
	"errors"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// TestTCPRouterKillRestartResumesFromJournal is the crash-safety
// acceptance pin: the ROUTER (not a node) dies mid-migration, a fresh
// router restarts on the same intent journal, and recovery either rolls
// the half-done change back (no cutover record) or forward (cutover
// durable) from the daemons' state — then the replay finishes with zero
// lost reports and decision sequences byte-identical to a static single
// engine.
func TestTCPRouterKillRestartResumesFromJournal(t *testing.T) {
	// Three speeds → 12 terminals: the grown ring reassigns terminals
	// from BOTH incumbents (two speeds would move none — see
	// TestRingShrinkRestoresAssignment for the ring-stability pin).
	reports, terminals := paperGridReports(t, []float64{0, 30, 50}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)
	nodeCfg := serve.Config{Shards: 2, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}

	cases := []struct {
		name        string
		crashAt     string // phase boundary where the router "dies"
		wantMembers []int
	}{
		// Died after the first copy, before anything landed: nothing
		// moved, so the restarted router keeps the old ring.
		{name: "crash-after-copy-rolls-back", crashAt: "copy", wantMembers: []int{0, 1}},
		// Died after copies landed but before the cutover record: the
		// restarted router must reclaim the copies and keep the old ring.
		{name: "crash-before-cutover-rolls-back", crashAt: "restored", wantMembers: []int{0, 1}},
		// Died after every source released but before the cutover record:
		// the reclaimed copies are the only ones left and must go home.
		{name: "crash-after-release-rolls-back", crashAt: "pre-cutover", wantMembers: []int{0, 1}},
		// Died after the cutover record became durable: the restarted
		// router must finish the join and route to the new member.
		{name: "crash-after-cutover-rolls-forward", crashAt: "cutover", wantMembers: []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Each subtest gets its own daemons and journal: a crash leaves
			// state deliberately scattered, which must not leak across cases.
			addr0, stop0 := startNodeDaemon(t, nodeCfg)
			defer stop0()
			addr1, stop1 := startNodeDaemon(t, nodeCfg)
			defer stop1()
			addr2, stop2 := startNodeDaemon(t, nodeCfg)
			defer stop2()
			journal := filepath.Join(t.TempDir(), "journal.jsonl")

			rec := newOutcomeRecorder(terminals)
			var recMu sync.Mutex
			cfg := TCPConfig{
				Addrs:   []string{addr0, addr1},
				Journal: journal,
				OnDecision: func(_ int, o serve.Outcome) {
					recMu.Lock()
					rec.record(o)
					recMu.Unlock()
				},
				OnError: func(node int, err error) { t.Errorf("node %d: %v", node, err) },
			}
			router1, err := DialTCP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mid := len(reports) / 2
			replayChunks(t, router1.SubmitBatch, reports[:mid], 1, nil)
			if err := router1.Flush(20 * time.Second); err != nil {
				t.Fatal(err)
			}

			// "Kill" the router at the phase boundary: the migration is
			// abandoned with no rollback and no journal truncation, exactly
			// the state a SIGKILL would leave behind.
			router1.hook = func(phase string) bool { return phase == tc.crashAt }
			if _, err := router1.AddNode(addr2); !errors.Is(err, errMigrationAbandoned) {
				t.Fatalf("AddNode with crash at %q = %v, want errMigrationAbandoned", tc.crashAt, err)
			}
			tot1 := router1.Stats().Totals()
			if err := router1.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart on the same journal.  DialTCP replays it: the
			// checkpointed membership supersedes Addrs and the pending
			// intent is completed or rolled back from the daemons' state.
			router2, err := DialTCP(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := router2.Members(); !equalInts(got, tc.wantMembers) {
				t.Fatalf("recovered members %v, want %v", got, tc.wantMembers)
			}
			replayChunks(t, router2.SubmitBatch, reports[mid:], 1, nil)
			if err := router2.Flush(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			tot2 := router2.Stats().Totals()
			if err := router2.Close(); err != nil {
				t.Fatal(err)
			}

			checkSequencesEqual(t, "tcp/"+tc.name, rec, ref)
			if lost := tot1.Lost + tot2.Lost; lost != 0 {
				t.Errorf("lost %d reports across the router kill/restart", lost)
			}
			if dec := tot1.Decisions + tot2.Decisions; dec != uint64(len(reports)) {
				t.Errorf("decisions %d, want %d", dec, len(reports))
			}
		})
	}
}

// equalInts reports whether two int slices are element-wise equal.
func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMigrationOverlapsSubmissions pins the two-phase overlap contract
// on both transports: while a migration is frozen mid-copy, submissions
// for UNMOVED arcs decide immediately, submissions for MOVING arcs buffer
// (decisions do not advance), and the cutover releases the buffer so the
// full run stays byte-identical to a static single engine.
func TestMigrationOverlapsSubmissions(t *testing.T) {
	// Three speeds → 12 terminals, so the second half has both moving
	// and unmoved arcs under the 2→3 member ring change.
	reports, terminals := paperGridReports(t, []float64{0, 30, 50}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	// Partition the second half exactly as the router will: terminals the
	// grown ring reassigns to the new member are "moving", the rest are
	// "unmoved".  Ring points depend only on member IDs, so these rings
	// match the router's own.
	mid := len(reports) / 2
	oldRing, err := NewRingMembers([]int{0, 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	newRing, err := NewRingMembers([]int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var unmoved, moving []serve.Report
	for _, r := range reports[mid:] {
		if oldRing.NodeOf(r.Terminal) != newRing.NodeOf(r.Terminal) {
			moving = append(moving, r)
		} else {
			unmoved = append(unmoved, r)
		}
	}
	if len(moving) == 0 || len(unmoved) == 0 {
		t.Fatalf("degenerate partition: %d moving, %d unmoved", len(moving), len(unmoved))
	}

	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			rec := newOutcomeRecorder(terminals)
			var recMu sync.Mutex
			router, c, addNode := tr.start(t, func(_ int, o serve.Outcome) {
				recMu.Lock()
				rec.record(o)
				recMu.Unlock()
			})
			replayChunks(t, router.SubmitBatch, reports[:mid], 1, nil)
			if err := router.Flush(10 * time.Second); err != nil {
				t.Fatal(err)
			}

			// Freeze AddNode after its first copy so the migration window
			// stays open while we probe it.
			entered, hold := make(chan struct{}), make(chan struct{})
			release := sync.OnceFunc(func() { close(hold) })
			defer release()
			paused := false
			c.hook = func(phase string) bool {
				if phase == "copy" && !paused {
					paused = true
					close(entered)
					<-hold
				}
				return false
			}
			addErr := make(chan error, 1)
			go func() {
				id, err := addNode()
				if err == nil && id != 2 {
					err = errors.New("AddNode returned wrong ID")
				}
				addErr <- err
			}()
			<-entered

			if ms := router.Migration(); !ms.Active || ms.Op != "addnode" || ms.Node != 2 {
				t.Fatalf("mid-migration status %+v, want active addnode for node 2", ms)
			}
			base := router.Stats().Totals().Decisions

			// Unmoved arcs must not stall: their decisions land while the
			// migration is still mid-copy.
			if err := router.SubmitBatch(unmoved); err != nil {
				t.Fatal(err)
			}
			if err := router.Flush(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			got := router.Stats().Totals().Decisions
			if got != base+uint64(len(unmoved)) {
				t.Fatalf("unmoved decisions %d, want %d: unmoved arcs stalled during migration", got-base, len(unmoved))
			}

			// Moving arcs buffer: no decisions, all reports held for cutover.
			if err := router.SubmitBatch(moving); err != nil {
				t.Fatal(err)
			}
			if ms := router.Migration(); ms.Buffered != len(moving) {
				t.Fatalf("buffered %d, want %d", ms.Buffered, len(moving))
			}
			if dec := router.Stats().Totals().Decisions; dec != got {
				t.Fatalf("decisions advanced to %d while moving reports should be buffered", dec)
			}

			// Release the migration; cutover flushes the buffer in order.
			release()
			if err := <-addErr; err != nil {
				t.Fatal(err)
			}
			if err := router.Flush(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			checkSequencesEqual(t, tr.name+"/overlap", rec, ref)
			tot := router.Stats().Totals()
			if tot.Decisions != uint64(len(reports)) || tot.Lost != 0 {
				t.Errorf("totals %+v, want decisions=%d lost=0", tot, len(reports))
			}
		})
	}
}

// TestLocalCopyBeforeRelease pins the in-process transport to copy →
// restore → release: paused at every shared hook phase of an AddNode and
// then a RemoveNode, every terminal is live on at least one member
// engine — the joining one included — so no instant of a membership
// change holds a terminal's state nowhere.  The replay then finishes
// byte-identical to a static single engine.
func TestLocalCopyBeforeRelease(t *testing.T) {
	reports, terminals := paperGridReports(t, []float64{0, 30, 50}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	rec := newOutcomeRecorder(terminals)
	var recMu sync.Mutex
	l, err := NewLocal(LocalConfig{
		Nodes:  2,
		Engine: membershipNodeConfig,
		OnDecision: func(_ int, o serve.Outcome) {
			recMu.Lock()
			rec.record(o)
			recMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mid := len(reports) / 2
	replayChunks(t, l.SubmitBatch, reports[:mid], 1, nil)
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}

	// The router links a joining member in only at cutover; capture it
	// as it is started.
	var joining *member
	connect := l.connect
	l.connect = func(id int, addr string) (*member, error) {
		m, err := connect(id, addr)
		joining = m
		return m, err
	}
	op := ""
	paused := map[string]bool{}
	l.hook = func(phase string) bool {
		paused[op+"/"+phase] = true
		var engines []*serve.Engine
		l.memMu.RLock()
		for _, m := range l.nodes {
			engines = append(engines, m.engine)
		}
		l.memMu.RUnlock()
		if op == "addnode" {
			engines = append(engines, joining.engine)
		}
		live := make([]bool, terminals)
		for _, e := range engines {
			snaps, err := e.SnapshotTerminals()
			if err != nil {
				t.Errorf("%s paused at %q: snapshot: %v", op, phase, err)
			}
			for _, s := range snaps {
				live[s.Terminal] = true
			}
		}
		for tid, ok := range live {
			if !ok {
				t.Errorf("%s paused at %q: terminal %d is live on no member engine", op, phase, tid)
			}
		}
		return false
	}
	op = "addnode"
	if _, err := l.AddNode(); err != nil {
		t.Fatal(err)
	}
	op = "removenode"
	if err := l.RemoveNode(0); err != nil {
		t.Fatal(err)
	}
	for _, o := range []string{"addnode", "removenode"} {
		for _, p := range []string{"copy", "restored", "pre-cutover", "cutover"} {
			if !paused[o+"/"+p] {
				t.Errorf("%s never paused at %q", o, p)
			}
		}
	}

	replayChunks(t, l.SubmitBatch, reports[mid:], 1, nil)
	if err := l.Flush(0); err != nil {
		t.Fatal(err)
	}
	checkSequencesEqual(t, "local/copy-before-release", rec, ref)
}

// TestDaemonMembershipCtlOps drives membership through the daemon wire
// control plane — the hocluster front door: {"ctl":"addnode"} and
// {"ctl":"removenode"} lines change the live ring, and a plain engine
// node (no membership hooks) rejects them in the ack, not by dying.
func TestDaemonMembershipCtlOps(t *testing.T) {
	nodeCfg := serve.Config{Shards: 1, QueueDepth: 64}
	addr0, stop0 := startNodeDaemon(t, nodeCfg)
	defer stop0()
	addr1, stop1 := startNodeDaemon(t, nodeCfg)
	defer stop1()
	addr2, stop2 := startNodeDaemon(t, nodeCfg)
	defer stop2()

	router, err := DialTCP(TCPConfig{Addrs: []string{addr0, addr1}})
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	// The front daemon, wired exactly as cmd/hocluster wires it.
	front := &serve.Daemon{
		Name:       "front",
		Mux:        serve.NewDecisionMux(),
		Submit:     router.SubmitBatch,
		Drain:      func() error { return router.Flush(10 * time.Second) },
		AddNode:    router.AddNode,
		RemoveNode: router.RemoveNode,
	}
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		front.ServeConn(server)
	}()
	defer func() { client.Close(); <-done }()

	sc := bufio.NewScanner(client)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	roundTrip := func(c serve.WireControl, wantOp string) serve.WireControl {
		t.Helper()
		if _, err := client.Write(serve.AppendControlJSON(nil, c)); err != nil {
			t.Fatal(err)
		}
		for sc.Scan() {
			ack, err := serve.ParseControlLine(sc.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if ack.Op == wantOp {
				return ack
			}
		}
		t.Fatalf("connection closed before %q ack (scan err %v)", wantOp, sc.Err())
		return serve.WireControl{}
	}

	ack := roundTrip(serve.WireControl{Op: "addnode", Addr: addr2}, "node-added")
	if ack.Error != "" || ack.Node != 2 {
		t.Fatalf("addnode ack %+v, want node 2 with no error", ack)
	}
	if got := router.Members(); !equalInts(got, []int{0, 1, 2}) {
		t.Fatalf("members after ctl addnode: %v, want [0 1 2]", got)
	}

	ack = roundTrip(serve.WireControl{Op: "removenode", Node: 1}, "node-removed")
	if ack.Error != "" || ack.Node != 1 {
		t.Fatalf("removenode ack %+v, want node 1 with no error", ack)
	}
	if got := router.Members(); !equalInts(got, []int{0, 2}) {
		t.Fatalf("members after ctl removenode: %v, want [0 2]", got)
	}

	// A plain engine node has no membership hooks: the op must come back
	// as an error ack on the same connection, never a dropped line.
	conn, err := net.Dial("tcp", addr0)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(serve.AppendControlJSON(nil, serve.WireControl{Op: "addnode", Addr: "127.0.0.1:1"})); err != nil {
		t.Fatal(err)
	}
	nsc := bufio.NewScanner(conn)
	for nsc.Scan() {
		ack, err := serve.ParseControlLine(nsc.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if ack.Op == "node-added" {
			if !strings.Contains(ack.Error, "addnode not supported") {
				t.Fatalf("engine-node addnode ack %+v, want not-supported error", ack)
			}
			return
		}
	}
	t.Fatalf("engine node closed connection before rejecting addnode (scan err %v)", nsc.Err())
}
