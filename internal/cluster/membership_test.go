package cluster

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/sim"
)

// TestRingMembersValidation pins NewRingMembers' input contract.
func TestRingMembersValidation(t *testing.T) {
	if _, err := NewRingMembers(nil, 0); err == nil {
		t.Error("empty member set accepted")
	}
	if _, err := NewRingMembers([]int{0, 1, 1}, 0); err == nil {
		t.Error("duplicate member accepted")
	}
	if _, err := NewRingMembers([]int{-1}, 0); err == nil {
		t.Error("negative member accepted")
	}
	if _, err := NewRingMembers([]int{MaxMemberID + 1}, 0); err == nil {
		t.Error("member past MaxMemberID accepted")
	}
	// A sole member with a non-zero ID owns everything under its own ID —
	// the single-member fast path must not hardcode 0.
	r, err := NewRingMembers([]int{7}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := serve.TerminalID(0); id < 100; id++ {
		if n := r.NodeOf(id); n != 7 {
			t.Fatalf("sole member 7: terminal %d routed to %d", id, n)
		}
	}
	if got := r.Members(); len(got) != 1 || got[0] != 7 {
		t.Errorf("Members() = %v, want [7]", got)
	}
}

// TestRingShrinkRestoresAssignment extends the grow-stability pin
// (TestRingMembershipStability in ring_test.go) with the inverse
// direction elastic membership needs: shrinking {0,1,2,3} back to
// {0,1,2} restores the exact original assignment, because a member's
// ring points depend only on its own ID.
func TestRingShrinkRestoresAssignment(t *testing.T) {
	before, err := NewRingMembers([]int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	after, err := NewRingMembers([]int{0, 1, 2, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	const terminals = 100000
	moved := 0
	for id := serve.TerminalID(0); id < terminals; id++ {
		a, b := before.NodeOf(id), after.NodeOf(id)
		if a == b {
			continue
		}
		if b != 3 {
			t.Fatalf("terminal %d moved %d → %d: only the new member may gain terminals", id, a, b)
		}
		moved++
	}
	// The new member should take ~1/4; allow generous slack for hash
	// variance at the default virtual-node density.
	if frac := float64(moved) / terminals; frac < 0.10 || frac > 0.45 {
		t.Errorf("grow moved %.1f%% of terminals, want roughly 25%%", 100*frac)
	}
	// Shrinking is exactly the inverse.
	shrunk, err := NewRingMembers([]int{0, 1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for id := serve.TerminalID(0); id < terminals; id++ {
		if before.NodeOf(id) != shrunk.NodeOf(id) {
			t.Fatalf("terminal %d: rebuilt ring disagrees with original", id)
		}
	}
}

// replayChunks submits reports in chunks, invoking between(chunkIdx)
// before each chunk past the first — the hook point where membership
// changes happen mid-replay.
func replayChunks(t *testing.T, submit func([]serve.Report) error, reports []serve.Report,
	chunks int, between func(chunk int)) {
	t.Helper()
	per := (len(reports) + chunks - 1) / chunks
	for c := 0; c < chunks; c++ {
		lo, hi := c*per, (c+1)*per
		if hi > len(reports) {
			hi = len(reports)
		}
		if lo >= hi {
			break
		}
		if c > 0 && between != nil {
			between(c)
		}
		for i := lo; i < hi; i += 97 {
			end := i + 97
			if end > hi {
				end = hi
			}
			if err := submit(reports[i:end]); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// membershipNodeConfig is the per-member engine of the membership
// table tests, on either transport.
var membershipNodeConfig = serve.Config{Shards: 2, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}

// transports are the two ways the router core reaches its members.  Each
// start builds a 2-member router (IDs 0 and 1) with a third member ready
// to join, returning the router, its core (for the test hook) and the
// call that joins the spare.  Everything it starts is torn down by
// t.Cleanup.
var transports = []struct {
	name  string
	start func(t *testing.T, onDecision func(node int, o serve.Outcome)) (Router, *core, func() (int, error))
}{
	{"local", func(t *testing.T, onDecision func(int, serve.Outcome)) (Router, *core, func() (int, error)) {
		l, err := NewLocal(LocalConfig{Nodes: 2, Engine: membershipNodeConfig, OnDecision: onDecision})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l, &l.core, l.AddNode
	}},
	{"tcp", func(t *testing.T, onDecision func(int, serve.Outcome)) (Router, *core, func() (int, error)) {
		addrs := make([]string, 3)
		for i := range addrs {
			addr, stop := startNodeDaemon(t, membershipNodeConfig)
			t.Cleanup(stop)
			addrs[i] = addr
		}
		r, err := DialTCP(TCPConfig{
			Addrs:      addrs[:2],
			OnDecision: onDecision,
			OnError:    func(node int, err error) { t.Errorf("node %d: %v", node, err) },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r, &r.core, func() (int, error) { return r.AddNode(addrs[2]) }
	}},
}

// TestMembershipEquivalence is the membership acceptance pin on both
// transports: a node joins after the first third of the replay and node
// 0 leaves after the second (state migrating in-process, or over the
// wire control plane), and every terminal's decision sequence stays
// byte-identical to a static single engine — migration moves authority,
// never history: no terminal state lost, duplicated, or interleaved.
func TestMembershipEquivalence(t *testing.T) {
	reports, terminals := paperGridReports(t, []float64{0, 30, 50}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			rec := newOutcomeRecorder(terminals)
			var recMu sync.Mutex
			router, _, addNode := tr.start(t, func(_ int, o serve.Outcome) {
				recMu.Lock()
				rec.record(o)
				recMu.Unlock()
			})
			replayChunks(t, router.SubmitBatch, reports, 3, func(chunk int) {
				switch chunk {
				case 1:
					// Join: node 2 takes its arcs from both incumbents.
					id, err := addNode()
					if err != nil {
						t.Fatal(err)
					}
					if id != 2 {
						t.Fatalf("AddNode ID %d, want 2", id)
					}
				case 2:
					// Leave: node 0 hands everything it holds to nodes 1 and 2.
					if err := router.RemoveNode(0); err != nil {
						t.Fatal(err)
					}
				}
			})
			if err := router.Flush(20 * time.Second); err != nil {
				t.Fatal(err)
			}
			if got := router.Members(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
				t.Fatalf("final members %v, want [1 2]", got)
			}
			checkSequencesEqual(t, tr.name+"/elastic", rec, ref)

			st := router.Stats()
			tot := st.Totals()
			if tot.Submitted != uint64(len(reports)) || tot.Decisions != uint64(len(reports)) || tot.Lost != 0 {
				t.Errorf("totals %+v, want submitted=decisions=%d lost=0", tot, len(reports))
			}
			// The departed member must survive in Stats as a frozen snapshot,
			// or its decisions vanish from the ledger.
			var departed *NodeStats
			for i := range st.Nodes {
				if st.Nodes[i].Departed {
					departed = &st.Nodes[i]
				}
			}
			if departed == nil {
				t.Fatal("removed node absent from Stats")
			}
			if departed.Node != 0 || departed.Decisions == 0 {
				t.Errorf("departed stats %+v, want node 0 with decisions", departed)
			}
			if err := router.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLocalRemoveGuards pins RemoveNode's refusals: unknown members and
// the last member.
func TestLocalRemoveGuards(t *testing.T) {
	l, err := NewLocal(LocalConfig{Nodes: 1, Engine: serve.Config{Shards: 1, QueueDepth: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.RemoveNode(5); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Errorf("RemoveNode(5) = %v, want not-a-member", err)
	}
	if err := l.RemoveNode(0); err == nil || !strings.Contains(err.Error(), "last member") {
		t.Errorf("RemoveNode(0) on sole member = %v, want last-member refusal", err)
	}
}

// TestTCPNodeKillRestartRecovers is crash recovery end to end: a node is
// killed outright (listener and connections torn down), restarted on the
// same address from its whole-node snapshot, and the router's client
// redials and resumes — every terminal's sequence byte-identical to the
// static single-engine run, with zero reports lost.
func TestTCPNodeKillRestartRecovers(t *testing.T) {
	reports, terminals := paperGridReports(t, []float64{0, 30}, nil)
	single := serve.Config{Shards: 4, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	ref := runSingleEngine(t, single, reports, terminals)

	nodeCfg := serve.Config{Shards: 2, QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}
	addr0, stop0 := startNodeDaemon(t, nodeCfg)
	defer stop0()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	eng1, addr1, stop1 := startNodeDaemonOn(t, ln1, nodeCfg)

	rec := newOutcomeRecorder(terminals)
	var recMu sync.Mutex
	router, err := DialTCP(TCPConfig{
		Addrs:      []string{addr0, addr1},
		RedialWait: 10 * time.Millisecond,
		MaxRedials: 200,
		OnDecision: func(_ int, o serve.Outcome) {
			recMu.Lock()
			rec.record(o)
			recMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	mid := len(reports) / 2
	replayChunks(t, router.SubmitBatch, reports[:mid], 1, nil)
	// Quiesce so the snapshot captures every decision the client has seen.
	if err := router.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	eng1.Flush()
	snaps, err := eng1.SnapshotTerminals()
	if err != nil {
		t.Fatal(err)
	}

	// Kill node 1: listener closed, connections severed, engine gone.
	stop1()

	// Restart on the SAME address from the snapshot (hoserve -restore).
	var ln2 net.Listener
	for attempt := 0; ; attempt++ {
		ln2, err = net.Listen("tcp", addr1)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("rebinding %s: %v", addr1, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	eng2, _, stop2 := startNodeDaemonOn(t, ln2, nodeCfg)
	defer stop2()
	if err := eng2.RestoreSnapshots(snaps); err != nil {
		t.Fatal(err)
	}

	// Wait for the client to re-establish before resuming: a line written
	// into the severed socket before the client notices the EOF is
	// correctly ledgered as lost (no retransmit on the wire), and this
	// test wants the zero-loss recovery path, not the loss-accounting one.
	c1 := router.Client(1)
	reconDeadline := time.Now().Add(10 * time.Second)
	for c1.Counters().Reconnects == 0 {
		if time.Now().After(reconDeadline) {
			t.Fatal("client never reconnected to the restarted node")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The node client redials on its own; sends retry through the redial
	// window (the send queue may fill while the connection is down).
	deadline := time.Now().Add(10 * time.Second)
	for i := mid; i < len(reports); i += 97 {
		end := i + 97
		if end > len(reports) {
			end = len(reports)
		}
		for {
			err := router.SubmitBatch(reports[i:end])
			if err == nil {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("submitting after restart: %v", err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := router.Flush(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	checkSequencesEqual(t, "tcp/kill-restart", rec, ref)

	tot := router.Stats().Totals()
	if tot.Lost != 0 {
		t.Errorf("lost %d reports across the kill/restart; snapshot recovery must not shed", tot.Lost)
	}
	if tot.Reconnects == 0 {
		t.Error("no reconnects recorded; the kill never exercised the redial path")
	}
	if err := router.Close(); err != nil {
		t.Fatal(err)
	}
}
