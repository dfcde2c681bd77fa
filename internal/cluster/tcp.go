package cluster

import (
	"fmt"
	"net"
	"time"

	"repro/internal/serve"
)

// DefaultMigrateTimeout bounds each extract/restore control exchange
// during a TCP membership change.
const DefaultMigrateTimeout = 30 * time.Second

// TCPConfig configures a TCP cluster router: one serve.NodeClient per
// remote hoserve daemon, partitioned by the consistent-hash ring.
type TCPConfig struct {
	// Addrs are the node daemons' dial addresses; the ring member ID is
	// the position in this slice, so the address order is part of the
	// cluster identity (reordering remaps terminals).  AddNode grows the
	// member set with fresh IDs past the initial ones.
	Addrs []string
	// VirtualNodes is the ring's per-member virtual node count (0:
	// DefaultVirtualNodes).
	VirtualNodes int
	// QueueDepth bounds each node's send queue in encoded batch lines (0:
	// serve.DefaultNodeQueueDepth).  A full queue is that node's
	// backpressure signal.
	QueueDepth int
	// RedialWait/RedialMaxWait/MaxRedials/CloseGrace tune each node
	// client's reconnection backoff and bounded teardown (0: serve
	// defaults).
	RedialWait    time.Duration
	RedialMaxWait time.Duration
	MaxRedials    int
	CloseGrace    time.Duration
	// MigrateTimeout bounds each node's extract/restore exchange during
	// AddNode/RemoveNode (0: DefaultMigrateTimeout).
	MigrateTimeout time.Duration
	// Journal, when non-empty, is the migration intent journal path.
	// Membership changes are journaled before any state moves, and a
	// router restarted on the same journal recovers both the committed
	// membership (which then supersedes Addrs) and any half-done change —
	// completing or rolling it back from the daemons' state.  Empty
	// disables crash-safe membership (changes still work; a router killed
	// mid-change strands the moving terminals).
	Journal string
	// OrphanDir is where rollback double-failures quarantine terminal
	// snapshots that could be delivered to no live owner ("": the OS temp
	// directory).
	OrphanDir string
	// OnDecision, when non-nil, receives every outcome with the deciding
	// node's ID, on that node client's reader goroutine.
	OnDecision func(node int, o serve.Outcome)
	// OnError receives per-node failures: line-level remote rejects,
	// lost-report notices, connection losses.  Routing never drops
	// reports silently — when a connection dies, the in-flight count is
	// surfaced here and in Stats().Lost.
	OnError func(node int, err error)
	// Dial, when non-nil, replaces net.Dial for every node client (fault
	// injection, custom transports).
	Dial func(addr string) (net.Conn, error)
	// SchemaHash is the feature-schema hash every node client announces
	// in its hello line (serve.NodeClientConfig.SchemaHash).  Member
	// daemons serving a different schema reject the connection, so a
	// mixed-schema cluster fails at dial time instead of silently
	// mis-scoring reports (0: not announced; daemons then check the
	// paper schema).
	SchemaHash uint64
}

// TCP is the multi-process Router: the router core over remote hoserve
// daemons, speaking the existing newline-JSON wire protocol with a
// dedicated ordered connection and writer per node, batch coalescing per
// destination, per-node backpressure and reconnect-with-error-surfacing
// (see serve.NodeClient for the delivery contract).
//
// Membership is elastic when the daemons serve the snapshot control
// plane (hoserve does): AddNode/RemoveNode move exactly the terminals
// whose ring arc changed, copy before release, while submissions keep
// flowing.  With a Journal configured the change is also crash-safe;
// see TCPConfig.Journal.
type TCP struct {
	core
	cfg TCPConfig
}

// DialTCP connects to every node daemon and returns the router.  All
// dials are synchronous: a cluster with an unreachable member fails
// construction rather than shedding that member's terminals later.
//
// With cfg.Journal set, a checkpoint in the journal supersedes
// cfg.Addrs — runtime membership changes survive a router restart — and
// a pending intent (a change a previous router died inside) is replayed
// before the router serves: rolled back when it never cut over, rolled
// forward when it did.  Either way the journal ends checkpointed to the
// recovered membership.
func DialTCP(cfg TCPConfig) (*TCP, error) {
	if cfg.MigrateTimeout == 0 {
		cfg.MigrateTimeout = DefaultMigrateTimeout
	}
	t := &TCP{cfg: cfg}
	t.configure(cfg.VirtualNodes, cfg.OrphanDir, t.dialNode)
	t.onError = cfg.OnError
	members := make([]int, 0, len(cfg.Addrs))
	addrs := make(map[int]string, len(cfg.Addrs))
	for i, a := range cfg.Addrs {
		members = append(members, i)
		addrs[i] = a
	}
	t.nextID = len(cfg.Addrs)

	var pending JournalState
	if cfg.Journal != "" {
		j, st, err := OpenJournal(cfg.Journal)
		if err != nil {
			return nil, err
		}
		t.journal, pending = j, st
		if st.HasCheckpoint {
			members, addrs = st.Members, st.Addrs
			t.nextID = max(t.nextID, st.NextID)
		} else if st.Intent != nil {
			j.Close()
			return nil, fmt.Errorf("cluster: journal %s carries an intent but no checkpoint; refusing to guess the base membership", cfg.Journal)
		}
	}
	// A member whose removal committed before the previous router died may
	// legitimately be gone already; recovery finishes dropping it.
	gone := -1
	if in := pending.Intent; in != nil && pending.Cutover && in.Op == "removenode" {
		gone = in.Node
	}
	ring, err := NewRingMembers(members, cfg.VirtualNodes)
	if len(members) == 0 {
		err = fmt.Errorf("cluster: no node addresses")
	}
	if err == nil {
		err = t.start(ring, addrs, gone)
	}
	if err == nil && pending.Intent != nil {
		if err = t.recoverIntent(pending); err != nil {
			err = fmt.Errorf("cluster: journal replay: %w", err)
		}
	}
	if err == nil {
		err = t.checkpoint()
	}
	if err != nil {
		t.Close()
		return nil, err
	}
	return t, nil
}

// dialNode dials one member daemon (does not link it into the member
// map).
func (t *TCP) dialNode(id int, addr string) (*member, error) {
	if addr == "" {
		return nil, fmt.Errorf("cluster: node %d has no address", id)
	}
	ccfg := serve.NodeClientConfig{
		QueueDepth:    t.cfg.QueueDepth,
		RedialWait:    t.cfg.RedialWait,
		RedialMaxWait: t.cfg.RedialMaxWait,
		MaxRedials:    t.cfg.MaxRedials,
		CloseGrace:    t.cfg.CloseGrace,
		SchemaHash:    t.cfg.SchemaHash,
		Dial:          t.cfg.Dial,
	}
	if t.cfg.OnDecision != nil {
		ccfg.OnOutcome = func(o serve.Outcome) { t.cfg.OnDecision(id, o) }
	}
	if t.cfg.OnError != nil {
		ccfg.OnError = func(err error) { t.cfg.OnError(id, err) }
	}
	c, err := serve.DialNode(addr, ccfg)
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	return &member{id: id, addr: addr, client: c, timeout: t.cfg.MigrateTimeout}, nil
}

// AddNode dials addr as a fresh member and migrates to it exactly the
// terminals the grown ring assigns to it, in two overlapped phases per
// source: the owner copies its moving arcs (keeping the originals), the
// copies land on the new node, then the owner releases them.  While that
// runs, submissions keep flowing — unmoved arcs route normally and
// moving arcs buffer until the cutover flips the ring, so their stall is
// bounded by their own backlog, not the whole extract/restore window.
// With a journal configured the change is crash-safe: a durable intent
// precedes the first copy and a cutover record commits the change, so a
// router killed mid-change replays the journal on restart (see DialTCP).
// Returns the new member's ID.
func (t *TCP) AddNode(addr string) (int, error) {
	return t.addNode(addr)
}

// Client returns member id's client (read-only use: counters, address),
// or nil after the member departed.
func (t *TCP) Client(id int) *serve.NodeClient {
	if m := t.member(id); m != nil {
		return m.client
	}
	return nil
}

// ClientCounters is one member's raw serve.NodeCounters snapshot paired
// with its cluster identity, for telemetry that wants the client-level
// ledger (redials, lost reports) rather than the NodeStats digest.
type ClientCounters struct {
	Node     int
	Addr     string
	Counters serve.NodeCounters
}

// ClientCounters snapshots every live member's client ledger in
// ascending node order.
//
//fuzzyho:nolockio
func (t *TCP) ClientCounters() []ClientCounters {
	t.memMu.RLock()
	defer t.memMu.RUnlock()
	out := make([]ClientCounters, 0, len(t.nodes))
	for _, m := range t.sortedNodes() {
		out = append(out, ClientCounters{Node: m.id, Addr: m.addr, Counters: m.client.Counters()})
	}
	return out
}
