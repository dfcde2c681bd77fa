package cluster

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// member is one ring member: an in-process engine or a remote hoserve
// daemon reached through its node client — exactly one of the two is
// set.  It is a concrete type rather than an interface so hovet's
// lockcheck follows every call the submit path makes under memMu.
type member struct {
	id     int
	addr   string // dial address ("" in-process)
	engine *serve.Engine
	client *serve.NodeClient
	// timeout bounds each client control exchange (extract, restore,
	// release).
	timeout time.Duration
	// submitted is the in-process route ledger; a client keeps its own.
	submitted atomic.Uint64
}

// submit routes one sub-batch, blocking under the member's backpressure.
//
//fuzzyho:nolockio
func (m *member) submit(rs []serve.Report) error {
	if m.client != nil {
		return m.client.Send(rs)
	}
	// Account before the engine call, as the engine itself does: once a
	// report is queued the node may decide it immediately, and a counter
	// that lags lets Stats observe decisions > submitted.
	m.submitted.Add(uint64(len(rs)))
	//fuzzyho:allow backpressure by design: the engine's shard consumers drain independently of memMu, so this wait is bounded by shard progress, never by the membership change itself
	if err := m.engine.SubmitBatch(rs); err != nil {
		m.submitted.Add(^uint64(len(rs) - 1)) // roll back the optimistic accounting
		return err
	}
	return nil
}

// flush waits until every report routed to the member is decided (or,
// over TCP, accounted lost).  In-process queues drain deterministically,
// so the engine never consults the timeout.
func (m *member) flush(timeout time.Duration) error {
	if m.client != nil {
		return m.client.Flush(timeout)
	}
	m.engine.Flush()
	return nil
}

// stats snapshots the member's counters: the engine's shard totals, or
// the client's ledger (terminal counts are not carried on the wire).
//
//fuzzyho:nolockio
func (m *member) stats() NodeStats {
	if m.client != nil {
		cnt := m.client.Counters()
		return NodeStats{
			Node:       m.id,
			Addr:       m.addr,
			Submitted:  cnt.Submitted,
			Decisions:  cnt.Delivered,
			Lost:       cnt.Lost,
			Handovers:  cnt.Handovers,
			PingPongs:  cnt.PingPongs,
			Errors:     cnt.RemoteErrors,
			Reconnects: cnt.Reconnects,
			QueueDepth: cnt.QueuedLines,
		}
	}
	tot := m.engine.Stats().Totals()
	return NodeStats{
		Node:       m.id,
		Submitted:  m.submitted.Load(),
		Decisions:  tot.Decisions,
		Handovers:  tot.Handovers,
		PingPongs:  tot.PingPongs,
		Errors:     tot.Errors,
		Terminals:  tot.Terminals,
		QueueDepth: tot.QueueDepth,
	}
}

// close drains and stops the engine, or drains and closes the client.
func (m *member) close() error {
	if m.client != nil {
		if err := m.client.Close(); !errors.Is(err, serve.ErrClientClosed) {
			return err
		}
		return nil
	}
	return m.engine.Stop()
}

// extract snapshots every terminal the ring does not assign to m — all
// of them when m is not in the ring.  keep copies (m stays authoritative
// until release); otherwise the terminals are removed.  Either way the
// snapshot rides behind every report already routed to m, so it carries
// the terminal's complete decision history.
func (m *member) extract(ring *Ring, keep bool) ([]serve.TerminalSnapshot, error) {
	if m.client != nil {
		return m.client.Extract(ring.members, ring.vnodes, m.id, keep, m.timeout)
	}
	pred := func(t serve.TerminalID) bool { return ring.NodeOf(t) != m.id }
	if keep {
		return m.engine.SnapshotWhere(pred)
	}
	return m.engine.ExtractSnapshots(pred)
}

// release drops what extract(ring, true) copied: the commit of a move,
// issued only after the copies landed on their new owners.
func (m *member) release(ring *Ring) (int, error) {
	if m.client != nil {
		return m.client.Release(ring.members, ring.vnodes, m.id, m.timeout)
	}
	return m.engine.DiscardTerminals(func(t serve.TerminalID) bool { return ring.NodeOf(t) != m.id })
}

// restore installs snapshots.  skipLive makes an already-live terminal a
// silent skip instead of an error — the idempotent form rollback and
// journal replay use.
func (m *member) restore(snaps []serve.TerminalSnapshot, skipLive bool) error {
	if m.client != nil {
		return m.client.Restore(snaps, skipLive, m.timeout)
	}
	if skipLive {
		_, err := m.engine.RestoreSnapshotsSkipLive(snaps)
		return err
	}
	return m.engine.RestoreSnapshots(snaps)
}

// core is the router state machine both transports run: the ring and
// member map, the two-phase membership change with rollback and orphan
// quarantine, the optional intent journal and its replay, and the
// submit, flush, stats and close paths.  Local and TCP embed it and
// differ only in how they connect a member.
//
// Membership is elastic: AddNode/RemoveNode move exactly the terminals
// whose ring arc changed, copy before release, while submissions keep
// flowing — unmoved arcs route normally, moving arcs buffer until the
// cutover flips the ring (see migration).
type core struct {
	vnodes    int // ring virtual nodes per member (0 resolved to the default)
	orphanDir string
	journal   *Journal // nil: membership changes are not crash-safe
	onError   func(node int, err error)
	// connect builds and starts member id (addr is its dial address, ""
	// in-process) without linking it into the member map.
	connect func(id int, addr string) (*member, error)

	// changeMu serializes membership changes — one migration at a time.
	// memMu orders the brief ring mutations against routing: submits hold
	// the read side; only installing the migration window and the cutover
	// take the write side.  The copy/restore/release sweep itself runs
	// under neither — that is the two-phase overlap.
	changeMu sync.Mutex
	memMu    sync.RWMutex
	ring     *Ring
	nodes    map[int]*member
	nextID   int
	retired  []NodeStats
	// mig is non-nil while a membership change is in flight; submit paths
	// consult it under the read lock (see migration).
	mig     *migration
	migStat migTracker

	// hook is a test-only hook consulted at the sweep's phase boundaries
	// ("copy", "restored", "pre-cutover", "cutover").  It may block to
	// hold a migration open; returning true abandons the change exactly
	// as a killed router would — no rollback, no journal truncation — so
	// recovery tests can replay the journal from a half-done state.
	hook func(phase string) bool

	// scatter recycles the per-call member → sub-batch tables.
	scatter sync.Pool

	closeOnce sync.Once
	closeErr  error
}

// configure resolves the configuration defaults shared by both
// transports.
func (c *core) configure(vnodes int, orphanDir string, connect func(int, string) (*member, error)) {
	if vnodes == 0 {
		vnodes = DefaultVirtualNodes
	}
	c.vnodes, c.orphanDir, c.connect = vnodes, orphanDir, connect
	c.nodes = map[int]*member{}
	c.scatter.New = func() any { return &map[int][]serve.Report{} }
}

// start connects and links every member of ring (addrs: dial addresses,
// nil in-process).  Only member gone may fail to connect (-1: none).
// On error the caller closes the router, which closes what connected.
func (c *core) start(ring *Ring, addrs map[int]string, gone int) error {
	c.ring = ring
	for _, id := range ring.members {
		c.nextID = max(c.nextID, id+1)
		m, err := c.connect(id, addrs[id])
		if err != nil && id == gone {
			continue
		}
		if err != nil {
			return err
		}
		c.nodes[id] = m
	}
	return nil
}

// crashed consults the test-only hook at a phase boundary.
func (c *core) crashed(phase string) bool {
	return c.hook != nil && c.hook(phase)
}

// NumNodes implements Router.
//
//fuzzyho:nolockio
func (c *core) NumNodes() int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.ring.Nodes()
}

// Members implements Router.
//
//fuzzyho:nolockio
func (c *core) Members() []int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.ring.Members()
}

// NodeOf implements Router.
//
//fuzzyho:nolockio
func (c *core) NodeOf(id serve.TerminalID) int {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.ring.NodeOf(id)
}

// member returns live member id, or nil.
func (c *core) member(id int) *member {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	return c.nodes[id]
}

// owners snapshots the member map, plus node when it is not linked yet
// (a joining member).
func (c *core) owners(node *member) map[int]*member {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	out := make(map[int]*member, len(c.nodes)+1)
	for id, m := range c.nodes {
		out[id] = m
	}
	if node != nil {
		out[node.id] = node
	}
	return out
}

// sortedNodes returns the live members in ascending ID order.
//
//fuzzyho:nolockio
func (c *core) sortedNodes() []*member {
	out := make([]*member, 0, len(c.nodes))
	for _, m := range c.nodes {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// byOwner groups snapshots by the member ring assigns each terminal to.
func byOwner(ring *Ring, snaps []serve.TerminalSnapshot) map[int][]serve.TerminalSnapshot {
	out := map[int][]serve.TerminalSnapshot{}
	for _, s := range snaps {
		d := ring.NodeOf(s.Terminal)
		out[d] = append(out[d], s)
	}
	return out
}

// addNode connects a fresh member (addr: its daemon, "" in-process) and
// migrates to it exactly the terminals the grown ring assigns to it.
// Returns the new member's ID.
func (c *core) addNode(addr string) (int, error) {
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	c.memMu.RLock()
	oldRing, id := c.ring, c.nextID
	c.memMu.RUnlock()
	newRing, err := NewRingMembers(append(oldRing.Members(), id), c.vnodes)
	if err != nil {
		return 0, err
	}
	node, err := c.connect(id, addr)
	if err != nil {
		return 0, err
	}
	committed, err := c.change("addnode", node, oldRing, newRing)
	if !committed {
		// A member that never joined is torn down — after a simulated
		// crash too: a real one closes that socket as well.
		node.close()
		return 0, err
	}
	return id, err
}

// RemoveNode implements Router: it migrates every terminal member id
// owns to the members the shrunk ring assigns them to, freezes the
// departing member's final counters into Stats (Departed), and closes
// it.  Submissions keep flowing throughout: only the departing member's
// arcs buffer, everything else routes normally.
func (c *core) RemoveNode(id int) error {
	c.changeMu.Lock()
	defer c.changeMu.Unlock()
	c.memMu.RLock()
	node, oldRing := c.nodes[id], c.ring
	c.memMu.RUnlock()
	if node == nil {
		return fmt.Errorf("cluster: node %d is not a member", id)
	}
	if oldRing.Nodes() == 1 {
		return fmt.Errorf("cluster: cannot remove the last member")
	}
	rest := make([]int, 0, oldRing.Nodes()-1)
	for _, m := range oldRing.members {
		if m != id {
			rest = append(rest, m)
		}
	}
	newRing, err := NewRingMembers(rest, c.vnodes)
	if err != nil {
		return err
	}
	_, err = c.change("removenode", node, oldRing, newRing)
	return err
}

// change runs one membership change end to end — node is the member
// joining (connected, not yet linked) or leaving — and reports whether
// it committed.  With a journal the intent is durable before any state
// moves and the cutover record commits the change, so a router killed
// anywhere in between replays the journal on restart (see DialTCP).  A
// failed sweep rolls back to the old ring.
func (c *core) change(op string, node *member, oldRing, newRing *Ring) (bool, error) {
	if c.journal != nil {
		if err := c.journal.Intent(IntentRecord{
			Op: op, Node: node.id, Addr: node.addr,
			Members: oldRing.Members(), NewMembers: newRing.Members(), VNodes: c.vnodes,
		}); err != nil {
			return false, fmt.Errorf("cluster: journaling %s intent: %w", op, err)
		}
	}
	c.beginMigration(op, node.id, oldRing, newRing)
	err := c.sweep(node, oldRing, newRing, false)
	if errors.Is(err, errMigrationAbandoned) {
		// Simulated router crash: leave the half-moved state and the
		// journaled intent exactly as a dead process would.
		return false, err
	}
	if err != nil {
		rbErr := c.rollback(node, oldRing, newRing)
		return false, errors.Join(err, rbErr, c.abortMigration(), c.checkpoint())
	}
	return true, errors.Join(c.commit(node, newRing), c.checkpoint())
}

// beginMigration installs the route-to-both window: from here until
// cutover (or abort), submissions for moving terminals buffer instead of
// routing, and everything else routes under the old ring.
func (c *core) beginMigration(op string, node int, oldRing, newRing *Ring) {
	m := &migration{oldRing: oldRing, newRing: newRing}
	c.memMu.Lock()
	c.mig = m
	c.memMu.Unlock()
	c.migStat.begin(op, node)
}

// sweep moves the terminals whose owner changes from oldRing to
// newRing, source by source: the source copies its moving arcs (keeping
// the originals), the copies land on their new owners, then the source
// releases them.  At every instant some member holds a complete replica
// of each moving terminal, which is what makes a crash anywhere
// recoverable.  A joining member takes arcs from every incumbent; a
// leaving one is the only source.  replay restores skip-live, so a
// recovering router can re-run a half-done sweep idempotently.
func (c *core) sweep(node *member, oldRing, newRing *Ring, replay bool) error {
	owners := c.owners(node)
	joining := slices.Contains(newRing.members, node.id)
	var srcs []*member
	for _, id := range oldRing.members {
		if m := owners[id]; m != nil && (joining || m == node) {
			srcs = append(srcs, m)
		}
	}
	for _, src := range srcs {
		c.migStat.phase(fmt.Sprintf("copy:%d", src.id))
		snaps, err := src.extract(newRing, true)
		if err != nil {
			return fmt.Errorf("cluster: copying from node %d: %w", src.id, err)
		}
		if c.crashed("copy") {
			return errMigrationAbandoned
		}
		if len(snaps) == 0 {
			continue
		}
		byDest := byOwner(newRing, snaps)
		for _, d := range newRing.members {
			if len(byDest[d]) == 0 {
				continue
			}
			c.migStat.phase(fmt.Sprintf("restore:%d", d))
			if err := owners[d].restore(byDest[d], replay); err != nil {
				return fmt.Errorf("cluster: restoring into node %d: %w", d, err)
			}
		}
		if c.journal != nil {
			// Best effort: replay does not depend on phase records.
			c.journal.Phase(PhaseRecord{Phase: "moved", Source: src.id, Count: len(snaps)})
		}
		if c.crashed("restored") {
			return errMigrationAbandoned
		}
		c.migStat.phase("release")
		if _, err := src.release(newRing); err != nil {
			return fmt.Errorf("cluster: releasing moved arcs on node %d: %w", src.id, err)
		}
	}
	if c.crashed("pre-cutover") {
		return errMigrationAbandoned
	}
	c.migStat.phase("cutover")
	if c.journal != nil {
		// Unlike phase records this one is load-bearing: without it a
		// crash would roll back a change whose release already ran.
		if err := c.journal.Cutover(); err != nil {
			return fmt.Errorf("cluster: journaling cutover: %w", err)
		}
	}
	if c.crashed("cutover") {
		return errMigrationAbandoned
	}
	return nil
}

// rollback undoes a failed sweep: every member that may have received
// copies — the joining member, or everyone staying when one leaves —
// gives back what oldRing does not assign it, and the state returns to
// its old-ring owners.  Sources that already released get their arcs
// back; sources that did not skip the duplicates.
func (c *core) rollback(node *member, oldRing, newRing *Ring) error {
	owners := c.owners(node)
	joining := slices.Contains(newRing.members, node.id)
	var recipients []*member
	for _, id := range newRing.members {
		if m := owners[id]; m != nil && (!joining || m == node) {
			recipients = append(recipients, m)
		}
	}
	var errs []error
	for _, r := range recipients {
		back, err := r.extract(oldRing, false)
		if err != nil {
			errs = append(errs, fmt.Errorf("cluster: reclaiming from node %d failed — its terminal state is still there: %w", r.id, err))
			continue
		}
		errs = append(errs, returnToOwners(oldRing, owners, back, c.orphanDir))
	}
	return errors.Join(errs...)
}

// returnToOwners restores snapshots skip-live to the members ring
// assigns them to.  Snapshots that can land nowhere are quarantined,
// never dropped.
func returnToOwners(ring *Ring, owners map[int]*member, snaps []serve.TerminalSnapshot, orphanDir string) error {
	var errs []error
	var orphans []serve.TerminalSnapshot
	byDest := byOwner(ring, snaps)
	for _, d := range ring.members {
		group := byDest[d]
		if len(group) == 0 {
			continue
		}
		m, ok := owners[d]
		if !ok {
			errs = append(errs, fmt.Errorf("cluster: owner %d of %d reclaimed terminals is not a live member", d, len(group)))
			orphans = append(orphans, group...)
			continue
		}
		if err := m.restore(group, true); err != nil {
			errs = append(errs, fmt.Errorf("cluster: returning %d terminals to node %d: %w", len(group), d, err))
			orphans = append(orphans, group...)
		}
	}
	if len(orphans) > 0 {
		errs = append(errs, orphanError(orphanDir, orphans))
	}
	return errors.Join(errs...)
}

// commit flips the ring and releases the buffered moving-arc reports
// under one write lock, so no post-cutover submission can outrun them
// and break per-terminal order.  A joining member is linked in; a
// leaving one is retired with its final counters frozen, then closed.
func (c *core) commit(node *member, newRing *Ring) error {
	joining := slices.Contains(newRing.members, node.id)
	c.memMu.Lock()
	if joining {
		c.nodes[node.id] = node
		c.nextID = max(c.nextID, node.id+1)
	} else {
		st := node.stats()
		st.Departed = true
		c.retired = append(c.retired, st)
		delete(c.nodes, node.id)
	}
	c.ring = newRing
	buf := c.mig.take()
	c.mig = nil
	err := c.submitLocked(buf)
	c.memMu.Unlock()
	c.migStat.end()
	if err != nil {
		err = fmt.Errorf("cluster: migration committed, but releasing %d buffered reports failed: %w", len(buf), err)
	}
	if !joining {
		if cerr := node.close(); cerr != nil {
			err = errors.Join(err, fmt.Errorf("cluster: closing node %d: %w", node.id, cerr))
		}
	}
	return err
}

// abortMigration dismantles the window after a rolled-back change: the
// buffered moving-terminal reports are released under the UNCHANGED old
// ring (their owners kept — or got back — their state).
func (c *core) abortMigration() error {
	c.memMu.Lock()
	buf := c.mig.take()
	c.mig = nil
	err := c.submitLocked(buf)
	c.memMu.Unlock()
	c.migStat.end()
	if err != nil {
		return fmt.Errorf("cluster: resubmitting %d reports buffered during the aborted migration: %w", len(buf), err)
	}
	return nil
}

// recoverIntent completes or rolls back the half-done membership change
// a previous router process left in the journal, with the live
// machinery: before the cutover record the change never committed, so
// it rolls back and the old membership stands; at or past cutover the
// sweep re-runs skip-live (idempotent) and the change commits.  Runs at
// construction, before the router serves anything.
func (c *core) recoverIntent(st JournalState) error {
	in := st.Intent
	if in.Op != "addnode" && in.Op != "removenode" {
		return fmt.Errorf("unknown intent op %q", in.Op)
	}
	oldRing, err := NewRingMembers(in.Members, in.VNodes)
	if err != nil {
		return fmt.Errorf("old ring: %w", err)
	}
	newRing, err := NewRingMembers(in.NewMembers, in.VNodes)
	if err != nil {
		return fmt.Errorf("new ring: %w", err)
	}
	node := c.nodes[in.Node]
	switch {
	case in.Op == "addnode":
		if node, err = c.connect(in.Node, in.Addr); err != nil {
			return fmt.Errorf("dialing half-joined node %d at %s: %w", in.Node, in.Addr, err)
		}
	case node == nil && st.Cutover:
		// A committed removal whose departing daemon is already gone:
		// every copy landed and was released before the cutover record,
		// so only the ring flip remains.
		c.ring = newRing
		return nil
	case node == nil:
		return fmt.Errorf("departing node %d is not a member", in.Node)
	}
	c.beginMigration(in.Op, in.Node, oldRing, newRing)
	if st.Cutover {
		if err = c.sweep(node, oldRing, newRing, true); err == nil {
			return c.commit(node, newRing)
		}
	} else {
		err = errors.Join(c.rollback(node, oldRing, newRing), c.abortMigration())
	}
	if in.Op == "addnode" {
		node.close()
	}
	return err
}

// checkpoint rewrites the journal (if any) to the current membership,
// truncating any completed intent.
func (c *core) checkpoint() error {
	if c.journal == nil {
		return nil
	}
	c.memMu.RLock()
	members := c.ring.Members()
	addrs := make(map[int]string, len(c.nodes))
	for id, m := range c.nodes {
		addrs[id] = m.addr
	}
	next := c.nextID
	c.memMu.RUnlock()
	return c.journal.Checkpoint(members, addrs, next)
}

// SubmitBatch implements Router: reports scatter into per-member
// sub-batches (preserving per-terminal order) and each member gets one
// coalesced call — Engine.SubmitBatch in-process, one wire line over
// TCP — blocking under that member's backpressure.  During a membership
// change, moving-terminal reports peel off into the migration buffer
// first.
//
//fuzzyho:nolockio
func (c *core) SubmitBatch(rs []serve.Report) error {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	if c.mig != nil {
		rs = c.mig.intercept(rs)
	}
	//fuzzyho:allow backpressure by design: reaches only member.submit's engine wait, bounded by shard progress (see there)
	return c.submitLocked(rs)
}

// submitLocked routes under a held member lock (read side for
// submissions, write side for the cutover/abort buffer release).
//
//fuzzyho:nolockio
func (c *core) submitLocked(rs []serve.Report) error {
	bufs := c.scatterLocked(rs)
	defer c.putScatter(bufs)
	for _, id := range c.ring.members {
		sub := rs
		if bufs != nil {
			sub = (*bufs)[id]
		}
		if len(sub) == 0 {
			continue
		}
		//fuzzyho:allow backpressure by design: reaches only member.submit's engine wait, bounded by shard progress (see there)
		if err := c.nodes[id].submit(sub); err != nil {
			return fmt.Errorf("cluster: node %d: %w", id, err)
		}
	}
	return nil
}

// scatterLocked partitions rs by owner under the held ring into a
// pooled table — or returns nil when one member owns everything, and rs
// then goes to it whole, uncopied.
//
//fuzzyho:nolockio
func (c *core) scatterLocked(rs []serve.Report) *map[int][]serve.Report {
	if c.ring.Nodes() == 1 {
		return nil
	}
	bufs := c.scatter.Get().(*map[int][]serve.Report)
	for i := range rs {
		n := c.ring.NodeOf(rs[i].Terminal)
		(*bufs)[n] = append((*bufs)[n], rs[i])
	}
	return bufs
}

//fuzzyho:nolockio
func (c *core) putScatter(bufs *map[int][]serve.Report) {
	if bufs == nil {
		return
	}
	for id, sub := range *bufs {
		(*bufs)[id] = sub[:0]
	}
	c.scatter.Put(bufs)
}

// Flush implements Router: waits until every member's routed reports
// are decided (or, over TCP, accounted lost) within the shared timeout.
// Member failures are returned joined, not hidden.
func (c *core) Flush(timeout time.Duration) error {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	deadline := time.Now().Add(timeout)
	var errs []error
	for _, m := range c.sortedNodes() {
		if err := m.flush(max(time.Until(deadline), 0)); err != nil {
			errs = append(errs, fmt.Errorf("cluster: node %d: %w", m.id, err))
		}
	}
	return errors.Join(errs...)
}

// Stats implements Router.  Departed members appear after the live ones
// with frozen counters, so cluster totals still account every decision
// ever made.
//
//fuzzyho:nolockio
func (c *core) Stats() Stats {
	c.memMu.RLock()
	defer c.memMu.RUnlock()
	st := Stats{Nodes: make([]NodeStats, 0, len(c.nodes)+len(c.retired))}
	for _, m := range c.sortedNodes() {
		st.Nodes = append(st.Nodes, m.stats())
	}
	st.Nodes = append(st.Nodes, c.retired...)
	return st
}

// Migration implements Router.
//
//fuzzyho:nolockio
func (c *core) Migration() MigrationStatus {
	c.memMu.RLock()
	buffered := 0
	if c.mig != nil {
		buffered = c.mig.buffered()
	}
	c.memMu.RUnlock()
	return c.migStat.status(buffered)
}

// Close implements Router: every member is drained and stopped (engines
// decide all accepted reports; clients deliver their queues and read the
// remaining decisions).  Reports still held in an in-flight migration's
// buffer are in no member's ledger, so Close surfaces their count
// through OnError instead of dropping them silently.
func (c *core) Close() error {
	c.closeOnce.Do(func() {
		c.memMu.Lock()
		defer c.memMu.Unlock()
		var errs []error
		if c.mig != nil {
			if buf := c.mig.take(); len(buf) > 0 && c.onError != nil {
				c.onError(-1, fmt.Errorf("cluster: %d buffered reports dropped by Close during an in-flight migration", len(buf)))
			}
			c.mig = nil
		}
		for _, m := range c.sortedNodes() {
			if err := m.close(); err != nil {
				errs = append(errs, fmt.Errorf("cluster: node %d: %w", m.id, err))
			}
		}
		if c.journal != nil {
			if err := c.journal.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cluster: closing journal: %w", err))
			}
		}
		c.closeErr = errors.Join(errs...)
	})
	return c.closeErr
}
