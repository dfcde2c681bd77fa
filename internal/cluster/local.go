package cluster

import (
	"fmt"
	"strconv"

	"repro/internal/obs"
	"repro/internal/serve"
)

// LocalConfig configures an in-process cluster: N serve.Engines in one
// process, partitioned by the consistent-hash ring.
type LocalConfig struct {
	// Nodes is the initial member count (≥ 1); members get IDs
	// 0..Nodes-1.  AddNode grows the set with fresh IDs.
	Nodes int
	// VirtualNodes is the ring's per-member virtual node count (0:
	// DefaultVirtualNodes).
	VirtualNodes int
	// Engine is the per-node engine template (shards, queue depth,
	// algorithm, ping-pong window).  Engine.OnDecision must be nil — use
	// OnDecision below, which carries the node ID.
	Engine serve.Config
	// OnDecision, when non-nil, receives every outcome together with the
	// ID of the node that decided it, on that node's shard goroutine.
	OnDecision func(node int, o serve.Outcome)
	// Metrics, when non-nil, is the shared registry every member engine
	// registers its instruments in, each labeled node="<id>" (overriding
	// Engine.Metrics/Engine.MetricsLabels).  Engines added later by
	// AddNode register under their fresh IDs in the same registry.
	Metrics *obs.Registry
	// OrphanDir is where rollback double-failures quarantine terminal
	// snapshots that could be delivered to no live owner ("": the OS temp
	// directory).
	OrphanDir string
}

// Local is the in-process Router: the router core over N serve.Engines
// in one process — the cheapest way to run one terminal population
// across several engines (tests, single-box NUMA-ish scaling) and the
// reference the TCP transport is checked against.  Membership changes
// run the same copy → restore → release machine as over TCP, with each
// engine serving the control plane a daemon would.
type Local struct {
	core
	cfg LocalConfig
}

// NewLocal validates the configuration, builds and starts the node
// engines.  The router is ready to submit when NewLocal returns.
func NewLocal(cfg LocalConfig) (*Local, error) {
	if cfg.Engine.OnDecision != nil {
		return nil, fmt.Errorf("cluster: set LocalConfig.OnDecision (with the node ID), not Engine.OnDecision")
	}
	ring, err := NewRing(cfg.Nodes, cfg.VirtualNodes)
	if err != nil {
		return nil, err
	}
	l := &Local{cfg: cfg}
	l.configure(cfg.VirtualNodes, cfg.OrphanDir, l.startNode)
	if err := l.start(ring, nil, -1); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// startNode builds and starts one member engine (in-process members have
// no address).
func (l *Local) startNode(id int, _ string) (*member, error) {
	ecfg := l.cfg.Engine
	if l.cfg.OnDecision != nil {
		ecfg.OnDecision = func(o serve.Outcome) { l.cfg.OnDecision(id, o) }
	}
	if l.cfg.Metrics != nil {
		ecfg.Metrics = l.cfg.Metrics
		ecfg.MetricsLabels = []obs.Label{obs.L("node", strconv.Itoa(id))}
	}
	e, err := serve.New(ecfg)
	if err == nil {
		err = e.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("cluster: node %d: %w", id, err)
	}
	return &member{id: id, engine: e}, nil
}

// AddNode starts a fresh member engine, migrates to it exactly the
// terminals the grown ring assigns to it, and routes to it from then on.
// Returns the new member's ID.  Submissions keep flowing while the
// migration runs: unmoved arcs route normally, moving arcs buffer until
// the cutover flips the ring — every moved terminal resumes its decision
// sequence on the new node exactly where it stopped on the old one.
func (l *Local) AddNode() (int, error) {
	return l.addNode("")
}

// Engine returns member id's engine (read-only use: stats, shard
// count), or nil after the member departed.
func (l *Local) Engine(id int) *serve.Engine {
	if m := l.member(id); m != nil {
		return m.engine
	}
	return nil
}

// EngineStats returns member id's full per-shard serve.Stats (the
// in-process transport's extra observability over the merged Stats
// view); zero after the member departed.
//
//fuzzyho:nolockio
func (l *Local) EngineStats(id int) serve.Stats {
	if m := l.member(id); m != nil {
		return m.engine.Stats()
	}
	return serve.Stats{}
}

// SnapshotAll drains every member and returns the whole cluster's
// terminal snapshots (crash-recovery export; state stays live).
func (l *Local) SnapshotAll() ([]serve.TerminalSnapshot, error) {
	l.memMu.RLock()
	defer l.memMu.RUnlock()
	var all []serve.TerminalSnapshot
	for _, m := range l.sortedNodes() {
		m.engine.Flush()
		snaps, err := m.engine.SnapshotTerminals()
		if err != nil {
			return nil, fmt.Errorf("cluster: snapshotting node %d: %w", m.id, err)
		}
		all = append(all, snaps...)
	}
	return all, nil
}

// RestoreAll scatters a whole-cluster snapshot set to the members the
// current ring assigns each terminal to (crash-recovery import).
func (l *Local) RestoreAll(snaps []serve.TerminalSnapshot) error {
	l.memMu.RLock()
	defer l.memMu.RUnlock()
	byDest := byOwner(l.ring, snaps)
	for _, d := range l.ring.members {
		if err := l.nodes[d].restore(byDest[d], false); err != nil {
			return fmt.Errorf("cluster: restoring into node %d: %w", d, err)
		}
	}
	return nil
}
