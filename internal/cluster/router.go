package cluster

import (
	"fmt"
	"time"

	"repro/internal/serve"
)

// Router routes measurement reports to the engine node owning each
// terminal.  Local and TCP implement it with one router core over two
// transports, and both guarantee per-terminal submission order is
// preserved end to end, which is what makes cluster decision sequences
// identical to a single engine's.
//
// SubmitBatch is the one way reports enter a cluster, and backpressure
// is part of its contract: it blocks while a destination cannot accept
// (in-process, Engine.SubmitBatch's bounded queues; over TCP, the owning
// node's bounded send queue) and never sheds a report to avoid waiting.
type Router interface {
	// SubmitBatch routes a batch, coalescing per destination node and
	// blocking under backpressure.
	SubmitBatch(rs []serve.Report) error
	// Flush blocks until every routed report is decided (or accounted
	// lost by a failed node), up to timeout.
	Flush(timeout time.Duration) error
	// Stats snapshots the per-node counters.
	Stats() Stats
	// NumNodes returns the member count.
	NumNodes() int
	// Members returns the live member IDs in ascending order.
	Members() []int
	// NodeOf returns the ring's owner for a terminal.
	NodeOf(id serve.TerminalID) int
	// RemoveNode migrates every terminal member id owns to the members
	// left, copy before release, and retires the member.  (AddNode is
	// transport-specific: an in-process member is started, a TCP one
	// dialed.)
	RemoveNode(id int) error
	// Migration snapshots the in-flight membership change, if any:
	// Active=false means the ring is stable.  Submissions never block on
	// a migration — unmoved arcs route normally and moving arcs buffer —
	// so this is observability, not a gate.
	Migration() MigrationStatus
	// Close tears the router down.  In-process engines are drained and
	// stopped; TCP node connections are flushed and closed.
	Close() error
}

// MigrationStatus is the observable progress of an in-flight membership
// change (Router.Migration, /statusz).
type MigrationStatus struct {
	// Active reports a change in flight; Op ("addnode"/"removenode") and
	// Node name it; Phase is the current step ("prepare", "copy:<src>",
	// "restore:<dst>", "release", "cutover").
	Active bool   `json:"active"`
	Op     string `json:"op,omitempty"`
	Node   int    `json:"node"`
	Phase  string `json:"phase,omitempty"`
	// Buffered counts reports for moving terminals held in the
	// route-to-both buffer, to be released at cutover.
	Buffered int `json:"buffered"`
}

// NodeStats is one member's counter snapshot.
type NodeStats struct {
	// Node is the member index (-1 in aggregated totals); Addr its dial
	// address over TCP ("" in-process).
	Node int
	Addr string
	// Submitted counts reports routed to the node; Decisions the
	// decisions it delivered; Lost the reports a failed TCP connection
	// dropped (always 0 in-process).
	Submitted, Decisions, Lost uint64
	// Handovers/PingPongs/Errors tally executed handovers, flagged
	// returns, and errors (algorithm errors in-process; line-level remote
	// rejects over TCP) among the node's decisions.
	Handovers, PingPongs, Errors uint64
	// Terminals is the distinct-terminal count (in-process only: the wire
	// protocol does not carry it).
	Terminals uint64
	// Reconnects counts re-established node connections (TCP only).
	Reconnects uint64
	// QueueDepth is the instantaneous ingest backlog (sub-batches
	// in-process, encoded lines over TCP).
	QueueDepth int
	// Departed marks a node removed from the ring: its counters are the
	// frozen final snapshot, kept so totals still account its work.
	Departed bool
}

// Stats is a point-in-time snapshot of every node's counters, merging the
// per-node serve.Stats (in-process) or client ledgers (TCP).
type Stats struct {
	Nodes []NodeStats
}

// Totals aggregates the per-node counters (Node is -1).
func (s Stats) Totals() NodeStats {
	t := NodeStats{Node: -1}
	for _, n := range s.Nodes {
		t.Submitted += n.Submitted
		t.Decisions += n.Decisions
		t.Lost += n.Lost
		t.Handovers += n.Handovers
		t.PingPongs += n.PingPongs
		t.Errors += n.Errors
		t.Terminals += n.Terminals
		t.Reconnects += n.Reconnects
		t.QueueDepth += n.QueueDepth
	}
	return t
}

// String implements fmt.Stringer.
func (n NodeStats) String() string {
	s := fmt.Sprintf("submitted=%d decisions=%d handovers=%d pingpong=%d errors=%d lost=%d reconnects=%d queue=%d",
		n.Submitted, n.Decisions, n.Handovers, n.PingPongs, n.Errors, n.Lost, n.Reconnects, n.QueueDepth)
	if n.Departed {
		s += " departed"
	}
	return s
}
