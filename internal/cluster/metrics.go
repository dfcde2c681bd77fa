package cluster

import (
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// RegisterMetrics exports a router's per-node counters into the registry
// as cluster_node_* series labeled node="<id>".  The collector reads
// Router.Stats() at export time — the same snapshot the -stats loop and
// Totals() render — so /metrics and Stats() cannot disagree on a
// quiesced cluster.  Works for both transports; departed members keep
// exporting their frozen final counters so totals stay accountable.
func RegisterMetrics(r *obs.Registry, router Router) {
	r.Collector(func(emit func(obs.Point)) {
		for _, n := range router.Stats().Nodes {
			labels := []obs.Label{obs.L("node", strconv.Itoa(n.Node))}
			counter := func(name string, v uint64) {
				emit(obs.Point{Name: name, Kind: obs.KindCounter, Labels: labels, Value: float64(v)})
			}
			gauge := func(name string, v float64) {
				emit(obs.Point{Name: name, Kind: obs.KindGauge, Labels: labels, Value: v})
			}
			counter("cluster_node_submitted_total", n.Submitted)
			counter("cluster_node_decisions_total", n.Decisions)
			counter("cluster_node_lost_total", n.Lost)
			counter("cluster_node_handovers_total", n.Handovers)
			counter("cluster_node_pingpongs_total", n.PingPongs)
			counter("cluster_node_errors_total", n.Errors)
			counter("cluster_node_reconnects_total", n.Reconnects)
			gauge("cluster_node_terminals", float64(n.Terminals))
			gauge("cluster_node_queue_depth", float64(n.QueueDepth))
			departed := 0.0
			if n.Departed {
				departed = 1
			}
			gauge("cluster_node_departed", departed)
		}
	})
	// The TCP transport additionally exports the raw client-ledger counters
	// delivery debugging wants: redials (every dial attempt, including
	// failed ones — the gap against cluster_node_reconnects_total is
	// connection flappiness) and lost reports, per node.
	if t, ok := router.(*TCP); ok {
		r.Collector(func(emit func(obs.Point)) {
			for _, c := range t.ClientCounters() {
				labels := []obs.Label{
					obs.L("node", strconv.Itoa(c.Node)),
					obs.L("addr", c.Addr),
				}
				emit(obs.Point{Name: "serve_client_redials_total", Kind: obs.KindCounter, Labels: labels, Value: float64(c.Counters.Redials)})
				emit(obs.Point{Name: "serve_client_lost_total", Kind: obs.KindCounter, Labels: labels, Value: float64(c.Counters.Lost)})
			}
		})
	}
}

// Status is the /statusz view of a cluster router: the live ring
// membership plus every node's counters (departed members included, with
// frozen counters) and the aggregate.
type Status struct {
	// Members are the live ring member IDs, ascending.
	Members []int `json:"members"`
	// Nodes are the per-node counter snapshots, live members first.
	Nodes []NodeStats `json:"nodes"`
	// Totals aggregates Nodes (Node is -1).
	Totals NodeStats `json:"totals"`
	// Migration is the in-flight membership change, if any (Active=false
	// on a stable ring).
	Migration MigrationStatus `json:"migration"`
}

// StatusOf snapshots a router's membership, counters, and any in-flight
// membership change.
func StatusOf(router Router) Status {
	st := router.Stats()
	return Status{
		Members:   router.Members(),
		Nodes:     st.Nodes,
		Totals:    st.Totals(),
		Migration: router.Migration(),
	}
}

// NodeScrape is one member's reply to a cluster-wide stats scrape: the
// node's own shard counters and exported metric points (each point
// re-labeled node="<id>"), or the error that kept the node out of the
// merged view.
type NodeScrape struct {
	// Node is the member ID; Addr its dial address.
	Node int
	Addr string
	// Stats is the node's {"ctl":"stats"} reply payload.
	Stats serve.WireStats
	// Err is the per-node scrape failure (nil on success).  A node that
	// cannot answer must not hide the others, so scrape errors are
	// per-node data, not a collective failure.
	Err error
}

// ScrapeStats asks every live member for its telemetry over the existing
// node connections ({"ctl":"stats"}), sequentially in member order, each
// under its own timeout.  Every returned point is labeled with the
// member's node ID, so the merged set is safe to serve from one
// /metrics endpoint.
func (t *TCP) ScrapeStats(timeout time.Duration) []NodeScrape {
	t.memMu.RLock()
	nodes := t.sortedNodes()
	t.memMu.RUnlock()
	out := make([]NodeScrape, 0, len(nodes))
	for _, n := range nodes {
		sc := NodeScrape{Node: n.id, Addr: n.addr}
		sc.Stats, sc.Err = n.client.Stats(timeout)
		id := strconv.Itoa(n.id)
		for i := range sc.Stats.Points {
			sc.Stats.Points[i] = sc.Stats.Points[i].WithLabel("node", id)
		}
		out = append(out, sc)
	}
	return out
}
