// Command hocluster runs the multi-node cluster router as a daemon: the
// horizontal front door above N engine nodes.  It ingests the same
// newline-JSON report lines as hoserve, routes every report to the node
// owning that terminal on a consistent-hash ring (SplitMix64, the same
// hash family as the engines' shard stores), and emits one JSON decision
// line per report.  Per-terminal decision sequences are identical to a
// single engine's — the cluster package's equivalence tests pin this on
// the paper scenario grid in all three decision modes.
//
// Two backends:
//
//	hocluster -nodes 10.0.0.1:7077,10.0.0.2:7077   # TCP to remote hoserve daemons
//	hocluster -local 4 -shards 2                   # N in-process engines
//
// Two front doors, as in hoserve:
//
//	hocluster -local 2                     # stdin → decisions on stdout
//	hocluster -local 2 -listen :7070       # TCP; per-connection terminal
//	                                       # ownership (first client owns)
//
// The TCP backend applies per-node backpressure: a slow node fills its
// bounded send queue and submission blocks; a node that dies mid-stream
// has its in-flight reports surfaced as lost on stderr (never silently
// dropped) while the client reconnects; -stats includes each node's
// lost and reconnect counters so shed traffic is visible, not inferred.
//
// Crash recovery (in-process backend): -restore loads a whole-cluster
// snapshot file before serving, scattering each terminal to the ring
// member owning it; -snapshot writes one on clean shutdown (EOF on
// stdin, SIGINT/SIGTERM in -listen mode).  TCP nodes persist themselves
// with hoserve's own -snapshot/-restore flags instead.
//
// Observability:
//
//	hocluster -nodes ... -admin 127.0.0.1:7079
//
// -admin serves the cluster-wide stats plane: /metrics merges every
// member's own metric points (scraped over the existing node connections
// with {"ctl":"stats"} on the TCP backend; shared in-process on -local),
// each labeled node="<id>", alongside the router's cluster_node_*
// counters; /statusz reports ring membership, per-node counters, and the
// claim table.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/handover"
	"repro/internal/obs"
	"repro/internal/serve"
)

// scrapeTimeout bounds each member's {"ctl":"stats"} reply when the
// admin /metrics endpoint fans out over the TCP backend.
const scrapeTimeout = 5 * time.Second

// lastSnapshot is the unix-nano time of the last successful background
// snapshot write (0: never), surfaced on /statusz as snapshot age.
var lastSnapshot atomic.Int64

// snapshotStatus is the /statusz snapshot-age payload.
func snapshotStatus() map[string]any {
	ns := lastSnapshot.Load()
	if ns == 0 {
		return map[string]any{"taken": false}
	}
	return map[string]any{
		"taken":   true,
		"unix_ns": ns,
		"age_sec": time.Since(time.Unix(0, ns)).Seconds(),
	}
}

func main() {
	var (
		nodesCS    = flag.String("nodes", "", "comma-separated hoserve node addresses (TCP backend)")
		local      = flag.Int("local", 0, "run N in-process engine nodes instead of -nodes")
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "shards per in-process node")
		queue      = flag.Int("queue", 0, "per-shard queue depth of in-process nodes (messages; 0: the engine default)")
		nodeQ      = flag.Int("node-queue", serve.DefaultNodeQueueDepth, "per-node send queue of the TCP backend (lines)")
		vnodes     = flag.Int("vnodes", cluster.DefaultVirtualNodes, "virtual nodes per ring member")
		window     = flag.Float64("window", serve.DefaultPingPongWindowKm, "ping-pong window in km (in-process nodes)")
		algo       = flag.String("algo", "fuzzy", "decision algorithm: fuzzy, adaptive or trendfuzzy (runs on in-process nodes; on the TCP backend it names the schema the member daemons must serve)")
		compiled   = flag.Bool("compiled", false, "in-process nodes decide on the compiled control surface")
		listen     = flag.String("listen", "", "TCP listen address of the front door (empty: stdin/stdout)")
		statsSec   = flag.Float64("stats", 0, "print cluster stats to stderr every N seconds (0: off)")
		flushSec   = flag.Float64("flush-timeout", 30, "seconds to wait for outstanding decisions at shutdown")
		snapFile   = flag.String("snapshot", "", "write a whole-cluster terminal snapshot file on clean shutdown (-local only)")
		snapEvery  = flag.Duration("snapshot-every", 0, "also write the -snapshot file periodically in the background (0: off; -local only)")
		snapDecide = flag.Int("snapshot-decisions", 0, "also write the -snapshot file every N decisions (0: off; -local only)")
		restFile   = flag.String("restore", "", "restore a whole-cluster terminal snapshot file before serving (-local only)")
		journal    = flag.String("journal", "", "migration intent journal path: membership changes become crash-safe and survive router restarts (TCP backend only)")
		adminCfg   = flag.String("admin", "", "admin HTTP listen address serving /metrics /statusz /healthz and POST /admin/addnode|removenode (empty: off)")
	)
	flag.Parse()
	addrs := splitNonEmpty(*nodesCS)
	if (len(addrs) == 0) == (*local == 0) {
		fatal(fmt.Errorf("pick exactly one backend: -nodes host:port,... or -local N"))
	}
	if *local < 0 || *shards < 1 || *nodeQ < 1 || *vnodes < 1 {
		fatal(fmt.Errorf("-local/-shards/-node-queue/-vnodes must be positive"))
	}
	if *queue < 0 {
		fatal(fmt.Errorf("-queue must be ≥ 0, got %d", *queue))
	}
	if *window <= 0 {
		fatal(fmt.Errorf("-window must be > 0 km, got %g", *window))
	}

	if (*snapFile != "" || *restFile != "") && *local == 0 {
		fatal(fmt.Errorf("-snapshot/-restore need the in-process backend (-local N); TCP nodes persist themselves via hoserve -snapshot/-restore"))
	}
	if (*snapEvery > 0 || *snapDecide > 0) && *snapFile == "" {
		fatal(fmt.Errorf("-snapshot-every/-snapshot-decisions require -snapshot"))
	}
	if *journal != "" && *local != 0 {
		fatal(fmt.Errorf("-journal needs the TCP backend (-nodes); the in-process backend has no daemons to recover state from after a crash"))
	}

	mux := serve.NewDecisionMux()
	// The registry carries the router's cluster_node_* counters always,
	// and — on the in-process backend — every member engine's own
	// instruments, labeled node="<id>".
	reg := obs.NewRegistry()
	factory, err := handover.AlgorithmFactoryFor(*algo, *compiled)
	if err != nil {
		fatal(err)
	}
	schemaHash := handover.SchemaHashOf(factory())
	router, err := buildRouter(addrs, *local, *shards, *queue, *nodeQ, *vnodes, *window, factory, schemaHash, *journal, mux, reg)
	if err != nil {
		fatal(err)
	}
	cluster.RegisterMetrics(reg, router)

	if *restFile != "" {
		if err := restoreCluster(router.(*cluster.Local), *restFile); err != nil {
			fatal(err)
		}
	}

	// Runtime membership ops, exposed on both operator surfaces: the wire
	// control plane ({"ctl":"addnode"} on the front door) and the admin
	// HTTP endpoints (POST /admin/addnode).  Joining is the one
	// transport-specific op: the TCP backend joins a running hoserve
	// daemon by address; the in-process backend starts a fresh engine (no
	// address to give).  Removal is Router.RemoveNode on either.
	addNode := func(addr string) (int, error) {
		switch r := router.(type) {
		case *cluster.TCP:
			if addr == "" {
				return 0, fmt.Errorf("addnode: the TCP backend needs the joining daemon's address")
			}
			return r.AddNode(addr)
		case *cluster.Local:
			if addr != "" {
				return 0, fmt.Errorf("addnode: the in-process backend starts its own engine; do not pass an address")
			}
			return r.AddNode()
		default:
			return 0, fmt.Errorf("addnode: unsupported router backend")
		}
	}

	if *snapEvery > 0 || *snapDecide > 0 {
		l := router.(*cluster.Local) // -local enforced above
		snapper := &serve.Snapshotter{
			Every:          *snapEvery,
			EveryDecisions: uint64(*snapDecide),
			Snapshot:       l.SnapshotAll,
			Decisions:      func() uint64 { return router.Stats().Totals().Decisions },
			Write: func(snaps []serve.TerminalSnapshot) error {
				if err := serve.WriteSnapshotFile(*snapFile, snaps); err != nil {
					return err
				}
				lastSnapshot.Store(time.Now().UnixNano())
				return nil
			},
			OnError: func(err error) { fmt.Fprintln(os.Stderr, "hocluster: snapshot:", err) },
		}
		go snapper.Run(nil)
	}

	reporter := &serve.StatsReporter{
		Name:             "hocluster",
		Registry:         reg,
		DecisionsCounter: "cluster_node_decisions_total",
		Units: func() []string {
			st := router.Stats()
			out := make([]string, 0, len(st.Nodes))
			for _, n := range st.Nodes {
				label := fmt.Sprintf("node %d", n.Node)
				if n.Addr != "" {
					label += " (" + n.Addr + ")"
				}
				out = append(out, label+": "+n.String())
			}
			return out
		},
		Totals: func() string { return router.Stats().Totals().String() },
	}
	if *statsSec > 0 {
		go reporter.Loop(time.Duration(*statsSec*float64(time.Second)), nil)
	}

	if *adminCfg != "" {
		adm := &obs.Admin{
			Registry: reg,
			Status: func() any {
				return map[string]any{
					"cluster":  cluster.StatusOf(router),
					"claims":   mux.Claims(),
					"snapshot": snapshotStatus(),
				}
			},
			Ops: map[string]func(r *http.Request) (any, error){
				"addnode": func(r *http.Request) (any, error) {
					id, err := addNode(r.FormValue("addr"))
					if err != nil {
						return nil, err
					}
					return map[string]any{"node": id, "members": router.Members()}, nil
				},
				"removenode": func(r *http.Request) (any, error) {
					node, err := strconv.Atoi(r.FormValue("node"))
					if err != nil {
						return nil, fmt.Errorf("removenode: node=%q: %w", r.FormValue("node"), err)
					}
					if err := router.RemoveNode(node); err != nil {
						return nil, err
					}
					return map[string]any{"node": node, "members": router.Members()}, nil
				},
			},
		}
		if t, ok := router.(*cluster.TCP); ok {
			// Remote members' own points are not in the local registry;
			// scrape them over the node connections at export time.
			adm.Extra = func() []obs.Point {
				var points []obs.Point
				for _, sc := range t.ScrapeStats(scrapeTimeout) {
					if sc.Err != nil {
						fmt.Fprintf(os.Stderr, "hocluster: stats scrape node %d (%s): %v\n", sc.Node, sc.Addr, sc.Err)
						continue
					}
					points = append(points, sc.Stats.Points...)
				}
				return points
			}
		}
		aln, err := adm.Serve(*adminCfg)
		if err != nil {
			fatal(fmt.Errorf("admin: %w", err))
		}
		defer aln.Close()
		fmt.Fprintf(os.Stderr, "hocluster: admin endpoints on http://%s\n", aln.Addr())
	}

	flushTimeout := time.Duration(*flushSec * float64(time.Second))
	daemon := &serve.Daemon{
		Name:       "hocluster",
		Mux:        mux,
		Submit:     router.SubmitBatch,
		Drain:      func() error { return router.Flush(flushTimeout) },
		SchemaHash: schemaHash,
		Stats: func() serve.WireStats {
			return serve.WireStats{Points: reg.Export()}
		},
		AddNode:    addNode,
		RemoveNode: router.RemoveNode,
	}
	if *listen == "" {
		runStdio(router, daemon, reporter, *snapFile)
		return
	}
	runTCP(router, daemon, reporter, *listen, *snapFile)
}

// restoreCluster loads a whole-cluster snapshot file and scatters it
// across the ring.
func restoreCluster(l *cluster.Local, path string) error {
	snaps, err := serve.ReadSnapshotFile(path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if err := l.RestoreAll(snaps); err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "hocluster: restored %d terminals from %s\n", len(snaps), path)
	return nil
}

// snapshotCluster drains every node and writes the whole cluster's
// terminal snapshots to path (temp file + rename, so a crash mid-write
// never truncates the previous good snapshot).
func snapshotCluster(router cluster.Router, path string) error {
	l, ok := router.(*cluster.Local)
	if !ok {
		return fmt.Errorf("snapshot: only the in-process backend snapshots the whole cluster")
	}
	snaps, err := l.SnapshotAll()
	if err != nil {
		return err
	}
	if err := serve.WriteSnapshotFile(path, snaps); err != nil {
		return fmt.Errorf("snapshot %s: %w", path, err)
	}
	fmt.Fprintf(os.Stderr, "hocluster: wrote %d terminal snapshots to %s\n", len(snaps), path)
	return nil
}

func buildRouter(addrs []string, local, shards, queue, nodeQ, vnodes int,
	window float64, factory func() handover.Algorithm, schemaHash uint64,
	journal string, mux *serve.DecisionMux, reg *obs.Registry) (cluster.Router, error) {
	if len(addrs) > 0 {
		return cluster.DialTCP(cluster.TCPConfig{
			Addrs:        addrs,
			VirtualNodes: vnodes,
			QueueDepth:   nodeQ,
			Journal:      journal,
			SchemaHash:   schemaHash,
			OnDecision:   func(_ int, o serve.Outcome) { mux.Route(o) },
			OnError: func(node int, err error) {
				fmt.Fprintf(os.Stderr, "hocluster: node %d: %v\n", node, err)
			},
		})
	}
	return cluster.NewLocal(cluster.LocalConfig{
		Nodes:        local,
		VirtualNodes: vnodes,
		Engine:       serve.Config{Shards: shards, QueueDepth: queue, AlgorithmFactory: factory, PingPongWindowKm: window},
		OnDecision:   func(_ int, o serve.Outcome) { mux.Route(o) },
		Metrics:      reg,
	})
}

func runStdio(router cluster.Router, d *serve.Daemon, reporter *serve.StatsReporter, snapFile string) {
	lines, bad, drainErr := d.RunStdio()
	if snapFile != "" {
		if err := snapshotCluster(router, snapFile); err != nil {
			fmt.Fprintln(os.Stderr, "hocluster:", err)
			os.Exit(1)
		}
	}
	if err := router.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hocluster: close:", err)
	}
	reporter.Print()
	failed := false
	if drainErr != nil {
		// A drain failure is a serving problem (slow or dead node), not
		// an input problem: report it as itself, apart from rejects.
		fmt.Fprintln(os.Stderr, "hocluster: drain:", drainErr)
		failed = true
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "hocluster: rejected %d of %d lines\n", bad, lines)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func runTCP(router cluster.Router, d *serve.Daemon, reporter *serve.StatsReporter, addr, snapFile string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hocluster: listening on %s (%d nodes)\n", ln.Addr(), router.NumNodes())
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "hocluster: shutting down")
		ln.Close()
	}()
	d.RunTCP(ln)
	if snapFile != "" {
		if err := snapshotCluster(router, snapFile); err != nil {
			fmt.Fprintln(os.Stderr, "hocluster:", err)
			os.Exit(1)
		}
	}
	if err := router.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "hocluster: close:", err)
	}
	reporter.Print()
}

func splitNonEmpty(csv string) []string {
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hocluster:", err)
	os.Exit(1)
}
