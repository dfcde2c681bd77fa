// Command hoserve runs the streaming handover decision engine as a
// daemon.  It ingests newline-JSON measurement-report batches — each line
// a single report object or an array of them — routes every report to the
// shard owning that terminal's state, and emits one JSON decision line per
// report.
//
// Two transports:
//
//	hoserve                          # stdin → decisions on stdout
//	hoserve -listen 127.0.0.1:7077   # TCP; each client gets its own
//	                                 # terminals' decisions back
//
// Report line (see serve.WireReport):
//
//	{"terminal":7,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,
//	 "ssn_db":-84.0,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}
//
// Decision line (see serve.WireOutcome):
//
//	{"terminal":7,"seq":12,"handover":true,"score":0.82,"scored":true,
//	 "reason":"execute-handover","executed":true}
//
// Malformed lines are rejected with a clear error (stderr in stdin mode,
// an {"error":...} line to the client in TCP mode) and do not stop the
// daemon; a batch that fails validation part-way is served up to the
// failing report.  In TCP mode each terminal is exclusively owned by the
// first connection that submits it — a second connection submitting the
// same terminal has the line rejected with an ownership error until the
// owner disconnects or a connection announcing the same identity (the
// "client" field of the {"ctl":"hello"} line serve.NodeClient sends)
// takes the claims over after a drain (see serve.DecisionMux) — so one
// terminal's state stream can never interleave across clients.  -stats
// prints per-shard throughput snapshots to stderr.
//
// Crash recovery and elastic membership:
//
//	hoserve -listen :7077 -snapshot state.snap -restore state.snap
//
// -restore loads a whole-node snapshot file (one JSON snapshot line per
// terminal, see serve.TerminalSnapshot) before serving; -snapshot writes
// one on clean shutdown (EOF in stdio mode, SIGINT/SIGTERM in TCP mode).
// In TCP mode the daemon also serves the snapshot control plane
// ({"ctl":"extract"} / {"ctl":"restore"} lines), which is how a cluster
// router's AddNode/RemoveNode migrates terminal state between live nodes,
// and answers {"ctl":"stats"} with its shard counters and metric points.
//
// Observability:
//
//	hoserve -listen :7077 -admin 127.0.0.1:7078 -trace-every 1000
//
// -admin serves /metrics (Prometheus text), /statusz (engine stats,
// claim table, snapshot age, Go runtime), /healthz, and /tracez.
// -trace-every N samples every Nth decision per shard into a bounded
// ring with its full FLC inference trace, served at /tracez.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof registers the profiling handlers
	"os"
	"os/signal"
	"runtime"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/handover"
	"repro/internal/obs"
	"repro/internal/serve"
)

// lastSnapshot is the unix-nano time of the last successful snapshot
// write or restore (0: never), surfaced on /statusz as snapshot age.
var lastSnapshot atomic.Int64

func main() {
	var (
		shards     = flag.Int("shards", runtime.GOMAXPROCS(0), "engine shards (state partitions)")
		queue      = flag.Int("queue", 0, "per-shard queue depth (messages; 0: the engine default)")
		window     = flag.Float64("window", serve.DefaultPingPongWindowKm, "ping-pong window in km")
		listen     = flag.String("listen", "", "TCP listen address (empty: stdin/stdout)")
		statsSec   = flag.Float64("stats", 0, "print engine stats to stderr every N seconds (0: off)")
		algo       = flag.String("algo", "fuzzy", "decision algorithm: fuzzy (the paper controller), adaptive (speed-adaptive threshold) or trendfuzzy (4-input FLC with the SSN-trend antecedent)")
		compiled   = flag.Bool("compiled", false, "decide on the compiled control surface (columnar batch pipeline)")
		pprofHost  = flag.String("pprof", "", "net/http/pprof listen address (e.g. 127.0.0.1:6060; empty: off)")
		snapFile   = flag.String("snapshot", "", "write a whole-node terminal snapshot file on clean shutdown (empty: off)")
		snapEvery  = flag.Duration("snapshot-every", 0, "also write the -snapshot file periodically in the background (0: off)")
		snapDecide = flag.Int("snapshot-decisions", 0, "also write the -snapshot file every N decisions (0: off)")
		restFile   = flag.String("restore", "", "restore a whole-node terminal snapshot file before serving (empty: off)")
		adminAddr  = flag.String("admin", "", "admin HTTP listen address serving /metrics /statusz /healthz /tracez (empty: off)")
		traceEvry  = flag.Int("trace-every", 0, "sample every Nth decision per shard into the /tracez ring (0: off)")
		traceBuf   = flag.Int("trace-buffer", 0, "decision-trace ring capacity (0: default)")
	)
	flag.Parse()
	if *shards < 1 {
		fatal(fmt.Errorf("-shards must be ≥ 1, got %d", *shards))
	}
	if *queue < 0 {
		fatal(fmt.Errorf("-queue must be ≥ 0, got %d", *queue))
	}
	if *window <= 0 {
		fatal(fmt.Errorf("-window must be > 0 km, got %g", *window))
	}

	if *pprofHost != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers; profiling a hot
			// shard in situ is `go tool pprof http://<addr>/debug/pprof/profile`.
			if err := http.ListenAndServe(*pprofHost, nil); err != nil {
				fmt.Fprintln(os.Stderr, "hoserve: pprof:", err)
			}
		}()
	}

	mux := serve.NewDecisionMux()
	// The registry is always built — the {"ctl":"stats"} control op and
	// the -stats loop render from it even when -admin is off.
	reg := obs.NewRegistry()
	factory, err := handover.AlgorithmFactoryFor(*algo, *compiled)
	if err != nil {
		fatal(err)
	}
	engine, err := serve.New(serve.Config{
		Shards:           *shards,
		QueueDepth:       *queue,
		AlgorithmFactory: factory,
		PingPongWindowKm: *window,
		OnDecision:       mux.Route,
		Metrics:          reg,
		TraceEvery:       *traceEvry,
		TraceBuffer:      *traceBuf,
	})
	if err != nil {
		fatal(err)
	}
	if err := engine.Start(); err != nil {
		fatal(err)
	}

	if *restFile != "" {
		if err := restoreNode(engine, *restFile); err != nil {
			fatal(err)
		}
	}

	reporter := &serve.StatsReporter{
		Name:             "hoserve",
		Registry:         reg,
		DecisionsCounter: "serve_decisions_total",
		Service:          engine.ServiceHistogram(),
		Units: func() []string {
			st := engine.Stats()
			out := make([]string, 0, len(st.Shards))
			for _, s := range st.Shards {
				out = append(out, fmt.Sprintf("shard %d: %s", s.Shard, s))
			}
			return out
		},
		Totals: func() string { return engine.Stats().Totals().String() },
	}
	if *statsSec > 0 {
		go reporter.Loop(time.Duration(*statsSec*float64(time.Second)), nil)
	}

	if *adminAddr != "" {
		adm := &obs.Admin{
			Registry: reg,
			Status: func() any {
				return map[string]any{
					"stats":    engine.Stats(),
					"verdicts": engine.Verdicts(),
					"claims":   mux.Claims(),
					"snapshot": snapshotStatus(),
				}
			},
		}
		if *traceEvry > 0 {
			adm.Traces = func() any {
				return map[string]any{
					"every":   *traceEvry,
					"sampled": engine.TracesSampled(),
					"traces":  engine.Traces(),
				}
			}
		}
		aln, err := adm.Serve(*adminAddr)
		if err != nil {
			fatal(fmt.Errorf("admin: %w", err))
		}
		defer aln.Close()
		fmt.Fprintf(os.Stderr, "hoserve: admin endpoints on http://%s\n", aln.Addr())
	}

	daemon := &serve.Daemon{
		Name:       "hoserve",
		Mux:        mux,
		Submit:     engine.SubmitBatch,
		Drain:      func() error { engine.Flush(); return nil },
		SchemaHash: engine.SchemaHash(),
		Stats: func() serve.WireStats {
			return serve.WireStats{Shards: engine.Stats().Shards, Points: reg.Export()}
		},
	}
	daemon.Extract, daemon.Restore, daemon.Release = cluster.MigrationHooks(engine)

	if *snapEvery > 0 || *snapDecide > 0 {
		if *snapFile == "" {
			fatal(fmt.Errorf("-snapshot-every/-snapshot-decisions require -snapshot"))
		}
		snapper := &serve.Snapshotter{
			Every:          *snapEvery,
			EveryDecisions: uint64(*snapDecide),
			// SnapshotTerminals rides the shard queues, so the background
			// snapshot is consistent without stalling ingest on a Flush.
			Snapshot:  engine.SnapshotTerminals,
			Decisions: func() uint64 { return engine.Stats().Totals().Decisions },
			Write: func(snaps []serve.TerminalSnapshot) error {
				if err := serve.WriteSnapshotFile(*snapFile, snaps); err != nil {
					return err
				}
				lastSnapshot.Store(time.Now().UnixNano())
				return nil
			},
			OnError: func(err error) { fmt.Fprintln(os.Stderr, "hoserve: snapshot:", err) },
		}
		go snapper.Run(nil)
	}

	if *listen == "" {
		runStdio(engine, daemon, reporter, *snapFile)
		return
	}
	runTCP(engine, daemon, reporter, *listen, *snapFile)
}

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

// restoreNode loads a whole-node snapshot file into the engine.
func restoreNode(engine *serve.Engine, path string) error {
	snaps, err := serve.ReadSnapshotFile(path)
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	if err := engine.RestoreSnapshots(snaps); err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	lastSnapshot.Store(time.Now().UnixNano())
	fmt.Fprintf(os.Stderr, "hoserve: restored %d terminals from %s\n", len(snaps), path)
	return nil
}

// snapshotNode drains the engine and writes every terminal's snapshot to
// path (atomically: temp file + rename), so a crash mid-write never
// truncates the previous good snapshot.
func snapshotNode(engine *serve.Engine, path string) error {
	engine.Flush()
	snaps, err := engine.SnapshotTerminals()
	if err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if err := serve.WriteSnapshotFile(path, snaps); err != nil {
		return fmt.Errorf("snapshot %s: %w", path, err)
	}
	lastSnapshot.Store(time.Now().UnixNano())
	fmt.Fprintf(os.Stderr, "hoserve: wrote %d terminal snapshots to %s\n", len(snaps), path)
	return nil
}

func runStdio(engine *serve.Engine, d *serve.Daemon, reporter *serve.StatsReporter, snapFile string) {
	lines, bad, drainErr := d.RunStdio()
	if snapFile != "" {
		if err := snapshotNode(engine, snapFile); err != nil {
			fatal(err)
		}
	}
	if err := engine.Stop(); err != nil {
		fatal(err)
	}
	reporter.Print()
	if drainErr != nil {
		fatal(fmt.Errorf("drain: %w", drainErr))
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "hoserve: rejected %d of %d lines\n", bad, lines)
		os.Exit(1)
	}
}

func runTCP(engine *serve.Engine, d *serve.Daemon, reporter *serve.StatsReporter, addr, snapFile string) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "hoserve: listening on %s (%d shards)\n", ln.Addr(), engine.NumShards())
	// SIGINT/SIGTERM is the clean-shutdown path: close the listener (which
	// unblocks RunTCP once live connections finish) and, when -snapshot is
	// set, persist the whole node for -restore on the next start.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		fmt.Fprintln(os.Stderr, "hoserve: shutting down")
		ln.Close()
	}()
	d.RunTCP(ln)
	if snapFile != "" {
		if err := snapshotNode(engine, snapFile); err != nil {
			fatal(err)
		}
	}
	if err := engine.Stop(); err != nil {
		fatal(err)
	}
	reporter.Print()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hoserve:", err)
	os.Exit(1)
}
