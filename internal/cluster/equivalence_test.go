package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/handover"
	"repro/internal/serve"
	"repro/internal/sim"
)

// paperGridReports expands both paper scenarios across replicas × speeds,
// simulates each cell, and returns the interleaved report stream (one
// terminal per grid cell) plus the terminal count.
func paperGridReports(t *testing.T, speeds []float64, factory func() handover.Algorithm) ([]serve.Report, int) {
	t.Helper()
	var cfgs []sim.Config
	for _, base := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()} {
		c, _ := sim.SweepGrid("cluster", base, 2, speeds)
		cfgs = append(cfgs, c...)
	}
	for i := range cfgs {
		cfgs[i].AlgorithmFactory = factory
	}
	streams := make([][]serve.Report, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("sim config %d: %v", i, err)
		}
		streams[i] = serve.ReplayReports(serve.TerminalID(i), res.Measurements())
	}
	return serve.InterleaveReports(streams), len(cfgs)
}

// outcomeRecorder collects per-terminal outcome sequences.  Each
// terminal's slice is appended to by exactly one shard goroutine of one
// node, so per-slice access is single-writer.
type outcomeRecorder struct {
	seqs [][]serve.Outcome
}

func newOutcomeRecorder(terminals int) *outcomeRecorder {
	return &outcomeRecorder{seqs: make([][]serve.Outcome, terminals)}
}

func (r *outcomeRecorder) record(o serve.Outcome) {
	r.seqs[o.Terminal] = append(r.seqs[o.Terminal], o)
}

// runSingleEngine replays the stream through one engine and returns the
// per-terminal sequences — the reference the cluster must match.
func runSingleEngine(t *testing.T, cfg serve.Config, reports []serve.Report, terminals int) *outcomeRecorder {
	t.Helper()
	rec := newOutcomeRecorder(terminals)
	cfg.OnDecision = rec.record
	e, err := serve.New(cfg)
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
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	return rec
}

// checkSequencesEqual demands byte-identical per-terminal decision
// sequences (verdict, score bits, reason, execution, ping-pong, seq).
func checkSequencesEqual(t *testing.T, label string, got, want *outcomeRecorder) {
	t.Helper()
	for tid := range want.seqs {
		g, w := got.seqs[tid], want.seqs[tid]
		if len(g) != len(w) {
			t.Fatalf("%s: terminal %d: %d outcomes, single engine has %d", label, tid, len(g), len(w))
		}
		for j := range w {
			if g[j].Seq != w[j].Seq || g[j].Decision != w[j].Decision ||
				g[j].Executed != w[j].Executed || g[j].PingPong != w[j].PingPong {
				t.Fatalf("%s: terminal %d epoch %d:\n cluster %+v executed=%v pingpong=%v\n single  %+v executed=%v pingpong=%v",
					label, tid, j, g[j].Decision, g[j].Executed, g[j].PingPong,
					w[j].Decision, w[j].Executed, w[j].PingPong)
			}
			if (g[j].Err == nil) != (w[j].Err == nil) {
				t.Fatalf("%s: terminal %d epoch %d: err %v vs %v", label, tid, j, g[j].Err, w[j].Err)
			}
		}
	}
}

// TestClusterMatchesSingleEngine is the cluster determinism guarantee —
// the acceptance pin of the multi-node router: partitioning the paper
// scenario grid across N in-process nodes produces per-terminal decision
// sequences byte-identical to a single engine, in all three decision
// modes (exact, compiled, adaptive), at every node count tried.
func TestClusterMatchesSingleEngine(t *testing.T) {
	adaptiveFactory := func() handover.Algorithm { return handover.NewAdaptiveFuzzy() }
	modes := []struct {
		name    string
		speeds  []float64
		factory func() handover.Algorithm // sim reference algorithm (nil: paper fuzzy)
		engine  serve.Config
	}{
		// Three speeds → 12 grid cells/terminals, enough that every node
		// of a 3-member ring owns at least one terminal.
		{"exact", []float64{0, 30, 50}, nil, serve.Config{QueueDepth: 64, PingPongWindowKm: sim.DefaultPingPongWindowKm}},
		{"compiled", []float64{0, 30, 50}, nil, serve.Config{QueueDepth: 64, Compiled: true, PingPongWindowKm: sim.DefaultPingPongWindowKm}},
		{"adaptive", []float64{0, 30, 50}, adaptiveFactory,
			serve.Config{QueueDepth: 64, AlgorithmFactory: adaptiveFactory, PingPongWindowKm: sim.DefaultPingPongWindowKm}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			reports, terminals := paperGridReports(t, mode.speeds, mode.factory)

			single := mode.engine
			single.Shards = 4
			ref := runSingleEngine(t, single, reports, terminals)

			for _, nodes := range []int{2, 3} {
				t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
					rec := newOutcomeRecorder(terminals)
					engineCfg := mode.engine
					engineCfg.Shards = 2
					l, err := NewLocal(LocalConfig{
						Nodes:      nodes,
						Engine:     engineCfg,
						OnDecision: func(_ int, o serve.Outcome) { rec.record(o) },
					})
					if err != nil {
						t.Fatal(err)
					}
					// Submit in moderate batches so the router's per-node
					// coalescing actually engages.
					for i := 0; i < len(reports); i += 97 {
						end := i + 97
						if end > len(reports) {
							end = len(reports)
						}
						if err := l.SubmitBatch(reports[i:end]); err != nil {
							t.Fatal(err)
						}
					}
					if err := l.Flush(10 * time.Second); err != nil {
						t.Fatal(err)
					}
					checkSequencesEqual(t, fmt.Sprintf("%s/nodes=%d", mode.name, nodes), rec, ref)

					st := l.Stats()
					tot := st.Totals()
					if tot.Submitted != uint64(len(reports)) || tot.Decisions != uint64(len(reports)) ||
						tot.Terminals != uint64(terminals) || tot.Lost != 0 {
						t.Errorf("totals %+v, want submitted=decisions=%d terminals=%d lost=0",
							tot, len(reports), terminals)
					}
					if tot.Handovers == 0 {
						t.Error("grid executed no handovers; equivalence is vacuous")
					}
					// Every node must actually own terminals at these
					// counts, or the test degenerates to single-node.
					for _, ns := range st.Nodes {
						if ns.Terminals == 0 {
							t.Errorf("node %d owns no terminals", ns.Node)
						}
					}
					if err := l.Close(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
