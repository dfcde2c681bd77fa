package serve

import (
	"fmt"
	"io"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/handover"
	"repro/internal/obs"
)

// benchEngine builds and starts an engine with the given shard count and
// the shipped queue depth.
func benchEngine(b *testing.B, shards int, compiled bool) *Engine {
	b.Helper()
	return benchEngineCfg(b, Config{Shards: shards, Compiled: compiled})
}

func benchEngineCfg(b *testing.B, cfg Config) *Engine {
	b.Helper()
	e, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := e.Start(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Stop() })
	return e
}

// warmEngine pushes enough reports through the engine to build every
// steady-state resource: terminal state structs, inference scratches, and
// — the big one — the full sub-batch buffer population of every shard
// queue (a queue of depth D lazily builds D buffers while producers
// outpace the shard).  Benchmarks that skip this measure the population
// build as per-op bytes that scale with shards × depth instead of the
// steady state.
func warmEngine(b *testing.B, e *Engine, batches [][]Report) {
	b.Helper()
	runLoad(b, e, batches, e.NumShards()*DefaultQueueDepth*maxSubBatch+4*512)
}

// runLoad pushes n reports through the engine from `submitters` concurrent
// goroutines, each cycling its own terminal-disjoint batch, then flushes.
func runLoad(b *testing.B, e *Engine, batches [][]Report, n int) {
	b.Helper()
	var wg sync.WaitGroup
	per := (n + len(batches) - 1) / len(batches)
	for _, batch := range batches {
		wg.Add(1)
		go func(batch []Report) {
			defer wg.Done()
			sent := 0
			for sent < per {
				if err := e.SubmitBatch(batch); err != nil {
					b.Error(err)
					return
				}
				sent += len(batch)
			}
		}(batch)
	}
	wg.Wait()
	e.Flush()
}

// submitterBatches splits a terminal population into terminal-disjoint
// batches, one per submitter, so per-terminal report order is preserved.
func submitterBatches(submitters, batchLen, terminals int) [][]Report {
	out := make([][]Report, submitters)
	for s := range out {
		batch := steadyBatch(batchLen, terminals/submitters)
		for i := range batch {
			batch[i].Terminal = TerminalID(s*1_000_000) + batch[i].Terminal
		}
		out[s] = batch
	}
	return out
}

// benchServeShards is the body shared by the shard scaling benchmarks
// (exact, compiled and adaptive): 4 submitter goroutines feed every
// configuration so ingest is never the bottleneck, and the warm-up builds
// the full buffer population so the timed region is true steady state.
func benchServeShards(b *testing.B, e *Engine) {
	batches := submitterBatches(4, 512, 256)
	warmEngine(b, e, batches)
	before := e.Stats().Totals().Decisions
	b.ReportAllocs()
	b.ResetTimer()
	runLoad(b, e, batches, b.N)
	b.StopTimer()
	decided := e.Stats().Totals().Decisions - before
	b.ReportMetric(float64(decided)/b.Elapsed().Seconds(), "decisions/sec")
}

// BenchmarkServeShards measures steady-state serving throughput (ns per
// decision) as the shard count grows — the scaling headline.
func BenchmarkServeShards(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServeShards(b, benchEngine(b, shards, false))
		})
	}
}

// BenchmarkServeCompiled is BenchmarkServeShards on the compiled control
// surface: sub-batches are scored through the columnar EvaluateBatch
// pipeline instead of per-decision Mamdani inference — on the
// submitters, as for every stateless schema — and the shards complete
// them.
func BenchmarkServeCompiled(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchServeShards(b, benchEngine(b, shards, true))
		})
	}
}

// BenchmarkServeCompiledMetrics is BenchmarkServeCompiled with the full
// telemetry layer live — registry, stage histograms, verdict tallies —
// recording what always-on metrics cost the compiled hot path (the
// acceptance budget is <2% against the uninstrumented baseline).
func BenchmarkServeCompiledMetrics(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngineCfg(b, Config{
				Shards: shards, Compiled: true,
				Metrics: obs.NewRegistry(),
			})
			benchServeShards(b, e)
		})
	}
}

// BenchmarkServeAdaptive serves the speed-adaptive extension on the
// compiled kernel through the columnar pipeline — the third decision
// mode, which no perfbench workload runs.
func BenchmarkServeAdaptive(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e := benchEngineCfg(b, Config{
				Shards: shards,
				AlgorithmFactory: func() handover.Algorithm {
					a, err := handover.NewCompiledAdaptiveFuzzy()
					if err != nil {
						panic(err)
					}
					return a
				},
			})
			benchServeShards(b, e)
		})
	}
}

// BenchmarkServeIngestOnly isolates the routing/queueing overhead: every
// report is settled by the POTLC quality gate, so the decision work is a
// branch and the measurement is hash + channel + state bookkeeping.
func BenchmarkServeIngestOnly(b *testing.B) {
	e := benchEngine(b, 4, false)
	batches := make([][]Report, 4)
	for s := range batches {
		batch := make([]Report, 512)
		for i := range batch {
			batch[i] = gateMeas(TerminalID(s*1_000_000 + i%64))
		}
		batches[s] = batch
	}
	warmEngine(b, e, batches)
	b.ReportAllocs()
	b.ResetTimer()
	runLoad(b, e, batches, b.N)
}

// BenchmarkServeSubmitBatch measures the producer side: one goroutine
// submitting against idle-enough shards (large queue, 4 shards).  The
// paper schema is stateless, so that cost includes gathering and scoring
// every sub-batch before it is queued.
func BenchmarkServeSubmitBatch(b *testing.B) {
	e := benchEngine(b, 4, false)
	batch := steadyBatch(512, 64)
	warmEngine(b, e, [][]Report{batch})
	b.ReportAllocs()
	b.ResetTimer()
	sent := 0
	for sent < b.N {
		if err := e.SubmitBatch(batch); err != nil {
			b.Fatal(err)
		}
		sent += len(batch)
	}
	e.Flush()
}

// BenchmarkServeParseBatchLine decodes a 4-report paper batch line per
// op: "reused" into one destination, as every ingest connection does, and
// "fresh" through ParseBatchLine, which allocates the result.
func BenchmarkServeParseBatchLine(b *testing.B) {
	line := AppendBatchJSON(nil, paperWireReports(4))
	for _, reuse := range []bool{true, false} {
		name := "fresh"
		if reuse {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			var dst []Report
			b.ReportAllocs()
			b.SetBytes(int64(len(line)))
			for i := 0; i < b.N; i++ {
				var err error
				if reuse {
					dst, err = parseBatchInto(dst, line)
				} else {
					dst, err = ParseBatchLine(line)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(4*b.N), "ns/report")
		})
	}
}

// BenchmarkServeParseOutcomeLine decodes one scored decision line per op,
// as the cluster router does for every decision a node returns.
func BenchmarkServeParseOutcomeLine(b *testing.B) {
	line := AppendOutcomeJSON(nil, Outcome{Terminal: 4096, Seq: 17,
		Decision: handover.Decision{Score: 0.4213, Scored: true, Reason: "FLC-threshold"}})
	b.ReportAllocs()
	b.SetBytes(int64(len(line)))
	for i := 0; i < b.N; i++ {
		if _, err := ParseOutcomeLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

// benchClaims returns a mux claiming n terminals at seeded random IDs,
// dealt round-robin to owners bindings that each route to their own
// sink over io.Discard.
func benchClaims(b *testing.B, n, owners int) (*DecisionMux, []*Binding, []TerminalID) {
	b.Helper()
	mux := NewDecisionMux()
	bs := make([]*Binding, owners)
	for i := range bs {
		bs[i] = NewBinding(mux, NewSink(io.Discard))
	}
	rng := rand.New(rand.NewPCG(1, 2))
	ids := make([]TerminalID, n)
	for i := range ids {
		ids[i] = TerminalID(rng.Uint64())
		if err := bindTerminals(bs[i%owners], ids[i]); err != nil {
			b.Fatal(err)
		}
	}
	return mux, bs, ids
}

// BenchmarkServeMuxRoute routes outcomes of 65,536 claimed terminals
// from parallel goroutines, as shard goroutines do: one claim lookup and
// one sink write per op.
func BenchmarkServeMuxRoute(b *testing.B) {
	mux, _, ids := benchClaims(b, 1<<16, 64)
	var goroutines atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := goroutines.Add(1) * 4099
		for pb.Next() {
			mux.Route(Outcome{Terminal: ids[i%uint64(len(ids))]})
			i++
		}
	})
}

// BenchmarkServeMuxBind submits 64-report batches for terminals their
// binding already claims, out of 65,536 claims: the claim check every
// ingested report pays.  ns/op is per batch.
func BenchmarkServeMuxBind(b *testing.B) {
	_, bs, ids := benchClaims(b, 1<<16, 1)
	rs := make([]Report, 64)
	submit := func([]Report) error { return nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i * len(rs) % len(ids)
		for k := range rs {
			rs[k].Terminal = ids[off+k]
		}
		if err := bs[0].Submit(rs, submit); err != nil {
			b.Fatal(err)
		}
	}
}
