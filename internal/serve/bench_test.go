package serve

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/handover"
	"repro/internal/obs"
)

// benchQueueDepth is the per-shard queue bound of the serve benchmarks:
// deep enough that ingest is never the bottleneck, shallow enough that the
// warm-up pass can build the complete sub-batch buffer population (shards
// × depth buffers; see bufPool) before the timer starts.
const benchQueueDepth = 256

// benchEngine builds and starts an engine with the given shard count.
func benchEngine(b *testing.B, shards int, compiled bool) *Engine {
	b.Helper()
	return benchEngineCfg(b, Config{Shards: shards, QueueDepth: benchQueueDepth, Compiled: compiled})
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
	runLoad(b, e, batches, e.NumShards()*benchQueueDepth*maxSubBatch+4*512)
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
// surface: the shard decide loop drains sub-batches through the columnar
// EvaluateBatch pipeline instead of per-decision Mamdani inference.
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
				Shards: shards, QueueDepth: benchQueueDepth, Compiled: true,
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
				Shards: shards, QueueDepth: benchQueueDepth,
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

// BenchmarkServeSubmitBatch measures the producer-side cost alone: one
// goroutine submitting against idle-enough shards (large queue, 4 shards).
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
