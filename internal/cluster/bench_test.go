package cluster

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/serve"
)

// benchBatches builds terminal-disjoint report batches, one per
// submitter, cycling a varied-measurement population (per-terminal order
// preserved because each submitter owns its terminals).
func benchBatches(submitters, batchLen, terminalsPer int) [][]serve.Report {
	out := make([][]serve.Report, submitters)
	for s := range out {
		batch := make([]serve.Report, batchLen)
		for i := range batch {
			id := s*1_000_000 + i%terminalsPer
			batch[i] = serve.Report{Terminal: serve.TerminalID(id), Meas: testMeas(i)}
		}
		out[s] = batch
	}
	return out
}

// benchClusterLoad pushes n reports through the router from concurrent
// submitters and flushes.
func benchClusterLoad(b *testing.B, r Router, batches [][]serve.Report, n int) {
	b.Helper()
	var wg sync.WaitGroup
	per := (n + len(batches) - 1) / len(batches)
	for _, batch := range batches {
		wg.Add(1)
		go func(batch []serve.Report) {
			defer wg.Done()
			sent := 0
			for sent < per {
				if err := r.SubmitBatch(batch); err != nil {
					b.Error(err)
					return
				}
				sent += len(batch)
			}
		}(batch)
	}
	wg.Wait()
	if err := r.Flush(0); err != nil {
		b.Error(err)
	}
}

// BenchmarkClusterLocal measures steady-state routed throughput across
// in-process node counts (compiled decision mode, 2 shards per node).
// nodes=1 is the router-layer overhead baseline against
// BenchmarkServeCompiled.
func BenchmarkClusterLocal(b *testing.B) {
	for _, nodes := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			l, err := NewLocal(LocalConfig{
				Nodes:  nodes,
				Engine: serve.Config{Shards: 2, QueueDepth: 256, Compiled: true},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			batches := benchBatches(4, 512, 64)
			// Warm the engines' buffer populations and terminal stores so
			// the timed region is steady state.
			benchClusterLoad(b, l, batches, nodes*2*256*64)
			before := l.Stats().Totals().Decisions
			b.ReportAllocs()
			b.ResetTimer()
			benchClusterLoad(b, l, batches, b.N)
			b.StopTimer()
			decided := l.Stats().Totals().Decisions - before
			b.ReportMetric(float64(decided)/b.Elapsed().Seconds(), "decisions/sec")
		})
	}
}
