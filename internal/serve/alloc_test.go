package serve

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/handover"
)

// steadyBatch builds a batch cycling nTerminals terminals through
// FLC-engaging, non-handover epochs — the steady-state serving workload.
func steadyBatch(n, nTerminals int) []Report {
	batch := make([]Report, n)
	for i := range batch {
		r := flcMeas(TerminalID(i % nTerminals))
		// Vary the inputs so the FLC fuzzifies fresh values each epoch.
		r.Meas.CSSPdB = -1 + float64(i%5)*0.5
		r.Meas.NeighborDB = -102 + float64(i%7)
		r.Meas.DMBNorm = 0.5 + float64(i%4)*0.1
		batch[i] = r
	}
	return batch
}

// TestSubmitBatchSteadyStateAllocs is the acceptance regression: once
// every terminal has been seen (state structs built, scratches warm), the
// whole SubmitBatch → shard → frame pipeline → counters path must run
// without heap allocations — and so must one Submit per report, whose
// 1-row sub-batches take the same frame pipeline.  AllocsPerRun counts
// mallocs process-wide, so the shard goroutines are included in the
// measurement.
func TestSubmitBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the regression runs in the non-race job")
	}
	e, err := New(Config{Shards: 4, QueueDepth: 512})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	batch := steadyBatch(256, 32)
	for _, mode := range submitModes {
		// Warm: create terminals, grow maps, build scratches, cache
		// sudogs, fill the mode's sub-batch buffer population.
		for i := 0; i < 4; i++ {
			if err := mode.submit(e, batch); err != nil {
				t.Fatal(err)
			}
			e.Flush()
		}

		allocs := testing.AllocsPerRun(20, func() {
			if err := mode.submit(e, batch); err != nil {
				t.Fatal(err)
			}
			e.Flush()
		})
		perDecision := allocs / float64(len(batch))
		if perDecision >= 0.01 {
			t.Errorf("%s: steady state allocates %.1f per batch (%.4f per decision), want 0",
				mode.name, allocs, perDecision)
		}
	}
	if got := e.Stats().Totals().Handovers; got != 0 {
		t.Fatalf("steady batch executed %d handovers; the workload is not steady-state", got)
	}
}

// TestTrendWholeFrameSteadyStateAllocs pins the other stateful columnar
// shape: with every sub-batch's terminals distinct, the trend scorer runs
// the whole-frame observe + Gather + ScoreFrame path, which must also be
// allocation-free once terminal state and the shard frames are warm.
func TestTrendWholeFrameSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the regression runs in the non-race job")
	}
	e, err := New(Config{Shards: 4, QueueDepth: 512, AlgorithmFactory: func() handover.Algorithm {
		a, err := handover.NewCompiledTrendFuzzy()
		if err != nil {
			panic(err)
		}
		return a
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	batch := steadyBatch(256, 256) // every terminal appears once per batch
	for i := 0; i < 4; i++ {
		if err := e.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	}

	allocs := testing.AllocsPerRun(20, func() {
		if err := e.SubmitBatch(batch); err != nil {
			t.Fatal(err)
		}
		e.Flush()
	})
	if perDecision := allocs / float64(len(batch)); perDecision >= 0.01 {
		t.Errorf("trend whole-frame steady state allocates %.1f per batch (%.4f per decision), want 0",
			allocs, perDecision)
	}
}

// TestServeSteadyStateBytesPerShardCount pins the byte side of the
// steady-state contract at every shard count, in every decision mode
// (exact, compiled, the speed-adaptive extension on the compiled kernel,
// the stateful trend schema and per-terminal algorithms): once each
// shard's sub-batch buffer population exists (built lazily while the
// queue first fills; see getBuf), ingest → decide → recycle must allocate
// nothing, so per-op bytes cannot grow with the shard count.  Bytes are
// measured from MemStats.TotalAlloc, which is monotonic and
// GC-independent.
func TestServeSteadyStateBytesPerShardCount(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the regression runs in the non-race job")
	}
	modes := []struct {
		name string
		cfg  Config
	}{
		{"exact", Config{}},
		{"compiled", Config{Compiled: true}},
		{"adaptive", Config{AlgorithmFactory: func() handover.Algorithm {
			a, err := handover.NewCompiledAdaptiveFuzzy()
			if err != nil {
				panic(err)
			}
			return a
		}}},
		// trendfuzzy's stateful schema: the 32-terminal cycling batch
		// repeats terminals within sub-batches, so this pins the stateful
		// split into runs at 0 allocs too.
		{"trendfuzzy", Config{AlgorithmFactory: func() handover.Algorithm {
			a, err := handover.NewCompiledTrendFuzzy()
			if err != nil {
				panic(err)
			}
			return a
		}}},
		// Every terminal decides through its own HysteresisTTT instance,
		// looked up from the shard's algorithm table.
		{"per-terminal-ttt", Config{PerTerminalAlgorithms: true, AlgorithmFactory: func() handover.Algorithm {
			return handover.NewHysteresisTTT(3, 2)
		}}},
	}
	for _, mode := range modes {
		for _, shards := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s/shards=%d", mode.name, shards), func(t *testing.T) {
				cfg := mode.cfg
				cfg.Shards, cfg.QueueDepth = shards, 64
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				defer e.Stop()
				batch := steadyBatch(256, 32)
				// Warm until the buffer population of every queue exists:
				// submit more sub-batches than shards × depth can hold.
				for i := 0; i < shards*64/2+8; i++ {
					if err := e.SubmitBatch(batch); err != nil {
						t.Fatal(err)
					}
				}
				e.Flush()

				var before, after runtime.MemStats
				const rounds = 20
				runtime.ReadMemStats(&before)
				for i := 0; i < rounds; i++ {
					if err := e.SubmitBatch(batch); err != nil {
						t.Fatal(err)
					}
					e.Flush()
				}
				runtime.ReadMemStats(&after)
				perDecision := float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*len(batch))
				// The threshold leaves room for runtime-internal noise
				// (ReadMemStats itself, background sweeping) while failing
				// loudly on any real per-decision or per-shard allocation.
				if perDecision >= 2 {
					t.Errorf("steady state allocates %.2f B per decision at %d shards, want ≈ 0",
						perDecision, shards)
				}
			})
		}
	}
}
