package serve

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/handover"
	"repro/internal/obs"
)

// TestAlgorithmFactoryCalls pins Config.AlgorithmFactory's contract.  New
// calls it once per shard for every schema.  A stateful schema (the SSN
// trend) is scored on its shards, so concurrent load never calls it
// again.  A stateless one (paper, speed-adaptive) is scored at ingest,
// with one scorer per live ingest state: k concurrent submitters cost at
// most k more calls, and the states are reused, so a second identical
// load costs none.
func TestAlgorithmFactoryCalls(t *testing.T) {
	const shards, submitters = 2, 4
	for _, tc := range []struct {
		algo     string
		compiled bool
		stateful bool
	}{
		{"fuzzy", false, false},
		{"adaptive", true, false},
		{"trendfuzzy", true, true},
	} {
		t.Run(tc.algo, func(t *testing.T) {
			build, err := handover.AlgorithmFactoryFor(tc.algo, tc.compiled)
			if err != nil {
				t.Fatal(err)
			}
			var calls atomic.Int64
			// Until the gate opens, every shard blocks in its first
			// delivery, so each submitter's SubmitBatch stays in flight —
			// holding its ingest state — until all of them have started.
			gate := make(chan struct{})
			var once sync.Once
			release := func() { once.Do(func() { close(gate) }) }
			e, err := New(Config{
				Shards:     shards,
				QueueDepth: 1,
				AlgorithmFactory: func() handover.Algorithm {
					calls.Add(1)
					return build()
				},
				OnDecision: func(Outcome) { <-gate },
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := calls.Load(); got != shards {
				t.Fatalf("New called the factory %d times, want once per shard (%d)", got, shards)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer e.Stop()
			defer release() // a failed wait must not leave Stop behind blocked shards

			// Each submitter's batch fills more sub-batches than the blocked
			// shards and their queues can take.
			batch := steadyBatch(8*maxSubBatch*shards, 64)
			load := func(started func()) {
				var wg sync.WaitGroup
				for w := 0; w < submitters; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						if err := e.SubmitBatch(batch); err != nil {
							t.Error(err)
						}
					}()
				}
				started()
				wg.Wait()
				e.Flush()
			}

			load(func() {
				// A stateless submitter builds its ingest state (one
				// factory call) before it queues anything.
				for deadline := time.Now().Add(10 * time.Second); !tc.stateful && calls.Load() != shards+submitters; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d factory calls after 10 s, want %d: the submitters never held ingest states at once", calls.Load(), shards+submitters)
					}
				}
				release()
			})
			after := calls.Load()
			switch {
			case tc.stateful && after != shards:
				t.Errorf("stateful schema: %d factory calls after concurrent load, want %d (New's only)", after, shards)
			case !tc.stateful && after > shards+submitters:
				t.Errorf("stateless schema: %d factory calls after load from %d submitters, want at most %d", after, submitters, shards+submitters)
			}

			load(func() {})
			if got := calls.Load(); got != after {
				t.Errorf("a second identical load called the factory %d more times, want 0", got-after)
			}
		})
	}
}

// TestStageHistogramsPopulated pins that the sampled stage histograms
// observe work wherever scoring runs: on the submitting goroutine for a
// stateless schema (the compiled paper controller) and on the shard for
// a stateful one (trendfuzzy).  After load, serve_score_ns and
// serve_batch_service_ns each hold observations.
func TestStageHistogramsPopulated(t *testing.T) {
	for _, algo := range []string{"fuzzy", "trendfuzzy"} {
		t.Run(algo, func(t *testing.T) {
			factory, err := handover.AlgorithmFactoryFor(algo, true)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			cfg := Config{Shards: 2, AlgorithmFactory: factory, Metrics: reg}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			defer e.Stop()
			// 4 × stageSampleEvery sub-batches per shard, so every sampling
			// counter — per ingest state or per shard — fires.
			batch := steadyBatch(4*stageSampleEvery*maxSubBatch*cfg.Shards, 32)
			if err := e.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
			e.Flush()

			counts := map[string]uint64{}
			for _, p := range reg.Export() {
				if p.Kind == obs.KindHistogram {
					counts[p.Name] += p.Count
				}
			}
			for _, name := range []string{"serve_score_ns", "serve_batch_service_ns"} {
				if counts[name] == 0 {
					t.Errorf("%s has no observations after %d decisions", name, len(batch))
				}
			}
		})
	}
}
