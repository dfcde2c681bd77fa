package serve

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// gateMeas is an epoch the POTLC gate settles (serving above −75 dB):
// the cheapest decision the engine can serve.
func gateMeas(id TerminalID) Report {
	return Report{Terminal: id, Meas: cell.Measurement{
		Serving:   hexgrid.Cell{I: 0, J: 0},
		Neighbor:  hexgrid.Cell{I: 1, J: 0},
		ServingDB: -60, NeighborDB: -80, DMBNorm: 0.3,
	}}
}

// flcMeas is an epoch that reaches the FLC (serving below the gate) but
// does not hand over — the steady-state serving workload.
func flcMeas(id TerminalID) Report {
	return Report{Terminal: id, Meas: cell.Measurement{
		Serving:   hexgrid.Cell{I: 0, J: 0},
		Neighbor:  hexgrid.Cell{I: 1, J: 0},
		ServingDB: -80, NeighborDB: -100, CSSPdB: 1, DMBNorm: 0.6,
	}}
}

func TestConfigValidation(t *testing.T) {
	// Every validated field distinguishes zero (select a default) from
	// negative (reject): the diagnostics must say "non-negative", not
	// demand a positive value the zero default would then violate.
	for _, tc := range []struct {
		name    string
		cfg     Config
		wantErr string // empty: the config must be accepted
	}{
		{"negative shards", Config{Shards: -1}, "non-negative"},
		{"zero shards selects default", Config{Shards: 0}, ""},
		{"negative queue depth", Config{QueueDepth: -5}, "non-negative"},
		{"zero queue depth selects default", Config{QueueDepth: 0}, ""},
		{"negative ping-pong window", Config{PingPongWindowKm: -1}, "non-negative"},
		{"zero ping-pong window selects default", Config{PingPongWindowKm: 0}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, err := New(tc.cfg)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("config %+v rejected: %v", tc.cfg, err)
				}
				if e.NumShards() < 1 {
					t.Errorf("shard count %d after defaulting", e.NumShards())
				}
				return
			}
			if err == nil {
				t.Fatalf("config %+v accepted", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestStartAfterStop: a stopped engine cannot be restarted; Start must
// fail with ErrNotRunning rather than panic on the closed queues.
func TestStartAfterStop(t *testing.T) {
	e, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("Start after Stop: %v, want ErrNotRunning", err)
	}
	if err := e.SubmitBatch([]Report{gateMeas(1)}); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("SubmitBatch after failed restart: %v, want ErrNotRunning", err)
	}
}

func TestLifecycle(t *testing.T) {
	e, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch([]Report{gateMeas(1)}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("SubmitBatch before Start: %v", err)
	}
	if err := e.Stop(); !errors.Is(err, ErrNotRunning) {
		t.Errorf("Stop before Start: %v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); !errors.Is(err, ErrNotRunning) {
		t.Errorf("double Start: %v", err)
	}
	if err := e.SubmitBatch([]Report{gateMeas(1)}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatch([]Report{gateMeas(1)}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("SubmitBatch after Stop: %v", err)
	}
	if got := e.Stats().Totals().Decisions; got != 1 {
		t.Errorf("decisions = %d, want 1", got)
	}
}

// TestStopDrainsQueue: reports accepted before Stop are all decided.
func TestStopDrainsQueue(t *testing.T) {
	var decided atomic.Uint64
	e, err := New(Config{Shards: 2, QueueDepth: 256, OnDecision: func(Outcome) { decided.Add(1) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	const n = 500
	for i := 0; i < n; i++ {
		if err := e.SubmitBatch([]Report{gateMeas(TerminalID(i % 7))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if decided.Load() != n {
		t.Errorf("decided %d of %d before Stop returned", decided.Load(), n)
	}
}

// TestBackpressure: a stalled shard fills its bounded queue, and
// SubmitBatch then blocks until the shard drains.
func TestBackpressure(t *testing.T) {
	release := make(chan struct{})
	first := make(chan struct{})
	var once atomic.Bool
	e, err := New(Config{Shards: 1, QueueDepth: 2, OnDecision: func(Outcome) {
		if once.CompareAndSwap(false, true) {
			close(first)
		}
		<-release
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// One report stalls in the callback; two more fill the queue.
	for i := 0; i < 3; i++ {
		if err := e.SubmitBatch([]Report{gateMeas(TerminalID(i))}); err != nil {
			t.Fatal(err)
		}
	}
	<-first
	if got := e.Stats().Shards[0].QueueDepth; got != 2 {
		t.Errorf("queue depth %d, want 2", got)
	}

	// A blocked SubmitBatch must complete once the shard drains.
	done := make(chan error, 1)
	go func() { done <- e.SubmitBatch([]Report{gateMeas(10)}) }()
	select {
	case err := <-done:
		t.Fatalf("SubmitBatch returned %v while the queue was full", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Totals().Decisions; got != 4 {
		t.Errorf("decisions = %d, want 4", got)
	}
}

// TestExternalReattachment: a report whose serving cell differs from the
// engine's recorded attachment restarts the terminal's power history
// instead of feeding the algorithm stale cross-cell state.
func TestExternalReattachment(t *testing.T) {
	var outs []Outcome
	e, err := New(Config{Shards: 1, OnDecision: func(o Outcome) { outs = append(outs, o) }})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	r1 := flcMeas(1)
	r2 := flcMeas(1)
	r2.Meas.Serving = hexgrid.Cell{I: 2, J: 0} // reattached elsewhere
	r2.Meas.ServingDB = -90
	if err := e.SubmitBatch([]Report{r1, r2}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outcomes", len(outs))
	}
	// With history restarted the PRTLC sees havePrev=false; had the stale
	// −80 dB prev been kept, the falling −90 dB signal would look like a
	// confirmed degradation.  The fuzzy verdict here is no-handover either
	// way, so assert on the engine state instead: the terminal count stays
	// 1 and no handover was recorded.
	tot := e.Stats().Totals()
	if tot.Terminals != 1 || tot.Handovers != 0 || tot.Errors != 0 {
		t.Errorf("totals %+v", tot)
	}
}

// crossingMeas is an epoch whose FLC score clears the paper's 0.7
// threshold (degrading serving power, strong distant neighbor), so the
// verdict is settled by the PRTLC history stage — the epoch shape that
// exposes history-handling bugs.  Callers pick serving cell and power.
func crossingMeas(id TerminalID, serving hexgrid.Cell, servingDB float64) Report {
	return Report{Terminal: id, Meas: cell.Measurement{
		Serving:   serving,
		Neighbor:  hexgrid.Cell{I: serving.I + 1, J: serving.J},
		ServingDB: servingDB, NeighborDB: -93.7, CSSPdB: -3.5, DMBNorm: 1.2,
	}}
}

// TestExternalReattachmentColumnar drives the reattachment correction
// through the columnar batch pipeline with a stream where the correction
// is decision-visible: without the history restart, the falling serving
// power of the reattached terminal would read as a confirmed degradation
// and execute a handover.
func TestExternalReattachmentColumnar(t *testing.T) {
	r1 := crossingMeas(1, hexgrid.Cell{I: 0, J: 0}, -90)
	r2 := crossingMeas(1, hexgrid.Cell{I: 2, J: 0}, -95) // reattached elsewhere, power falling
	r2.Meas.WalkedKm = 0.1

	// Precondition: with the stale history kept, r2 would hand over.
	if dec, err := handover.NewFuzzy(nil).Decide(r2.Meas, r1.Meas.ServingDB, true); err != nil || !dec.Handover {
		t.Fatalf("precondition: r2 with stale history → (%+v, %v), want an executed handover", dec, err)
	}

	var outs []Outcome
	e, err := New(Config{Shards: 1, OnDecision: func(o Outcome) { outs = append(outs, o) }})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.shards[0].scorer.(*handover.Fuzzy); !ok {
		t.Fatalf("default engine scores through %T; the test would not cover the paper controller's batch stage", e.shards[0].scorer)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	// One SubmitBatch of two reports for one shard: a single sub-batch of
	// length 2, scored as one frame.
	if err := e.SubmitBatch([]Report{r1, r2}); err != nil {
		t.Fatal(err)
	}
	e.Flush()
	if err := e.Stop(); err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("%d outcomes", len(outs))
	}
	if outs[1].Executed || outs[1].Decision.Handover {
		t.Fatalf("columnar path executed a handover on reattachment: %+v", outs[1])
	}
	if outs[1].Decision.Reason != "PRTLC-confirmation" {
		t.Errorf("post-reattachment stage %q, want PRTLC-confirmation (history restarted)", outs[1].Decision.Reason)
	}
}

// TestCommitRestartsHistoryAfterHandover pins the post-handover PRTLC
// sequence against the sim path's history semantics (Measurer.Handover:
// an executed handover invalidates the previous-epoch power; the next
// no-handover epoch re-seeds it from its own measurement).  The engine
// must reproduce the per-report reference walk epoch by epoch — in
// particular, the epoch right after a handover must settle as
// PRTLC-confirmation even though its power is lower than anything seen
// before the handover.
func TestCommitRestartsHistoryAfterHandover(t *testing.T) {
	cellA := hexgrid.Cell{I: 0, J: 0}
	// crossingMeas hands over to serving.I+1, so the stream tracks the
	// attachment the engine commits.
	cellB := hexgrid.Cell{I: 1, J: 0}
	reports := []Report{
		crossingMeas(1, cellA, -90),  // no history yet → PRTLC-confirmation
		crossingMeas(1, cellA, -95),  // falling vs −90 → execute-handover
		crossingMeas(1, cellB, -99),  // post-handover: history restarted → PRTLC-confirmation
		crossingMeas(1, cellB, -101), // falling vs −99 → execute-handover
	}
	for i := range reports {
		reports[i].Meas.WalkedKm = float64(i) * 0.1
	}

	// Per-report reference with the simulator's history rules.
	ref := handover.NewFuzzy(nil)
	prevDB, havePrev := 0.0, false
	var want []bool
	for _, r := range reports {
		dec, err := ref.Decide(r.Meas, prevDB, havePrev)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, dec.Handover)
		prevDB, havePrev = r.Meas.ServingDB, !dec.Handover
	}
	if len(want) != 4 || want[0] || !want[1] || want[2] || !want[3] {
		t.Fatalf("reference walk %v does not exercise the post-handover epochs (want [false true false true])", want)
	}

	var outs []Outcome
	e, err := New(Config{Shards: 1, OnDecision: func(o Outcome) { outs = append(outs, o) }})
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
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("epoch %d: %v", i, o.Err)
		}
		if o.Executed != want[i] {
			t.Errorf("epoch %d: executed %v, reference %v", i, o.Executed, want[i])
		}
	}
	if outs[2].Decision.Reason != "PRTLC-confirmation" {
		t.Errorf("post-handover epoch stage %q, want PRTLC-confirmation", outs[2].Decision.Reason)
	}
}

func TestShardOfIsStable(t *testing.T) {
	e, err := New(Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]int)
	for i := 0; i < 4096; i++ {
		s := e.ShardOf(TerminalID(i))
		if s != e.ShardOf(TerminalID(i)) {
			t.Fatal("ShardOf is not stable")
		}
		if s < 0 || s >= 8 {
			t.Fatalf("shard %d out of range", s)
		}
		seen[s]++
	}
	// Dense IDs must spread: no shard may own more than twice its share.
	for s, n := range seen {
		if n > 2*4096/8 {
			t.Errorf("shard %d owns %d of 4096 terminals", s, n)
		}
	}
}

// errScoreFrame is failingScorer's scoring failure.
var errScoreFrame = errors.New("score frame failed")

// failingScorer is a BatchScorer whose ScoreFrame always fails.  Its
// per-report verdicts would execute a handover, so a report decided
// despite the failure shows up as an executed, error-free outcome.
type failingScorer struct{ schema *handover.FeatureSchema }

func (failingScorer) Name() string { return "failing" }
func (failingScorer) Reset()       {}
func (failingScorer) Decide(cell.Measurement, float64, bool) (handover.Decision, error) {
	return handover.Decision{Handover: true}, nil
}
func (f failingScorer) Schema() *handover.FeatureSchema       { return f.schema }
func (failingScorer) ScoreFrame(*handover.FeatureFrame) error { return errScoreFrame }
func (failingScorer) DecideScored(*cell.Measurement, float64, bool, float64, handover.ScoreStatus) (handover.Decision, error) {
	return handover.Decision{Handover: true}, nil
}

// TestScoreFrameErrorCommitsEveryReport pins the scoring-failure path:
// when ScoreFrame fails, every report of the frame commits as an
// algorithm error — one outcome each, in sequence, none dropped or
// re-decided — for a stateless and a stateful schema alike.
func TestScoreFrameErrorCommitsEveryReport(t *testing.T) {
	for _, tc := range []struct {
		name   string
		schema *handover.FeatureSchema
	}{
		{"stateless", handover.PaperFeatureSchema()},
		{"stateful", handover.TrendFeatureSchema()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const terminals = 3
			rec := newRecorder(terminals)
			e, err := New(Config{
				Shards:           2,
				AlgorithmFactory: func() handover.Algorithm { return failingScorer{tc.schema} },
				OnDecision:       rec.record,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			// Cycling terminals repeat inside sub-batches (several stateful
			// runs per sub-batch); the trailing one-report batches are 1-row
			// sub-batches.
			batch := steadyBatch(48, terminals)
			if err := e.SubmitBatch(batch); err != nil {
				t.Fatal(err)
			}
			for _, r := range batch[:terminals] {
				if err := e.SubmitBatch([]Report{r}); err != nil {
					t.Fatal(err)
				}
			}
			e.Flush()
			if err := e.Stop(); err != nil {
				t.Fatal(err)
			}
			n := len(batch) + terminals
			for id := 0; id < terminals; id++ {
				outs := *rec[TerminalID(id)]
				if len(outs) != n/terminals {
					t.Fatalf("terminal %d: %d outcomes, want %d", id, len(outs), n/terminals)
				}
				for j, o := range outs {
					if !errors.Is(o.Err, errScoreFrame) || o.Seq != uint64(j) || o.Executed || o.Decision != (handover.Decision{}) {
						t.Fatalf("terminal %d outcome %d: %+v, want seq %d with the scoring error", id, j, o, j)
					}
				}
			}
			tot := e.Stats().Totals()
			if tot.Errors != uint64(n) || tot.Decisions != uint64(n) || tot.Handovers != 0 {
				t.Errorf("totals %+v, want %d decisions, all errors", tot, n)
			}
		})
	}
}
