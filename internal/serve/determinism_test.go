package serve

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/handover"
	"repro/internal/sim"
)

// simStreams runs the given configs through the single-threaded simulator
// and returns one tagged report stream per run plus the reference results.
func simStreams(t *testing.T, cfgs []sim.Config) ([][]Report, []*sim.Result) {
	t.Helper()
	streams := make([][]Report, len(cfgs))
	results := make([]*sim.Result, len(cfgs))
	for i, cfg := range cfgs {
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatalf("sim config %d: %v", i, err)
		}
		results[i] = res
		streams[i] = ReplayReports(TerminalID(i), res.Measurements())
	}
	return streams, results
}

// submitMode is one ingest shape a pin replays a report stream through.
type submitMode struct {
	name   string
	submit func(e *Engine, rs []Report) error
}

// submitModes are the single-goroutine ingest shapes: one SubmitBatch
// (sub-batches of up to maxSubBatch reports) and one SubmitBatch per
// report (1-row sub-batches).
var submitModes = []submitMode{
	{"batch", (*Engine).SubmitBatch},
	{"submit", func(e *Engine, rs []Report) error {
		for i := range rs {
			if err := e.SubmitBatch(rs[i : i+1]); err != nil {
				return err
			}
		}
		return nil
	}},
}

// concurrentSubmit splits the reports by terminal into four streams and
// submits each, in order, from its own goroutine, in SubmitBatch calls
// of up to 32 reports.  Every terminal's reports keep their order, so
// its decision sequence must not change, while the streams race through
// ingest: stateless sub-batches are scored on four submitting goroutines
// at once, each with its own ingest state.
var concurrentSubmit = submitMode{"concurrent", func(e *Engine, rs []Report) error {
	const streams, chunk = 4, 32
	var parts [streams][]Report
	for _, r := range rs {
		k := uint64(r.Terminal) % streams
		parts[k] = append(parts[k], r)
	}
	errs := make(chan error, streams)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for len(part) > 0 {
				n := min(len(part), chunk)
				if err := e.SubmitBatch(part[:n]); err != nil {
					errs <- err
					return
				}
				part = part[n:]
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}}

// pinSubmitModes are the ingest shapes of the determinism pins: the
// single-goroutine ones and concurrentSubmit.  The allocation pins keep
// to submitModes: goroutines allocate.
var pinSubmitModes = append(slices.Clip(submitModes), concurrentSubmit)

// paperFleetConfigs expands both paper scenarios across replicas × speeds —
// a small fleet with runs that do and do not hand over.
func paperFleetConfigs() []sim.Config {
	var cfgs []sim.Config
	for _, base := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()} {
		c, _ := sim.SweepGrid("x", base, 2, []float64{0, 30})
		cfgs = append(cfgs, c...)
	}
	return cfgs
}

// zeroHysteresis is a plain Algorithm: a 0-dB RSS hysteresis, which hands
// over at every crossing of the two powers and so ping-pongs.  An engine
// serves it through handover.AsBatchScorer, whose DecideScored is Decide —
// the path of every algorithm without a batch stage.
func zeroHysteresis() handover.Algorithm { return handover.Hysteresis{MarginDB: 0} }

// hysteresisFleetConfigs is the plain-Algorithm fleet: the paper walks of
// paperFleetConfigs at 20 legs, decided by zeroHysteresis.
func hysteresisFleetConfigs() []sim.Config {
	cfgs := paperFleetConfigs()
	for i := range cfgs {
		cfgs[i].NWalk = 20
		cfgs[i].AlgorithmFactory = zeroHysteresis
	}
	return cfgs
}

// checkPingPongDomain fails unless the sim results put the engine's
// ping-pong accounting under test within its known limit: some handover
// closes a ping-pong pair, and no window holds more handovers than the
// engine's ring keeps (pingPongHistory; past it the ring forgets, as
// TestRingForgetsBeyondHistory pins).
func checkPingPongDomain(t *testing.T, results []*sim.Result, windowKm float64) {
	t.Helper()
	pingPongs := 0
	for i, res := range results {
		pingPongs += res.PingPongCount
		for j, ev := range res.Events {
			inWindow := 0
			for _, prev := range res.Events[:j+1] {
				if ev.WalkedKm-prev.WalkedKm <= windowKm {
					inWindow++
				}
			}
			if inWindow > pingPongHistory {
				t.Fatalf("terminal %d: %d handovers inside the %g-km window ending at epoch %d, more than the ring's %d",
					i, inWindow, windowKm, ev.Epoch, pingPongHistory)
			}
		}
	}
	if pingPongs == 0 {
		t.Fatal("the fleet makes no ping-pong; the PingPong column is not under test")
	}
}

// recorder collects outcomes per terminal.  Entries are created before the
// engine starts; each terminal's slice is appended to by exactly one shard
// goroutine, so no locking is needed.
type recorder map[TerminalID]*[]Outcome

func newRecorder(n int) recorder {
	r := make(recorder, n)
	for i := 0; i < n; i++ {
		r[TerminalID(i)] = new([]Outcome)
	}
	return r
}

func (r recorder) record(o Outcome) { *r[o.Terminal] = append(*r[o.Terminal], o) }

// checkAgainstSim compares each terminal's outcome sequence with the
// reference sim run: decision (verdict, score, reason), execution flag and
// ping-pong accounting must all match epoch by epoch.
func checkAgainstSim(t *testing.T, rec recorder, results []*sim.Result, shards int) {
	t.Helper()
	for i, res := range results {
		got := *rec[TerminalID(i)]
		if len(got) != len(res.Epochs) {
			t.Fatalf("shards=%d terminal %d: %d outcomes, sim has %d epochs",
				shards, i, len(got), len(res.Epochs))
		}
		pingpongs := 0
		for j, o := range got {
			e := res.Epochs[j]
			if o.Err != nil {
				t.Fatalf("shards=%d terminal %d epoch %d: %v", shards, i, j, o.Err)
			}
			if o.Seq != uint64(j) {
				t.Fatalf("shards=%d terminal %d epoch %d: seq %d", shards, i, j, o.Seq)
			}
			if o.Decision != e.Decision {
				t.Errorf("shards=%d terminal %d epoch %d: decision %+v, sim %+v",
					shards, i, j, o.Decision, e.Decision)
			}
			if o.Executed != e.Executed {
				t.Errorf("shards=%d terminal %d epoch %d: executed %v, sim %v",
					shards, i, j, o.Executed, e.Executed)
			}
			if o.PingPong {
				pingpongs++
			}
		}
		if pingpongs != res.PingPongCount {
			t.Errorf("shards=%d terminal %d: %d ping-pongs, sim counted %d",
				shards, i, pingpongs, res.PingPongCount)
		}
	}
}

// TestDeterminismMatchesSim is the multi-shard determinism guarantee:
// replaying sim-generated walks for a fleet of terminals through the
// engine — reports interleaved round-robin across terminals, any shard
// count, batched, one SubmitBatch per report or from concurrent
// submitters — yields per-terminal decision sequences identical to the
// single-threaded sim path.
func TestDeterminismMatchesSim(t *testing.T) {
	cfgs := paperFleetConfigs()
	streams, results := simStreams(t, cfgs)
	reports := InterleaveReports(streams)

	for _, shards := range []int{1, 3, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			for _, mode := range pinSubmitModes {
				t.Run(mode.name, func(t *testing.T) {
					rec := newRecorder(len(cfgs))
					e, err := New(Config{
						Shards:           shards,
						QueueDepth:       64,
						PingPongWindowKm: sim.DefaultPingPongWindowKm,
						OnDecision:       rec.record,
					})
					if err != nil {
						t.Fatal(err)
					}
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
					if err := mode.submit(e, reports); err != nil {
						t.Fatal(err)
					}
					e.Flush()
					if err := e.Stop(); err != nil {
						t.Fatal(err)
					}
					checkAgainstSim(t, rec, results, shards)

					totals := e.Stats().Totals()
					wantHO, wantPP := uint64(0), uint64(0)
					for _, res := range results {
						wantHO += uint64(res.HandoverCount())
						wantPP += uint64(res.PingPongCount)
					}
					if totals.Decisions != uint64(len(reports)) ||
						totals.Handovers != wantHO || totals.PingPongs != wantPP ||
						totals.Terminals != uint64(len(cfgs)) || totals.Errors != 0 {
						t.Errorf("totals %+v, want decisions=%d handovers=%d pingpongs=%d terminals=%d",
							totals, len(reports), wantHO, wantPP, len(cfgs))
					}
				})
			}
		})
	}
}

// trendFleetConfigs expands the trend-drift scenario family across
// replicas × speeds with the given algorithm factory — the fleet for the
// 4-input stateful-schema determinism pins.
func trendFleetConfigs(factory func() handover.Algorithm) []sim.Config {
	cfgs, _ := sim.SweepGrid("trend", sim.TrendDriftConfig(), 2, []float64{0, 30})
	for i := range cfgs {
		cfgs[i].AlgorithmFactory = factory
	}
	return cfgs
}

// TestDeterminismTrendFuzzy pins the stateful-schema columnar path: the
// 4-input trend controller's serve decisions — the SSN-trend feature
// extracted from shard-held per-terminal derived state and scored through
// the whole-frame gather — must match the single-threaded sim path, which
// advances the same derivation inside the scalar Decide, whether one
// goroutine submits or several.  Interleaved streams keep sub-batch
// terminals distinct, so batched ingest drives the whole-frame stateful
// gather.
func TestDeterminismTrendFuzzy(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		t.Run(fmt.Sprintf("compiled=%v", compiled), func(t *testing.T) {
			factory, err := handover.AlgorithmFactoryFor("trendfuzzy", compiled)
			if err != nil {
				t.Fatal(err)
			}
			cfgs := trendFleetConfigs(factory)
			streams, results := simStreams(t, cfgs)
			reports := InterleaveReports(streams)

			for _, shards := range []int{1, 4} {
				for _, mode := range pinSubmitModes {
					rec := newRecorder(len(cfgs))
					e, err := New(Config{
						Shards:           shards,
						QueueDepth:       64,
						AlgorithmFactory: factory,
						PingPongWindowKm: sim.DefaultPingPongWindowKm,
						OnDecision:       rec.record,
					})
					if err != nil {
						t.Fatal(err)
					}
					if want := handover.TrendFeatureSchema().Hash(); e.SchemaHash() != want {
						t.Fatalf("engine schema hash %#x, want trend schema %#x", e.SchemaHash(), want)
					}
					if err := e.Start(); err != nil {
						t.Fatal(err)
					}
					if err := mode.submit(e, reports); err != nil {
						t.Fatal(err)
					}
					e.Flush()
					if err := e.Stop(); err != nil {
						t.Fatal(err)
					}
					checkAgainstSim(t, rec, results, shards)
				}
			}
		})
	}
}

// TestDeterminismTrendFuzzySequentialBatches covers stateful repeats:
// submitting each terminal's stream contiguously puts one terminal many
// times into a sub-batch, so the stateful schema splits it into runs at
// every repeat.  The 40-leg walks span several sub-batches per terminal
// and hand over mid-sub-batch, ahead of FLC-scored reports of the same
// terminal.  Gathering a repeat before its predecessor commits lets the
// handover's trend reset land after the later reports advanced the
// derivation, wiping it, and the terminal's next sub-batch scores from a
// wrong trend — which the sim reference rejects.  The stream replays
// through every pinSubmitModes shape.
func TestDeterminismTrendFuzzySequentialBatches(t *testing.T) {
	factory, err := handover.AlgorithmFactoryFor("trendfuzzy", true)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := trendFleetConfigs(factory)
	for i := range cfgs {
		cfgs[i].NWalk = 40
	}
	streams, results := simStreams(t, cfgs)
	var reports []Report
	for _, s := range streams {
		reports = append(reports, s...)
	}

	for _, shards := range []int{1, 4} {
		for _, mode := range pinSubmitModes {
			rec := newRecorder(len(cfgs))
			e, err := New(Config{
				Shards:           shards,
				QueueDepth:       64,
				AlgorithmFactory: factory,
				PingPongWindowKm: sim.DefaultPingPongWindowKm,
				OnDecision:       rec.record,
			})
			if err != nil {
				t.Fatal(err)
			}
			// The stream must exercise the ordering: an executed handover
			// followed, inside the same sub-batch, by an FLC-scored report of
			// the same terminal.
			pos := make([]int, shards)
			epoch := make([]int, len(cfgs))
			hoBatch := make([]int, len(cfgs))
			scoredAfterHO := 0
			for i := range hoBatch {
				hoBatch[i] = -1
			}
			for _, r := range reports {
				sh, id := e.ShardOf(r.Terminal), r.Terminal
				sub := pos[sh] / maxSubBatch
				pos[sh]++
				ep := results[id].Epochs[epoch[id]]
				epoch[id]++
				if hoBatch[id] == sub && ep.Decision.Scored {
					scoredAfterHO++
				}
				if ep.Executed {
					hoBatch[id] = sub
				}
			}
			if scoredAfterHO == 0 {
				t.Fatalf("shards=%d: no FLC-scored report follows a handover inside a sub-batch; the ordering is not under test", shards)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
			if err := mode.submit(e, reports); err != nil {
				t.Fatal(err)
			}
			e.Flush()
			if err := e.Stop(); err != nil {
				t.Fatal(err)
			}
			checkAgainstSim(t, rec, results, shards)
		}
	}
}

// simOutcomes is the outcome sequence the sim path decided for terminal
// id: what an engine replaying res must report, the Shard field aside.
func simOutcomes(id TerminalID, res *sim.Result) []Outcome {
	pingPong := make(map[int]bool, len(res.Events))
	for _, ev := range res.Events {
		pingPong[ev.Epoch] = ev.PingPong
	}
	out := make([]Outcome, len(res.Epochs))
	for j, e := range res.Epochs {
		out[j] = Outcome{Terminal: id, Seq: uint64(j), Decision: e.Decision, Executed: e.Executed, PingPong: pingPong[j]}
	}
	return out
}

// TestDeterminismAcrossQueueDepth pins that the queue bound shapes timing
// only.  Each seeded fleet replays through engines whose shard queues
// hold 1, 2, 16, DefaultQueueDepth or 1,024 messages, on 1 and 4 shards,
// batched, one report per SubmitBatch or from concurrent submitters.
// Every terminal's (Seq,
// Decision, Executed, PingPong, Err) sequence must equal the sim's, for
// the compiled paper controller, for trendfuzzy and for a plain
// Algorithm (hysteresisFleetConfigs).  The 80-leg walks give ~2,000 and
// ~1,000 reports, so the small queues fill, and the paper fleet makes one
// ping-pong; the hysteresis fleet makes several.
func TestDeterminismAcrossQueueDepth(t *testing.T) {
	trend, err := handover.AlgorithmFactoryFor("trendfuzzy", true)
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := handover.AlgorithmFactoryFor("fuzzy", true)
	if err != nil {
		t.Fatal(err)
	}
	speeds := []float64{0, 30, 50}
	var paper []sim.Config
	for _, base := range []sim.Config{sim.PaperBoundaryConfig(), sim.PaperCrossingConfig()} {
		c, _ := sim.SweepGrid("x", base, 4, speeds)
		paper = append(paper, c...)
	}
	trendCfgs, _ := sim.SweepGrid("trend", sim.TrendDriftConfig(), 4, speeds)
	for i := range paper {
		paper[i].AlgorithmFactory, paper[i].NWalk = compiled, 80
	}
	for i := range trendCfgs {
		trendCfgs[i].AlgorithmFactory, trendCfgs[i].NWalk = trend, 80
	}
	pingPongs := 0
	for _, fleet := range []struct {
		name string
		cfgs []sim.Config
		cfg  Config
	}{
		{"paper-compiled", paper, Config{Compiled: true}},
		{"trendfuzzy", trendCfgs, Config{AlgorithmFactory: trend}},
		{"hysteresis", hysteresisFleetConfigs(), Config{AlgorithmFactory: zeroHysteresis}},
	} {
		t.Run(fleet.name, func(t *testing.T) {
			streams, results := simStreams(t, fleet.cfgs)
			if fleet.name == "hysteresis" {
				checkPingPongDomain(t, results, sim.DefaultPingPongWindowKm)
			}
			reports := InterleaveReports(streams)
			handovers := 0
			for _, res := range results {
				handovers += res.HandoverCount()
				pingPongs += res.PingPongCount
			}
			if handovers == 0 {
				t.Fatal("the fleet executes no handover; only no-handover epochs are under test")
			}
			for _, depth := range slices.Compact(slices.Sorted(slices.Values([]int{1, 2, 16, DefaultQueueDepth, 1024}))) {
				for _, shards := range []int{1, 4} {
					for _, mode := range pinSubmitModes {
						t.Run(fmt.Sprintf("depth=%d,shards=%d,%s", depth, shards, mode.name), func(t *testing.T) {
							rec := newRecorder(len(fleet.cfgs))
							cfg := fleet.cfg
							cfg.Shards, cfg.QueueDepth = shards, depth
							cfg.PingPongWindowKm = sim.DefaultPingPongWindowKm
							cfg.OnDecision = rec.record
							e, err := New(cfg)
							if err != nil {
								t.Fatal(err)
							}
							if err := e.Start(); err != nil {
								t.Fatal(err)
							}
							if err := mode.submit(e, reports); err != nil {
								t.Fatal(err)
							}
							e.Flush()
							if err := e.Stop(); err != nil {
								t.Fatal(err)
							}
							for i, res := range results {
								got, want := *rec[TerminalID(i)], simOutcomes(TerminalID(i), res)
								if len(got) != len(want) {
									t.Fatalf("terminal %d: %d outcomes, sim has %d epochs", i, len(got), len(want))
								}
								for j, o := range got {
									o.Shard = 0
									if o != want[j] {
										t.Fatalf("terminal %d epoch %d: %+v, sim %+v", i, j, o, want[j])
									}
								}
							}
						})
					}
				}
			}
		})
	}
	if pingPongs == 0 {
		t.Error("no fleet makes a ping-pong; the PingPong column is not under test")
	}
}
