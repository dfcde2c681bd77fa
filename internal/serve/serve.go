// Package serve is the streaming handover decision engine: the long-lived
// serving layer that turns the paper's per-epoch controller into a system
// that owns per-terminal state across streamed measurement reports.
//
// The engine partitions the terminal population across shards.  Each shard
// is one goroutine that exclusively owns the state of its terminals
// (previous serving power, attachment, dwell/ping-pong history) and a
// handover.BatchScorer instance driven through one allocation-free frame
// pipeline — steady-state serving performs zero heap allocations per
// decision.  Reports are routed to shards by a 64-bit hash of the terminal
// ID, so one terminal's reports are always processed in submission order by
// the same goroutine: per-terminal decision sequences are deterministic and
// identical to the single-threaded sim path for the same measurement
// stream, regardless of the shard count (see the determinism tests).
//
// Ingest is SubmitBatch, through bounded per-shard queues: it blocks while
// an owning shard's queue is full (backpressure).  For a stateless feature
// schema (the paper's and the speed-adaptive controller, and every plain
// Algorithm) SubmitBatch also gathers each filled sub-batch and scores it —
// the POTLC gate and the FLC, which read only the measurement — on the
// submitting goroutine, so the shard only routes the sub-batch, completes
// each decision from its carried score and commits.  A stateful schema
// (the SSN trend) is gathered and scored on the shard, which owns the
// per-terminal derived state the gather advances.  Per-shard counters
// (decisions, handovers, ping-pongs, queue depth) are readable at any time
// through Stats without stopping the world.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/obs"
)

// TerminalID identifies one terminal (UE) across reports.
type TerminalID uint64

// Report is one terminal's measurement epoch: the unit of ingest.
type Report struct {
	// Terminal identifies the reporting terminal.
	Terminal TerminalID
	// Meas is the epoch measurement collected by the radio side.
	Meas cell.Measurement
}

// Outcome is the engine's verdict for one report, delivered to the
// OnDecision callback on the owning shard's goroutine.
type Outcome struct {
	// Terminal identifies the terminal and Seq its per-terminal report
	// index (0 for the first report the engine saw for it).
	Terminal TerminalID
	Seq      uint64
	// Decision is the algorithm's verdict; Executed reports whether the
	// engine committed the handover to the terminal's state.
	Decision handover.Decision
	Executed bool
	// PingPong flags an executed handover that closed a ping-pong pair
	// (returned to a cell left less than the configured window ago).
	PingPong bool
	// Shard is the index of the shard that served the report.
	Shard int
	// Err is the algorithm error, if any (the report then counts as a
	// no-handover epoch and Decision is the zero value).
	Err error
}

// Config configures an Engine.
type Config struct {
	// Shards is the number of state partitions (and worker goroutines).
	// 0 selects GOMAXPROCS; negative is invalid.
	Shards int
	// QueueDepth bounds each shard's ingest queue, in queued messages:
	// SubmitBatch packs per-shard messages of up to 64 reports.  A full
	// queue of depth D therefore holds up to D × 64 reports, about
	// D × 13 µs of compiled-paper decisions (which arrive scored) that a
	// newly queued report waits behind, but only about 2.5·D from a node
	// daemon fed wire lines (one SubmitBatch of ~2.5 reports per line).
	// 0 selects DefaultQueueDepth; negative is invalid.
	QueueDepth int
	// AlgorithmFactory builds the decision algorithm (nil: the paper's
	// fuzzy controller).  New calls it once per shard, and the one
	// instance it returns decides every terminal of that shard: it must
	// keep no per-terminal cross-epoch state.  Per-terminal history lives
	// in the engine (previous serving power, handover ring, the schema's
	// DerivedState).  HysteresisTTT, whose streak counter is such state,
	// is a sim baseline.  For a stateless schema SubmitBatch also calls it
	// once per live ingest state — built on a free-list miss, so about
	// one per concurrent submitter — possibly from several goroutines at
	// once; those instances only score frames (ScoreFrame) and never
	// decide.  A stateful schema's factory is called by New only.
	AlgorithmFactory func() handover.Algorithm
	// Compiled serves decisions from the compiled control surface: the
	// default fuzzy controller is built around the process-wide compiled
	// kernel (core.DefaultCompiledFLC) instead of per-decision Mamdani
	// inference.  Requires the default algorithm (AlgorithmFactory nil).
	Compiled bool
	// PingPongWindowKm is the walked-distance window of the ping-pong
	// accounting (0: DefaultPingPongWindowKm).
	PingPongWindowKm float64
	// OnDecision, when non-nil, receives every outcome on the owning
	// shard's goroutine.  A blocking callback stalls that shard and —
	// through the bounded queue — eventually the submitters.
	OnDecision func(Outcome)
	// Metrics, when non-nil, registers the engine's telemetry in the
	// registry: per-stage histograms (queue wait, kernel, service,
	// snapshot/restore) plus a collector exporting the live counters
	// Stats() reads.  The steady-state hot path stays allocation-free
	// with metrics enabled (pinned by TestMetricsSteadyStateAllocs); the
	// per-decision cost is a few clock reads per sub-batch.
	Metrics *obs.Registry
	// MetricsLabels are attached to every metric this engine registers —
	// how a multi-engine process (hocluster -local) tells nodes apart.
	MetricsLabels []obs.Label
	// TraceEvery samples every Nth decision per shard into the decision
	// trace ring served at /tracez (0: tracing off).  Sampled captures
	// re-run the FLC for its full inference trace and may allocate;
	// steady-state decisions in between are untouched.
	TraceEvery int
	// TraceBuffer bounds the trace ring (0: DefaultTraceBuffer).
	TraceBuffer int
}

// Defaults.
const (
	// DefaultQueueDepth is the per-shard ingest queue bound, in messages.
	// A saturated shard makes every report wait behind its whole queue,
	// so the bound is sized by latency: 16 is the smallest depth of a
	// 16–1,024 sweep (seed-paired perfbench engine-paper runs, recorded
	// in CHANGES.md) whose decisions/s and CPU per decision held parity
	// with 1,024.  A full queue of SubmitBatch messages holds 1,024
	// reports, ~0.2 ms of compiled-paper work.
	DefaultQueueDepth = 16
	// DefaultPingPongWindowKm matches the simulator's detector window.
	DefaultPingPongWindowKm = 1.0
)

// Engine lifecycle errors.
var (
	// ErrNotRunning is returned by SubmitBatch before Start and after
	// Stop.
	ErrNotRunning = errors.New("serve: engine not running")
)

// engine lifecycle states.
const (
	stateIdle = iota
	stateRunning
	stateStopped
)

// maxSubBatch caps the reports packed into one queued sub-batch: large
// enough to amortize the channel operation across many decisions, small
// enough to keep queueing granularity fine.
const maxSubBatch = 64

// subBatch is one queued unit of report work: up to maxSubBatch reports
// bound for one shard, in submission order.  For a stateless schema it
// also carries the scores SubmitBatch computed for them (see
// ingest.score); a stateful sub-batch is scored on the shard.
type subBatch struct {
	reports []Report
	// hd and status hold one ScoreFrame row per report, and err the
	// ScoreFrame error.  They are allocated only for a stateless schema.
	hd     []float64
	status []handover.ScoreStatus
	err    error
}

// Sub-batch buffers cycle producer → queue → shard → per-shard free list
// (a plain buffered channel rather than a sync.Pool), so steady-state
// recycling is deterministic and immune to GC pool clearing.
//
// The only allocation this scheme performs after warm-up is population
// growth: a queue of depth D can hold D sub-batches, and those buffers
// (7 KiB each, plus 0.6 KiB of score columns for a stateless schema) are
// built lazily on first use, so an engine whose queues have filled once
// owns up to shards × (depth+16) buffers and never allocates again
// (pinned per shard count by TestServeSteadyStateBytesPerShardCount).
// BenchmarkServeShards warms until the population is complete, so it
// measures steady state rather than the population build.

// getBuf takes an empty sub-batch buffer from the shard's free list,
// growing the population when the list is empty.
func (s *shard) getBuf() *subBatch {
	select {
	case b := <-s.free:
		return b
	default:
		b := &subBatch{reports: make([]Report, 0, maxSubBatch)}
		if !s.stateful {
			b.hd = make([]float64, 0, maxSubBatch)
			b.status = make([]handover.ScoreStatus, 0, maxSubBatch)
		}
		return b
	}
}

// putBuf returns a drained buffer to the shard's free list.
//
//fuzzyho:hotpath
func (s *shard) putBuf(b *subBatch) {
	b.reports = b.reports[:0]
	select {
	case s.free <- b:
	default: // free list full: let the GC take the surplus
	}
}

// ingest is the state one SubmitBatch call stages with: the per-shard
// scatter table and, for a stateless schema, a scorer of its own and the
// frame it gathers into, so each filled sub-batch is scored on the
// submitting goroutine before it is queued.  A scorer is not safe for
// concurrent use, so no two SubmitBatch calls share an ingest state: they
// cycle through the engine's bounded free list.
type ingest struct {
	table  []*subBatch
	scorer handover.BatchScorer // nil for a stateful schema
	frame  *handover.FeatureFrame
	// stageSkip counts scored sub-batches toward the next sampled
	// serve_score_ns observation (see stageSampleEvery).
	stageSkip int
}

// getIngest takes an ingest state from the free list, building one on a
// miss.  It runs before SubmitBatch takes e.mu: a stateless schema's
// scorer comes from the caller's AlgorithmFactory, which must not run
// under the engine's lock.
func (e *Engine) getIngest() *ingest {
	select {
	case in := <-e.ingests:
		return in
	default:
	}
	in := &ingest{table: make([]*subBatch, len(e.shards))}
	if e.factory != nil {
		in.scorer = handover.AsBatchScorer(e.factory())
		in.frame = handover.NewFeatureFrame(in.scorer.Schema(), maxSubBatch)
	}
	return in
}

// score gathers a filled stateless sub-batch into the ingest frame and
// scores it — the POTLC gate and the FLC, which read only the measurement
// — then copies the scores and ScoreFrame's error into the sub-batch, so
// its shard only routes and completes it.  A stateless gather reads no
// derived state (d = nil).  If ScoreFrame fails, every report of the
// sub-batch commits as an algorithm error.
//
//fuzzyho:hotpath
func (in *ingest) score(b *subBatch, m *engineMetrics, epoch time.Time) {
	n := len(b.reports)
	f := in.frame
	f.Reset(n)
	for i := range b.reports {
		f.Gather(i, &b.reports[i].Meas, nil)
	}
	var start int64
	sampled := false
	if m != nil {
		in.stageSkip++
		if sampled = in.stageSkip >= stageSampleEvery; sampled {
			in.stageSkip = 0
			start = int64(time.Since(epoch))
		}
	}
	b.err = in.scorer.ScoreFrame(f)
	if sampled {
		m.score.Observe(uint64(int64(time.Since(epoch)) - start))
	}
	b.hd, b.status = b.hd[:n], b.status[:n]
	copy(b.hd, f.HD)
	copy(b.status, f.Status)
}

// Engine is the sharded streaming decision engine.  Construct with New,
// then Start, SubmitBatch from any number of goroutines, and Stop (which
// drains the queues) when done.  An Engine cannot be restarted.
type Engine struct {
	shards []*shard
	// ingests recycles SubmitBatch's ingest states on a bounded free list
	// (same GC-immunity rationale as the shards' sub-batch free lists;
	// see getBuf).  Its bound, 2×shards+8, keeps a state for each of a
	// few concurrent submitters per shard; a state returned to a full
	// list is dropped, and rebuilding one costs a factory call.  factory
	// builds an ingest state's scorer: the configured AlgorithmFactory for
	// a stateless schema, nil for a stateful one, whose sub-batches are
	// scored on the shard.
	ingests chan *ingest
	factory func() handover.Algorithm
	// metrics/traces are the optional telemetry surfaces (Config.Metrics
	// / Config.TraceEvery); epoch is the monotonic base the queue-wait
	// stamps are taken against.
	metrics *engineMetrics
	traces  *traceRing
	epoch   time.Time
	// schemaHash identifies the scoring algorithm's feature schema (see
	// SchemaHash).
	schemaHash uint64

	// mu serializes lifecycle transitions against submissions: SubmitBatch
	// holds the read side across the queue send so Stop can only close
	// the queues once no send is in flight.
	mu    sync.RWMutex
	state int
	wg    sync.WaitGroup
}

// New validates the configuration and builds a stopped engine.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("serve: shard count %d must be non-negative (0 selects GOMAXPROCS)", cfg.Shards)
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: queue depth %d must be non-negative (0 selects the default %d)", cfg.QueueDepth, DefaultQueueDepth)
	}
	if cfg.PingPongWindowKm < 0 {
		return nil, fmt.Errorf("serve: ping-pong window %g km must be non-negative", cfg.PingPongWindowKm)
	}
	if cfg.TraceEvery < 0 {
		return nil, fmt.Errorf("serve: trace sampling interval %d must be non-negative (0 disables tracing)", cfg.TraceEvery)
	}
	if cfg.TraceBuffer < 0 {
		return nil, fmt.Errorf("serve: trace buffer %d must be non-negative (0 selects the default %d)", cfg.TraceBuffer, DefaultTraceBuffer)
	}
	nshards := cfg.Shards
	if nshards == 0 {
		nshards = runtime.GOMAXPROCS(0)
	}
	depth := cfg.QueueDepth
	if depth == 0 {
		depth = DefaultQueueDepth
	}
	window := cfg.PingPongWindowKm
	if window == 0 {
		window = DefaultPingPongWindowKm
	}
	factory := cfg.AlgorithmFactory
	if factory == nil {
		var err error
		if factory, err = handover.AlgorithmFactoryFor("fuzzy", cfg.Compiled); err != nil {
			return nil, fmt.Errorf("serve: compiled control surface: %w", err)
		}
	} else if cfg.Compiled {
		return nil, fmt.Errorf("serve: Compiled applies to the default algorithm only; compile inside the custom AlgorithmFactory instead")
	}
	e := &Engine{
		shards:  make([]*shard, nshards),
		ingests: make(chan *ingest, 2*nshards+8),
		epoch:   time.Now(),
	}
	if cfg.Metrics != nil {
		e.metrics = newEngineMetrics(cfg.Metrics, cfg.MetricsLabels)
		e.registerCollector(cfg.Metrics, cfg.MetricsLabels)
	}
	if cfg.TraceEvery > 0 {
		bufSize := cfg.TraceBuffer
		if bufSize == 0 {
			bufSize = DefaultTraceBuffer
		}
		e.traces = newTraceRing(bufSize)
	}
	for i := range e.shards {
		s := &shard{
			id:         i,
			in:         make(chan shardMsg, depth),
			free:       make(chan *subBatch, depth+16),
			store:      newTerminalStore(),
			window:     window,
			onDecision: cfg.OnDecision,
			metrics:    e.metrics,
			epoch:      e.epoch,
			traceEvery: cfg.TraceEvery,
			traces:     e.traces,
		}
		s.scorer = handover.AsBatchScorer(factory())
		s.stateful = s.scorer.Schema().Stateful()
		s.cols = newBatchCols(s.scorer.Schema())
		e.shards[i] = s
	}
	// The engine's schema hash is what cluster peers compare in the hello
	// exchange.
	e.schemaHash = e.shards[0].scorer.Schema().Hash()
	if !e.shards[0].stateful {
		e.factory = factory
	}
	return e, nil
}

// SchemaHash identifies the feature schema this engine's decisions
// consume (handover.FeatureSchema.Hash of the scoring algorithm's
// schema; the paper schema's hash for schema-less algorithms).  Cluster
// peers exchange it in the hello control line and refuse mismatched
// nodes, so a mixed-schema cluster fails fast instead of mis-scoring.
func (e *Engine) SchemaHash() uint64 { return e.schemaHash }

// NumShards returns the engine's shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// Start launches the shard goroutines.
func (e *Engine) Start() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.state != stateIdle {
		return ErrNotRunning
	}
	e.state = stateRunning
	for _, s := range e.shards {
		e.wg.Add(1)
		go func(s *shard) {
			defer e.wg.Done()
			s.run()
		}(s)
	}
	return nil
}

// Stop drains the queues — every report accepted before Stop is decided —
// and joins the shard goroutines.  Submissions concurrent with Stop either
// complete before the queues close or fail with ErrNotRunning.
func (e *Engine) Stop() error {
	e.mu.Lock()
	if e.state != stateRunning {
		e.mu.Unlock()
		return ErrNotRunning
	}
	e.state = stateStopped
	for _, s := range e.shards {
		close(s.in)
	}
	e.mu.Unlock()
	e.wg.Wait()
	return nil
}

// mix64 is the SplitMix64 finalizer: a cheap, well-distributed hash that
// decouples shard assignment from dense terminal-ID patterns.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// HashTerminal exposes the engine's terminal hash (the SplitMix64
// finalizer) so higher routing layers — the cluster's consistent-hash
// ring — partition terminals from the same hash family as the shard
// store.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func HashTerminal(id TerminalID) uint64 { return mix64(uint64(id)) }

// ShardOf returns the index of the shard owning the terminal.
func (e *Engine) ShardOf(id TerminalID) int {
	return int(mix64(uint64(id)) % uint64(len(e.shards)))
}

// send scores a filled stateless sub-batch, accounts it and enqueues it,
// blocking while the shard's queue is full.  The channel send orders the
// score writes before the shard reads them.
func (e *Engine) send(in *ingest, s *shard, b *subBatch) {
	if in.scorer != nil {
		in.score(b, e.metrics, e.epoch)
	}
	s.submitted.Add(uint64(len(b.reports)))
	msg := shardMsg{batch: b}
	if s.metrics != nil {
		msg.enq = int64(time.Since(s.epoch))
	}
	s.in <- msg
}

// SubmitBatch enqueues a batch of reports, blocking while an owning
// shard's queue is full (backpressure).  Reports are scattered into
// per-shard sub-batches of up to maxSubBatch — one channel operation
// amortized over up to 64 decisions — preserving each terminal's in-batch
// order; for a stateless schema each filled sub-batch is scored before it
// is queued.  The steady-state path performs no heap allocations; an
// ingest free-list miss builds one ingest state, which for a stateless
// schema calls the AlgorithmFactory.  It fails with ErrNotRunning before
// Start or after Stop.
func (e *Engine) SubmitBatch(rs []Report) error {
	in := e.getIngest()
	err := e.submit(in, rs)
	select {
	case e.ingests <- in:
	default: // free list full: let the GC take the surplus
	}
	return err
}

// submit is SubmitBatch under the engine's read lock.
func (e *Engine) submit(in *ingest, rs []Report) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.state != stateRunning {
		return ErrNotRunning
	}
	table := in.table
	for i := range rs {
		r := &rs[i] // by reference: a Report is ~112 bytes, copy it once (into the sub-batch)
		idx := e.ShardOf(r.Terminal)
		b := table[idx]
		if b == nil {
			b = e.shards[idx].getBuf()
			table[idx] = b
		}
		b.reports = append(b.reports, *r)
		if len(b.reports) == maxSubBatch {
			table[idx] = nil
			e.send(in, e.shards[idx], b)
		}
	}
	for idx, b := range table {
		if b != nil {
			table[idx] = nil
			e.send(in, e.shards[idx], b)
		}
	}
	return nil
}

// Flush blocks until every report submitted before the call has been
// decided.  It does not prevent concurrent submitters from adding more.
func (e *Engine) Flush() {
	for _, s := range e.shards {
		target := s.submitted.Load()
		for i := 0; s.processed.Load() < target; i++ {
			if i < 256 {
				runtime.Gosched()
			} else {
				time.Sleep(50 * time.Microsecond)
			}
		}
	}
}

// ShardStats is one shard's counter snapshot.
type ShardStats struct {
	// Shard is the shard index (-1 in aggregated totals).
	Shard int
	// Terminals is the number of distinct terminals seen.
	Terminals uint64
	// Decisions counts processed reports; Handovers the executed
	// handovers among them; PingPongs the flagged returns; Errors the
	// reports whose algorithm evaluation failed.
	Decisions uint64
	Handovers uint64
	PingPongs uint64
	Errors    uint64
	// QueueDepth is the instantaneous ingest-queue length in queued
	// messages (sub-batches), not reports.
	QueueDepth int
}

// Stats is a point-in-time snapshot of every shard's counters.
type Stats struct {
	Shards []ShardStats
}

// Stats snapshots the per-shard counters.  Counters are read atomically
// per field; a snapshot taken while shards are busy is consistent per
// counter, not across counters.
func (e *Engine) Stats() Stats {
	st := Stats{Shards: make([]ShardStats, len(e.shards))}
	for i, s := range e.shards {
		st.Shards[i] = ShardStats{
			Shard:      i,
			Terminals:  s.nTerminals.Load(),
			Decisions:  s.processed.Load(),
			Handovers:  s.handovers.Load(),
			PingPongs:  s.pingpongs.Load(),
			Errors:     s.errors.Load(),
			QueueDepth: len(s.in),
		}
	}
	return st
}

// Totals aggregates the per-shard counters (Shard is -1).
func (st Stats) Totals() ShardStats {
	t := ShardStats{Shard: -1}
	for _, s := range st.Shards {
		t.Terminals += s.Terminals
		t.Decisions += s.Decisions
		t.Handovers += s.Handovers
		t.PingPongs += s.PingPongs
		t.Errors += s.Errors
		t.QueueDepth += s.QueueDepth
	}
	return t
}

// String implements fmt.Stringer.
func (s ShardStats) String() string {
	return fmt.Sprintf("terminals=%d decisions=%d handovers=%d pingpong=%d errors=%d queue=%d",
		s.Terminals, s.Decisions, s.Handovers, s.PingPongs, s.Errors, s.QueueDepth)
}
