package serve

import (
	"errors"
	"sync/atomic"
	"time"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// pingPongHistory bounds the per-terminal handover ring the ping-pong scan
// walks.  The simulator's detector keeps the full history; the serving
// layer keeps the most recent entries inline (no allocation per handover)
// — the accounting only diverges if a terminal executes more than this
// many handovers inside one window, which the window exists to prevent.
const pingPongHistory = 8

// ErrCellOutOfRange is the outcome error of a report whose serving or
// neighbor label lies outside the int32 range the engine stores cells in.
// Such a report writes no terminal state except its sequence number, so
// the terminal's next in-range report decides as if it never came.  The
// wire decoders and TerminalSnapshot.Validate reject the same labels
// before they reach an engine.
var ErrCellOutOfRange = errors.New("serve: cell label outside the int32 range")

// cell32 is a stored cell label: a hexgrid.Cell narrowed to 32-bit axial
// coordinates.  Every conversion and range check between the two lives
// in the functions below; a label is narrowed only after cellFits
// admitted it, so narrowing never truncates.
type cell32 struct{ i, j int32 }

// cellFits reports whether c survives narrowing to a cell32.
//
//fuzzyho:hotpath
func cellFits(c hexgrid.Cell) bool {
	return int(int32(c.I)) == c.I && int(int32(c.J)) == c.J
}

// narrowCell converts a label cellFits admitted.
//
//fuzzyho:hotpath
func narrowCell(c hexgrid.Cell) cell32 { return cell32{int32(c.I), int32(c.J)} }

// cell widens a stored label back to the grid's type.
//
//fuzzyho:hotpath
func (c cell32) cell() hexgrid.Cell { return hexgrid.Cell{I: int(c.i), J: int(c.j)} }

// measFits reports whether both of a measurement's cells can be stored.
//
//fuzzyho:hotpath
func measFits(m *cell.Measurement) bool { return cellFits(m.Serving) && cellFits(m.Neighbor) }

// hoEvent is one executed handover in a terminal's ring (24 B).
type hoEvent struct {
	from, to cell32
	walkedKm float64
}

// terminal is the engine-owned state of one terminal: everything the
// single-threaded sim path keeps in its Measurer/algorithm/detector,
// reduced to what streamed reports cannot carry themselves.  It holds no
// pointer, so the store's slabs are noscan: the garbage collector never
// walks terminal state.  Field order packs it into 256 B (pinned by
// TestTerminalLayout): every field a report reads or writes fills the
// first 64 B, the handover ring the other 192 B, and a 512-terminal slab
// is exactly 16 pages.
type terminal struct {
	// seq counts reports served for this terminal.
	seq uint64
	// prevDB/havePrev mirror Measurer.PrevServingDB: the serving power
	// of the previous epoch, invalidated by an executed handover.
	prevDB float64
	// derived is the per-terminal state stateful schema features extract
	// from (the SSN trend derivation); reset exactly where the algorithm
	// is: executed handovers and external reattachments.
	derived handover.DerivedState
	// serving/haveServing track the attachment the engine believes the
	// terminal holds (updated on executed handovers, corrected from
	// reports).
	serving cell32
	// total counts events ever recorded (restore bounds it to 2^31−1);
	// next indexes the ring slot the next event overwrites.
	total uint32
	// handovers/pingpongs are per-terminal tallies (restore bounds them
	// to 2^32−1).
	handovers   uint32
	pingpongs   uint32
	next        uint8
	havePrev    bool
	haveServing bool
	// events is the recent-handover ring.
	events [pingPongHistory]hoEvent
}

// observeHandover records an executed handover and reports whether it
// closes a ping-pong pair, using the simulator detector's rule: a prior
// B→A hop within the walked-distance window makes this A→B hop a return.
// Both cells must fit (cellFits).
//
//fuzzyho:hotpath
func (t *terminal) observeHandover(from, to hexgrid.Cell, walkedKm, windowKm float64) bool {
	src, dst := narrowCell(from), narrowCell(to)
	pingPong := false
	n := min(t.total, pingPongHistory)
	for i := uint32(1); i <= n; i++ {
		prev := t.events[(uint32(t.next)-i+pingPongHistory)%pingPongHistory]
		if walkedKm-prev.walkedKm > windowKm {
			break
		}
		if prev.from == dst && prev.to == src {
			pingPong = true
			break
		}
	}
	t.events[t.next] = hoEvent{from: src, to: dst, walkedKm: walkedKm}
	t.next = (t.next + 1) % pingPongHistory
	t.total++
	return pingPong
}

// pad keeps producer-written and consumer-written counters on separate
// cache lines so submitters and the shard goroutine do not false-share.
type pad [64]byte

// routeBuckets sizes the per-sub-batch dedup table of the batch router:
// a power of two comfortably above maxSubBatch, so distinct terminals
// rarely share a bucket.  The table is 128+64 bytes of int8 — it lives in
// L1, which is the point: repeated terminals in a sub-batch resolve from
// it instead of re-probing a store index that can span megabytes.
const routeBuckets = 128

// The grouping table indexes reports with int8 (-1 terminates chains), so
// sub-batches must fit in its positive range; this fails to compile if
// maxSubBatch ever outgrows it.
const _ uint = 127 - maxSubBatch

// batchCols is a shard's staging for the frame pipeline: the resolved
// terminal slots of a drained sub-batch and, for a stateful schema, the
// scorer's FeatureFrame (struct-of-arrays columns in the scorer's schema)
// its runs are gathered into and scored from in one BatchScorer call.
// Sized once to maxSubBatch; reused for every sub-batch.
type batchCols struct {
	// frame is nil for a stateless schema: its sub-batches arrive scored
	// (see ingest.score).
	frame *handover.FeatureFrame
	// slots holds the sub-batch's resolved terminal state, one entry per
	// report, and repeat flags the reports whose terminal already
	// appeared earlier in the sub-batch; head/next are the grouping table
	// of routeBatch (bucket heads and chain links over report indexes,
	// -1 terminated).
	slots  []*terminal
	repeat [maxSubBatch]bool
	head   [routeBuckets]int8
	next   [maxSubBatch]int8
	// discard is the derived state a stateful gather advances for a
	// report the engine rejects (ErrCellOutOfRange): its row is never
	// decided, and its terminal's own state must not move.
	discard handover.DerivedState
}

func newBatchCols(schema *handover.FeatureSchema) *batchCols {
	c := &batchCols{slots: make([]*terminal, maxSubBatch)}
	if schema.Stateful() {
		c.frame = handover.NewFeatureFrame(schema, maxSubBatch)
	}
	return c
}

// shardMsg is one queued unit of shard work: a pooled report sub-batch
// (the overwhelmingly common case) or a control message (snapshot
// extract/restore).  Control rides the same ordered queue as reports so
// "everything submitted before the control" is drained by construction —
// the queue itself is the migration protocol's barrier.
type shardMsg struct {
	batch *subBatch
	ctl   *shardCtl
	// enq is the enqueue timestamp (nanoseconds since the engine epoch),
	// stamped only when metrics are enabled; the shard observes the
	// dequeue delta as queue wait.
	enq int64
}

// shard owns one partition of the terminal population.  All fields below
// the queue are touched only by the shard goroutine, except the atomic
// counters, which anyone may read.  The queue carries pooled sub-batches
// (≤ maxSubBatch reports each) so a busy ingest path pays one channel
// operation per sub-batch, not per report.
type shard struct {
	id int
	in chan shardMsg
	// free recycles this shard's drained sub-batch buffers back to
	// producers (see getBuf/putBuf): buffers cycle producer → queue →
	// shard → free list without touching the garbage collector.
	free chan *subBatch

	// store indexes the shard's terminal state: an open-addressing table
	// over dense slabs (see terminalStore) whose pointers stay stable
	// across growth.
	store *terminalStore
	// scorer is the shard's one algorithm instance (handover.AsBatchScorer
	// of the configured algorithm): it decides every report and, for a
	// stateful schema, scores every frame.  stateful mirrors
	// scorer.Schema().Stateful() — the gather advances per-terminal
	// derived state, so the shard gathers and scores, and repeated
	// terminals split the sub-batch into runs (see processBatch).
	scorer   handover.BatchScorer
	stateful bool
	cols     *batchCols
	window   float64

	onDecision func(Outcome)

	// metrics/epoch mirror the engine's telemetry wiring (nil/zero when
	// metrics are off); traceEvery/traces drive decision-trace sampling
	// and traceSkip is the shard-local decision countdown.  stageSkip
	// counts sub-batches toward the next sampled stage-timing observation
	// and stageSample marks the in-flight sub-batch as sampled (see
	// stageSampleEvery).
	metrics     *engineMetrics
	epoch       time.Time
	traceEvery  int
	traceSkip   int
	traces      *traceRing
	stageSkip   int
	stageSample bool
	// verdictLocal tallies decision verdicts within the current
	// sub-batch (shard-goroutine only); flushVerdicts publishes it into
	// the readable verdicts atomics once per sub-batch.
	verdictLocal [numVerdicts]uint64

	// submitted is written by producers; the remaining counters by the
	// shard goroutine.
	submitted  atomic.Uint64
	_          pad
	processed  atomic.Uint64
	handovers  atomic.Uint64
	pingpongs  atomic.Uint64
	errors     atomic.Uint64
	nTerminals atomic.Uint64
	verdicts   [numVerdicts]atomic.Uint64
}

// run drains the ingest queue until it is closed, returning emptied
// sub-batch buffers to the free list for producers to refill.  processed
// is advanced once per sub-batch — after every report in it is decided —
// so the counter costs one atomic per channel message, not per report.
//
//fuzzyho:hotpath
func (s *shard) run() {
	for msg := range s.in {
		if msg.ctl != nil {
			//fuzzyho:allow control path: migration extract/restore messages are rare and allowed to allocate; report sub-batches never take this branch
			s.handleCtl(msg.ctl)
			continue
		}
		var start int64
		if m := s.metrics; m != nil {
			// Stage timings are sampled 1-in-stageSampleEvery sub-batches:
			// the histograms stay faithful distributions while the hot loop
			// pays the clock reads and the contended histogram atomics on a
			// small fraction of sub-batches.
			s.stageSkip++
			s.stageSample = s.stageSkip >= stageSampleEvery
			if s.stageSample {
				s.stageSkip = 0
				start = int64(time.Since(s.epoch))
				m.queueWait.Observe(uint64(start - msg.enq))
			}
		}
		batch := msg.batch
		s.processBatch(batch)
		s.processed.Add(uint64(len(batch.reports)))
		if m := s.metrics; m != nil {
			if s.stageSample {
				m.service.Observe(uint64(int64(time.Since(s.epoch)) - start))
			}
			s.flushVerdicts()
		}
		s.putBuf(batch)
	}
}

// processBatch serves one sub-batch through the frame pipeline — the one
// decision path of every algorithm and mode: routeBatch resolves every
// report's terminal slot, the history-free stages (POTLC gate, FLC score,
// and — for adaptive scorers — the speed-dependent threshold) score the
// reports through one ScoreFrame call per frame — through the compiled
// control surface's EvaluateBatch when the controller is compiled — and
// the stateful remainder completes per report, in order, against each
// resolved slot (DecideScored, commit).  Algorithms without a batch stage
// take the same path through handover.AsBatchScorer, whose DecideScored is
// their Decide.
//
// A stateless schema's batched stages depend only on the measurement, so
// SubmitBatch scored the whole sub-batch before queueing it and the shard
// completes it in one pass from the carried scores.  A stateful schema's
// gather advances per-terminal derived state, which a mid-batch executed
// handover resets, so the shard gathers and scores it in runs that end
// before every report whose terminal already appeared in the sub-batch:
// each terminal appears at most once per run and is gathered after its
// previous report committed — exactly the per-report order.
//
//fuzzyho:hotpath
func (s *shard) processBatch(b *subBatch) {
	batch := b.reports
	s.routeBatch(batch)
	if !s.stateful {
		s.complete(batch, s.cols.slots, b.hd, b.status, b.err)
		return
	}
	lo := 0
	for hi := 1; hi <= len(batch); hi++ {
		if hi == len(batch) || s.cols.repeat[hi] {
			s.decideRun(batch[lo:hi], lo)
			lo = hi
		}
	}
}

// decideRun gathers, scores and completes one run of a stateful
// sub-batch: the reports from index off on, whose slots routeBatch
// resolved.
//
//fuzzyho:hotpath
func (s *shard) decideRun(run []Report, off int) {
	slots := s.cols.slots[off : off+len(run)]
	f := s.cols.frame
	f.Reset(len(run))
	for i := range run {
		r := &run[i]
		// Stateful features read per-terminal derived state: apply the
		// reattachment correction before extraction so the derivation
		// restarts exactly where the per-report order restarts it.
		d := &s.cols.discard
		if measFits(&r.Meas) {
			s.observe(r, slots[i])
			d = &slots[i].derived
		}
		f.Gather(i, &r.Meas, d)
	}
	var scoreStart int64
	sampled := s.metrics != nil && s.stageSample
	if sampled {
		scoreStart = int64(time.Since(s.epoch))
	}
	// Shard-owned frames never fail the schema guard.  Should a scorer
	// fail anyway, every report of the run commits as an algorithm error:
	// the derivation has already advanced, so none is re-decided.
	err := s.scorer.ScoreFrame(f)
	if sampled {
		s.metrics.score.Observe(uint64(int64(time.Since(s.epoch)) - scoreStart))
	}
	s.complete(run, slots, f.HD, f.Status, err)
}

// complete decides and commits scored reports in order: row i of hd and
// st is report i's score, slots[i] its resolved terminal, and err the
// ScoreFrame error, which commits every report as an algorithm error.
//
//fuzzyho:hotpath
func (s *shard) complete(run []Report, slots []*terminal, hd []float64, st []handover.ScoreStatus, err error) {
	for i := range run {
		r := &run[i]
		t := slots[i]
		var dec handover.Decision
		if !measFits(&r.Meas) {
			s.errors.Add(1)
			s.deliver(r, t, &dec, ErrCellOutOfRange, false, false)
			continue
		}
		if !s.stateful {
			s.observe(r, t)
		}
		derr := err
		if err == nil {
			dec, derr = s.scorer.DecideScored(&r.Meas, t.prevDB, t.havePrev, hd[i], st[i])
		}
		s.commit(r, t, &dec, derr)
	}
}

// routeBatch resolves the terminal slot of every report in the sub-batch
// in one pass, so the store index is probed once per distinct terminal
// per sub-batch rather than once per report.  Repeats resolve from two
// L1-resident shortcuts: a run of adjacent reports for one terminal
// reuses the previous slot directly, and non-adjacent repeats (a
// population cycling through the batch) hit a small hash-bucket grouping
// table chained over the sub-batch's first occurrences.  Only the slot
// pointers are resolved here — the reattachment correction and state
// commits stay in decideRun and complete, in report order, so
// per-terminal sequences are untouched.  Each report's repeat flag
// records whether its terminal already appeared in the sub-batch.
//
//fuzzyho:hotpath
func (s *shard) routeBatch(batch []Report) {
	c := s.cols
	for i := range c.head {
		c.head[i] = -1
	}
	for i := range batch {
		id := batch[i].Terminal
		if i > 0 && batch[i-1].Terminal == id {
			c.slots[i] = c.slots[i-1]
			c.repeat[i] = true
			continue
		}
		h := mix64(uint64(id))
		// Bucket on high hash bits: shard selection consumed the low
		// ones, and within one shard those are correlated.
		b := (h >> 32) & (routeBuckets - 1)
		dup := false
		for j := c.head[b]; j >= 0; j = c.next[j] {
			if batch[j].Terminal == id {
				c.slots[i] = c.slots[j]
				dup = true
				break
			}
		}
		c.repeat[i] = dup
		if dup {
			continue
		}
		t, created := s.store.acquire(id, h)
		if created {
			s.nTerminals.Add(1)
		}
		c.slots[i] = t
		c.next[i] = c.head[b]
		c.head[b] = int8(i)
	}
}

// observe applies the external-reattachment correction and records the
// report's serving attachment.
//
//fuzzyho:hotpath
func (s *shard) observe(r *Report, t *terminal) {
	serving := narrowCell(r.Meas.Serving)
	if t.haveServing && serving != t.serving {
		// The radio side reattached the terminal without this engine
		// deciding it (restart, external handover): the previous-epoch
		// power belongs to another cell, so the history restarts, as it
		// does after an engine-decided handover.
		t.havePrev = false
		t.derived.Reset()
	}
	t.serving, t.haveServing = serving, true
}

// commit applies one decision to the terminal's state, updates counters
// and delivers the outcome.  Both of the report's cells fit (measFits).
// An algorithm error clears *dec.
//
//fuzzyho:hotpath
func (s *shard) commit(r *Report, t *terminal, dec *handover.Decision, err error) {
	m := &r.Meas
	executed := false
	pingPong := false
	if err != nil {
		s.errors.Add(1)
		*dec = handover.Decision{}
	} else if dec.Handover {
		executed = true
		t.handovers++
		s.handovers.Add(1)
		pingPong = t.observeHandover(m.Serving, m.Neighbor, m.WalkedKm, s.window)
		if pingPong {
			t.pingpongs++
			s.pingpongs.Add(1)
		}
		// Commit: the terminal now serves from the neighbor, and — as in
		// the simulator's Measurer.Handover — the power history restarts:
		// havePrev stays false until the next no-handover epoch seeds
		// prevDB from its own measurement.
		t.serving = narrowCell(m.Neighbor)
		t.havePrev = false
		t.derived.Reset()
	}
	if !executed {
		// No-handover epochs — including algorithm errors, which are
		// documented to count as one — advance the power history: the
		// measurement itself is valid even when the decision failed.
		t.prevDB = m.ServingDB
		t.havePrev = true
	}
	s.deliver(r, t, dec, err, executed, pingPong)
}

// deliver advances the terminal's sequence number, samples the decision
// into telemetry and hands the outcome to the delivery hook.
//
//fuzzyho:hotpath
func (s *shard) deliver(r *Report, t *terminal, dec *handover.Decision, err error, executed, pingPong bool) {
	if s.metrics != nil {
		s.classifyVerdict(dec, err, executed)
	}
	seq := t.seq
	t.seq++
	if s.traceEvery > 0 {
		s.traceSkip++
		if s.traceSkip >= s.traceEvery {
			s.traceSkip = 0
			//fuzzyho:allow sampled tracing: reached once per traceEvery decisions by construction of the countdown above, and the ring slot is preallocated
			s.captureTrace(r, dec, err, executed, pingPong, seq)
		}
	}
	if s.onDecision != nil {
		//fuzzyho:allow delivery hook: bound once at engine construction (loopback or cluster reply writer), audited at its definition; the Outcome is passed by value
		s.onDecision(Outcome{
			Terminal: r.Terminal,
			Seq:      seq,
			Decision: *dec,
			Executed: executed,
			PingPong: pingPong,
			Shard:    s.id,
			Err:      err,
		})
	}
}
