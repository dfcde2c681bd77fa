package serve

import (
	"strconv"
	"sync"
	"time"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/obs"
)

// Decision verdict classes: every committed decision falls into exactly
// one, so the serve_verdicts_total counters partition serve_decisions_total.
// Classification is branch-only on the hot path (plus one constant string
// compare to split the PRTLC cancellation from a plain sub-threshold
// verdict); the per-class tallies accumulate in a shard-local array and
// flush to atomics once per sub-batch.
const (
	// verdictGated: the POTLC quality gate kept the call (not scored).
	verdictGated = iota
	// verdictBelow: the FLC scored below the (possibly adaptive) threshold.
	verdictBelow
	// verdictPRTLC: the score crossed the threshold but the PRTLC
	// confirmation found the signal recovering and cancelled.
	verdictPRTLC
	// verdictExecuted: the handover was committed.
	verdictExecuted
	// verdictError: the algorithm evaluation failed.
	verdictError
	numVerdicts
)

// verdictNames label the serve_verdicts_total counter.
var verdictNames = [numVerdicts]string{
	verdictGated:    "quality-gate",
	verdictBelow:    "below-threshold",
	verdictPRTLC:    "prtlc-cancelled",
	verdictExecuted: "execute-handover",
	verdictError:    "error",
}

// engineMetrics holds the engine's per-stage histograms, registered in
// the configured registry.  Stage durations are observed once per queued
// sub-batch (≤ maxSubBatch reports), so with metrics enabled the hot
// path pays a handful of clock reads per 64 decisions; the counters on
// /metrics are not duplicated here — they are exported by a collector
// reading the same shard atomics Stats() reads.
type engineMetrics struct {
	// queueWait is the submit→dequeue wait of one sub-batch.
	queueWait *obs.Histogram
	// service is the dequeue→done time of one sub-batch on its shard:
	// routing, completion and outcome delivery (OnDecision callbacks),
	// plus — for a stateful schema only — the gather and the score.  A
	// stateless sub-batch arrives scored (see ingest.score).
	service *obs.Histogram
	// score is the columnar ScoreFrame kernel time of one frame: a
	// stateless sub-batch's on the submitting goroutine, a stateful run's
	// on the shard.
	score *obs.Histogram
	// snapshot/restore are whole-call durations of the snapshot /
	// migration control plane.
	snapshot *obs.Histogram
	restore  *obs.Histogram
}

func newEngineMetrics(r *obs.Registry, labels []obs.Label) *engineMetrics {
	return &engineMetrics{
		queueWait: r.Histogram("serve_queue_wait_ns", labels...),
		service:   r.Histogram("serve_batch_service_ns", labels...),
		score:     r.Histogram("serve_score_ns", labels...),
		snapshot:  r.Histogram("serve_snapshot_ns", labels...),
		restore:   r.Histogram("serve_restore_ns", labels...),
	}
}

// registerCollector exports the engine's live counters into the registry.
// The collector reads the very atomics Stats() reads, so a quiesced
// engine's /metrics and Engine.Stats() can never disagree.
func (e *Engine) registerCollector(r *obs.Registry, labels []obs.Label) {
	base := labels[:len(labels):len(labels)] // appends below must not alias
	r.Collector(func(emit func(obs.Point)) {
		st := e.Stats()
		tot := st.Totals()
		counter := func(name string, v uint64) {
			emit(obs.Point{Name: name, Kind: obs.KindCounter, Labels: base, Value: float64(v)})
		}
		counter("serve_decisions_total", tot.Decisions)
		counter("serve_handovers_total", tot.Handovers)
		counter("serve_pingpongs_total", tot.PingPongs)
		counter("serve_errors_total", tot.Errors)
		emit(obs.Point{Name: "serve_terminals", Kind: obs.KindGauge, Labels: base, Value: float64(tot.Terminals)})
		emit(obs.Point{Name: "serve_queue_depth", Kind: obs.KindGauge, Labels: base, Value: float64(tot.QueueDepth)})
		for _, sh := range st.Shards {
			emit(obs.Point{
				Name: "serve_shard_queue_depth", Kind: obs.KindGauge,
				Labels: append(base, obs.L("shard", strconv.Itoa(sh.Shard))),
				Value:  float64(sh.QueueDepth),
			})
		}
		for v, n := range e.verdictTotals() {
			emit(obs.Point{
				Name: "serve_verdicts_total", Kind: obs.KindCounter,
				Labels: append(base, obs.L("verdict", verdictNames[v])),
				Value:  float64(n),
			})
		}
	})
}

// ServiceHistogram returns the engine's sub-batch service-time histogram
// (a shard's routing, completion and outcome delivery, plus the gather
// and score of a stateful schema), or nil when the engine was built
// without a metrics registry.  The -stats loops print its windowed
// quantiles.
func (e *Engine) ServiceHistogram() *obs.Histogram {
	if e.metrics == nil {
		return nil
	}
	return e.metrics.service
}

// verdictTotals sums the per-shard verdict counters.
func (e *Engine) verdictTotals() [numVerdicts]uint64 {
	var tot [numVerdicts]uint64
	for _, s := range e.shards {
		for v := range tot {
			tot[v] += s.verdicts[v].Load()
		}
	}
	return tot
}

// Verdicts returns the engine's cumulative decision-verdict counters,
// keyed by verdict name.  The five classes partition the decision count:
// quality-gate, below-threshold, prtlc-cancelled, execute-handover, error.
// Verdicts are tallied only while metrics are enabled (Config.Metrics) —
// an uninstrumented engine keeps its hot path branch-for-branch identical
// to the pre-telemetry layer and reports all-zero tallies here.
func (e *Engine) Verdicts() map[string]uint64 {
	tot := e.verdictTotals()
	out := make(map[string]uint64, numVerdicts)
	for v, n := range tot {
		out[verdictNames[v]] = n
	}
	return out
}

// classifyVerdict tallies one committed decision in the shard-local
// verdict array (flushed to atomics per sub-batch by flushVerdicts).
//
//fuzzyho:hotpath
func (s *shard) classifyVerdict(dec *handover.Decision, err error, executed bool) {
	switch {
	case err != nil:
		s.verdictLocal[verdictError]++
	case executed:
		s.verdictLocal[verdictExecuted]++
	case dec.Scored:
		if dec.Reason == handover.ReasonPRTLC {
			s.verdictLocal[verdictPRTLC]++
		} else {
			s.verdictLocal[verdictBelow]++
		}
	default:
		s.verdictLocal[verdictGated]++
	}
}

// flushVerdicts publishes the shard-local verdict tallies, one atomic add
// per non-zero class per sub-batch.
//
//fuzzyho:hotpath
func (s *shard) flushVerdicts() {
	for v := range s.verdictLocal {
		if n := s.verdictLocal[v]; n != 0 {
			s.verdicts[v].Add(n)
			s.verdictLocal[v] = 0
		}
	}
}

// stageSampleEvery is the sub-batch sampling period of the per-stage
// latency histograms (queue wait, batch service, batch score): every
// stageSampleEvery-th sub-batch per shard — per ingest state, for a score
// taken at ingest — is timed and observed.  The histograms remain
// unbiased distribution estimates — sub-batches are sampled by count,
// independent of their content — while the steady
// state pays the clock reads and the engine-wide histogram atomics on
// 1/stageSampleEvery of sub-batches, which is what keeps always-on
// metrics within the serve hot path's throughput budget.  Decision,
// verdict and handover counters are exact, never sampled.
const stageSampleEvery = 8

// DefaultTraceBuffer is the decision-trace ring capacity when
// Config.TraceBuffer is 0.
const DefaultTraceBuffer = 256

// DecisionTrace is one sampled decision with its full explanation: the
// measurement, the verdict, and — when the algorithm implements
// handover.Explainer, as the paper's controllers do — the rendered FLC
// inference trace.  Served as JSON at /tracez.
type DecisionTrace struct {
	Terminal  TerminalID       `json:"terminal"`
	Seq       uint64           `json:"seq"`
	Shard     int              `json:"shard"`
	When      time.Time        `json:"when"`
	Meas      cell.Measurement `json:"meas"`
	Handover  bool             `json:"handover"`
	Executed  bool             `json:"executed"`
	PingPong  bool             `json:"ping_pong"`
	Scored    bool             `json:"scored"`
	Score     float64          `json:"score"`
	Reason    string           `json:"reason"`
	Err       string           `json:"err,omitempty"`
	FLC       string           `json:"flc,omitempty"`
	ExplainNs int64            `json:"explain_ns"`
}

// traceRing is the bounded, engine-wide decision-trace buffer.  Sampled
// captures are rare (every TraceEvery-th decision per shard), so one
// mutex is plenty.
type traceRing struct {
	mu    sync.Mutex
	buf   []DecisionTrace
	next  int
	total uint64
}

func newTraceRing(n int) *traceRing {
	return &traceRing{buf: make([]DecisionTrace, 0, n)}
}

func (r *traceRing) add(t DecisionTrace) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, t)
	} else {
		r.buf[r.next] = t
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// snapshot returns the buffered traces, oldest first.
func (r *traceRing) snapshot() []DecisionTrace {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]DecisionTrace, 0, len(r.buf))
	if len(r.buf) < cap(r.buf) {
		return append(out, r.buf...)
	}
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// Traces returns the sampled decision traces, oldest first — nil when
// tracing is disabled (Config.TraceEvery 0).
func (e *Engine) Traces() []DecisionTrace {
	if e.traces == nil {
		return nil
	}
	return e.traces.snapshot()
}

// TracesSampled returns how many decisions have been sampled in total
// (including traces the bounded ring has since evicted).
func (e *Engine) TracesSampled() uint64 {
	if e.traces == nil {
		return 0
	}
	e.traces.mu.Lock()
	defer e.traces.mu.Unlock()
	return e.traces.total
}

// captureTrace records one sampled decision, re-running the explainable
// part of the pipeline for the rationale.  This path allocates by design
// — it runs once every TraceEvery decisions, never in between.
func (s *shard) captureTrace(r *Report, dec *handover.Decision, err error, executed, pingPong bool, seq uint64) {
	start := time.Now()
	tr := DecisionTrace{
		Terminal: r.Terminal,
		Seq:      seq,
		Shard:    s.id,
		When:     start,
		Meas:     r.Meas,
		Handover: dec.Handover,
		Executed: executed,
		PingPong: pingPong,
		Scored:   dec.Scored,
		Score:    dec.Score,
		Reason:   dec.Reason,
	}
	if err != nil {
		tr.Err = err.Error()
	}
	if ex, ok := s.scorer.(handover.Explainer); ok {
		if text, ok := ex.Explain(r.Meas); ok {
			tr.FLC = text
		}
	}
	tr.ExplainNs = int64(time.Since(start))
	s.traces.add(tr)
}
