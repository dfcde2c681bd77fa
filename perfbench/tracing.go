package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cell"
	"repro/internal/handover"
)

// epoch is the run's monotonic time base; span stamps are ns since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary.  Spans of one request
// share its terminal and sequence number; Parent indexes the span that
// caused this one (-1 for a root).
type span struct {
	Layer  string `json:"layer"`
	Parent int32  `json:"parent"`
	Term   uint64 `json:"terminal"`
	Seq    uint64 `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory, bounded, until the run writes them out.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func newSpanLog(limit int) *spanLog { return &spanLog{spans: make([]span, 0, limit), limit: limit} }

// add records a span and returns its index (-1 once the log is full).
func (l *spanLog) add(s span) int32 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= l.limit {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, s)
	return int32(len(l.spans) - 1)
}

// write stores the spans as JSON lines.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	return f.Close()
}

// selfTimes sums each layer's self time over the log: a span's duration
// minus the part of it its child spans cover.
func (l *spanLog) selfTimes() map[string]float64 {
	children := make(map[int32][]int32)
	for i, s := range l.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := map[string]float64{}
	for i, s := range l.spans {
		var ivs [][2]int64
		for _, c := range children[int32(i)] {
			cs := l.spans[c]
			ivs = append(ivs, [2]int64{max(cs.Start, s.Start), min(cs.End, s.End)})
		}
		out[s.Layer] += float64(s.End-s.Start) - float64(covered(ivs))
	}
	return out
}

// covered returns the length of the union of the intervals.
func covered(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, end int64
	end = -1 << 62
	for _, iv := range ivs {
		if iv[1] <= iv[0] {
			continue
		}
		if iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// probe wraps a decision algorithm to time the calls a serve shard makes
// into it: ScoreFrame per sub-batch frame, DecideScored per row (every
// decideSample-th call is clocked), and the per-report Decide path.  A
// probe is driven by its shard's goroutine only; its counters are read
// after the engine stops.
type probe struct {
	inner handover.BatchScorer
	// node is the cluster member the probe serves (creation order).
	node int

	frames, rows, scored   uint64
	scoreNs                int64
	decides, decideClocked uint64
	decideNs               int64
	perReport              uint64

	// frameStart/frameEnd bracket the last ScoreFrame call; the decision
	// hook on the same goroutine reads them.
	frameStart, frameEnd int64

	// cols captures gathered frame columns (before the scorer clamps them
	// in place) and inputs the exact FLC saw on the per-report path, for
	// timing the kernels after the run; capRows bounds them.
	cols    [][]float64
	capRows int
}

// decideSample is the DecideScored clock sampling interval: two clock
// reads per row would cost a visible share of a 300 ns decision.
const decideSample = 8

// probeSet collects the probes a traced run creates.
type probeSet struct {
	mu      sync.Mutex
	probes  []*probe
	capRows int
}

// factory wraps build so every algorithm instance it returns is a probe.
func (ps *probeSet) factory(build func() handover.BatchScorer) func() handover.Algorithm {
	return func() handover.Algorithm {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		p := &probe{inner: build(), node: len(ps.probes), capRows: ps.capRows}
		ps.probes = append(ps.probes, p)
		return p
	}
}

func (ps *probeSet) all() []*probe {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return append([]*probe(nil), ps.probes...)
}

func (p *probe) Name() string { return p.inner.Name() }
func (p *probe) Reset()       { p.inner.Reset() }

func (p *probe) Schema() *handover.FeatureSchema { return p.inner.Schema() }

func (p *probe) capture(cols [][]float64) {
	if p.cols == nil {
		p.cols = make([][]float64, len(cols))
	}
	if len(p.cols[0]) >= p.capRows {
		return
	}
	for k := range cols {
		p.cols[k] = append(p.cols[k], cols[k]...)
	}
}

func (p *probe) Decide(m cell.Measurement, prevServingDB float64, havePrev bool) (handover.Decision, error) {
	p.perReport++
	p.capture([][]float64{{m.CSSPdB}, {m.NeighborDB}, {m.DMBNorm}})
	t0 := now()
	d, err := p.inner.Decide(m, prevServingDB, havePrev)
	p.frameStart, p.frameEnd = t0, now()
	return d, err
}

func (p *probe) ScoreFrame(f *handover.FeatureFrame) error {
	p.capture(f.Cols())
	t0 := now()
	err := p.inner.ScoreFrame(f)
	t1 := now()
	p.frameStart, p.frameEnd = t0, t1
	p.scoreNs += t1 - t0
	p.frames++
	p.rows += uint64(f.Len())
	for _, st := range f.Status {
		if st != handover.ScoreGated {
			p.scored++
		}
	}
	return err
}

func (p *probe) DecideScored(m *cell.Measurement, prevServingDB float64, havePrev bool, hd float64, st handover.ScoreStatus) (handover.Decision, error) {
	p.decides++
	if p.decides%decideSample != 0 {
		return p.inner.DecideScored(m, prevServingDB, havePrev, hd, st)
	}
	t0 := now()
	d, err := p.inner.DecideScored(m, prevServingDB, havePrev, hd, st)
	p.decideNs += now() - t0
	p.decideClocked++
	return d, err
}

// probeTotals is the sum of probes' counters.
type probeTotals struct {
	frames, rows, scored, decides, perReport float64
	scoreNs, decideNs                        float64
	cols                                     [][]float64
}

// totalsOf sums the counters of every probe in the sets.
func totalsOf(sets ...*probeSet) probeTotals {
	var t probeTotals
	var probes []*probe
	for _, ps := range sets {
		probes = append(probes, ps.all()...)
	}
	for _, p := range probes {
		t.frames += float64(p.frames)
		t.rows += float64(p.rows)
		t.scored += float64(p.scored)
		t.decides += float64(p.decides)
		t.perReport += float64(p.perReport)
		t.scoreNs += float64(p.scoreNs)
		if p.decideClocked > 0 {
			t.decideNs += float64(p.decideNs) / float64(p.decideClocked) * float64(p.decides)
		}
		if p.cols != nil && (t.cols == nil || len(p.cols[0]) > len(t.cols[0])) {
			t.cols = p.cols
		}
	}
	return t
}

// handoverMetrics fills the handover-layer metrics from probe totals;
// decisions is the run's decision count.
func (t probeTotals) handoverMetrics(layers map[string]float64, decisions float64) {
	if t.rows > 0 {
		layers["handover.score_ns_per_row"] = t.scoreNs / t.rows
		layers["handover.scored_share"] = t.scored / t.rows
	}
	if t.frames > 0 {
		layers["handover.rows_per_frame"] = t.rows / t.frames
	}
	if t.decides > 0 {
		layers["handover.decide_ns_per_row"] = t.decideNs / t.decides
	}
	if decisions > 0 {
		layers["handover.per_report_share"] = t.perReport / decisions
	}
}

// capture records every chunk a connection reads or writes, with the time
// the call returned, for matching lines to requests after the run.
type capture struct {
	mu     sync.Mutex
	on     atomic.Bool
	chunks []chunk
	bytes  atomic.Uint64
	calls  atomic.Uint64
}

type chunk struct {
	at   int64
	data []byte
}

func (c *capture) record(b []byte) {
	if !c.on.Load() || len(b) == 0 {
		return
	}
	c.bytes.Add(uint64(len(b)))
	c.calls.Add(1)
	at := now()
	cp := append([]byte(nil), b...)
	c.mu.Lock()
	c.chunks = append(c.chunks, chunk{at: at, data: cp})
	c.mu.Unlock()
}

// lines splits the captured stream into lines, each stamped with the time
// of the chunk that completed it.
func (c *capture) lines() []stampedLine {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []stampedLine
	var ls lineSplitter
	for _, ch := range c.chunks {
		ls.feed(ch.data, func(line []byte) { out = append(out, stampedLine{at: ch.at, line: line}) })
	}
	return out
}

type stampedLine struct {
	at   int64
	line []byte
}

// lineSplitter cuts a byte stream, fed in chunks, into newline-terminated
// lines, carrying a partial line from one chunk to the next.
type lineSplitter struct{ partial []byte }

// feed calls fn with each line data completes.  A line lies in data, or,
// when it began in an earlier chunk, in memory of its own.
func (s *lineSplitter) feed(data []byte, fn func(line []byte)) {
	for len(data) > 0 {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			s.partial = append(s.partial, data...)
			return
		}
		line := data[:i]
		if s.partial != nil {
			line = append(s.partial, line...)
			s.partial = nil
		}
		data = data[i+1:]
		fn(line)
	}
}

// tracedConn captures a connection's reads and writes.
type tracedConn struct {
	net.Conn
	rd, wr *capture
	once   sync.Once
	closed func()
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.rd != nil {
		c.rd.record(b[:n])
	}
	return n, err
}

func (c *tracedConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	if c.wr != nil {
		c.wr.record(b[:n])
	}
	return n, err
}

func (c *tracedConn) Close() error {
	err := c.Conn.Close()
	if c.closed != nil {
		c.once.Do(c.closed)
	}
	return err
}

// CloseWrite keeps half-close working through the wrapper (the node
// client half-closes on shutdown so the daemon drains its tail).
func (c *tracedConn) CloseWrite() error {
	if tc, ok := c.Conn.(*net.TCPConn); ok {
		return tc.CloseWrite()
	}
	return c.Conn.Close()
}

// trackedListener hands out connections whose Close is counted, so
// teardown can wait until every daemon connection handler has finished,
// and optionally captures their traffic.
type trackedListener struct {
	net.Listener
	wg     *sync.WaitGroup
	rd, wr *capture
}

func (l *trackedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.wg.Add(1)
	return &tracedConn{Conn: c, rd: l.rd, wr: l.wr, closed: l.wg.Done}, nil
}

// waterfall attributes request latency to layers.  Each request carries
// its measured spans; a span's contribution is the part of it no
// earlier-starting span of the same request already covers, and whatever
// of the request no span covers is the unexplained residual.  Shares are
// averaged over the requests whose latency lies within ±5 percentile
// points of the median, so they are shares of the median request; only
// those requests' spans go to the span log.
type waterfall struct {
	reqs []wfReq
}

type wfReq struct {
	term, seq  uint64
	start, end int64
	spans      []span
}

func (w *waterfall) add(r wfReq) { w.reqs = append(w.reqs, r) }

func (w *waterfall) shares(layers map[string]float64, log *spanLog) {
	if len(w.reqs) == 0 {
		return
	}
	lat := make([]float64, len(w.reqs))
	for i, r := range w.reqs {
		lat[i] = float64(r.end - r.start)
	}
	sorted := append([]float64(nil), lat...)
	lo, hi := quantile(sorted, 0.45), quantile(sorted, 0.55)
	sum := map[string]float64{}
	var total float64
	for i, r := range w.reqs {
		if lat[i] < lo || lat[i] > hi {
			continue
		}
		root := int32(-1)
		if log != nil {
			root = log.add(span{Layer: "request", Parent: -1, Term: r.term, Seq: r.seq, Start: r.start, End: r.end})
		}
		spans := append([]span(nil), r.spans...)
		sort.Slice(spans, func(a, b int) bool { return spans[a].Start < spans[b].Start })
		total += lat[i]
		end := r.start
		var covered float64
		for _, s := range spans {
			s.Start, s.End = max(s.Start, r.start), min(s.End, r.end)
			if log != nil && root >= 0 {
				s.Parent = root
				log.add(s)
			}
			if s.End <= end {
				continue
			}
			c := float64(s.End - max(s.Start, end))
			sum[s.Layer] += c
			covered += c
			end = s.End
		}
		sum["residual"] += lat[i] - covered
	}
	if total == 0 {
		return
	}
	for layer, v := range sum {
		layers["selftime."+layer] = v / total
	}
}
