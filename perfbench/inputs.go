package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/sim"
)

// walkStreams simulates one walk per (family, replica, speed) cell and
// returns each walk's report stream, and how long each sim.Run took in
// ms.  The seed picks the walks: every family's anchor seed is moved to a
// seed-derived sub-stream before the replica × speed grid is expanded.
// This is the harness's input generation; no timed phase or set-up time
// includes it.
func walkStreams(families []sim.Config, replicas int, speeds []float64, seed int64) ([][]serve.Report, []float64, error) {
	var cfgs []sim.Config
	for _, f := range families {
		f.Seed = rng.DeriveSeed(f.Seed, int(seed&0x7fffffff)+1)
		c, _ := sim.SweepGrid("bench", f, replicas, speeds)
		cfgs = append(cfgs, c...)
	}
	streams := make([][]serve.Report, 0, len(cfgs))
	walkMs := make([]float64, 0, len(cfgs))
	for _, c := range cfgs {
		t0 := time.Now()
		res, err := sim.Run(c)
		if err != nil {
			return nil, nil, fmt.Errorf("input walks: %w", err)
		}
		walkMs = append(walkMs, float64(time.Since(t0).Nanoseconds())/1e6)
		if s := serve.ReplayReports(0, res.Measurements()); len(s) > 0 {
			streams = append(streams, s)
		}
	}
	if len(streams) == 0 {
		return nil, nil, fmt.Errorf("input walks: no reports")
	}
	return streams, walkMs, nil
}

// population assigns walk streams to terminals.  Terminal t replays
// stream[t] from offset[t] onwards, wrapping at the stream's end; the
// send order within one pass over the population is perm.  Epoch 0 of
// every terminal is the warm-up, so the report with global index g of the
// timed phase is terminal perm[g % n] at epoch 1 + g / n, and carries
// that terminal's sequence number 1 + g / n.
type population struct {
	streams [][]serve.Report
	stream  []int32
	offset  []int32
	perm    []int32
	pos     []int32 // inverse of perm
}

func newPopulation(streams [][]serve.Report, n int, seed int64) *population {
	r := rand.New(rand.NewSource(seed))
	p := &population{
		streams: streams,
		stream:  make([]int32, n),
		offset:  make([]int32, n),
		pos:     make([]int32, n),
	}
	for t := 0; t < n; t++ {
		s := r.Intn(len(streams))
		p.stream[t] = int32(s)
		p.offset[t] = int32(r.Intn(len(streams[s])))
	}
	p.perm = make([]int32, n)
	for i, t := range r.Perm(n) {
		p.perm[i] = int32(t)
		p.pos[t] = int32(i)
	}
	return p
}

func (p *population) size() int { return len(p.perm) }

// report returns terminal t's report for an epoch.
func (p *population) report(t, epoch int) serve.Report {
	s := p.streams[p.stream[t]]
	r := s[(int(p.offset[t])+epoch)%len(s)]
	r.Terminal = serve.TerminalID(t)
	return r
}

// timed returns the report with global index g of the timed phase.
func (p *population) timed(g int) serve.Report {
	n := len(p.perm)
	return p.report(int(p.perm[g%n]), 1+g/n)
}

// index inverts timed: the global index of terminal t's report with
// sequence number seq (seq ≥ 1).
func (p *population) index(t uint64, seq uint64) int {
	return int(seq-1)*len(p.perm) + int(p.pos[t])
}

// warmup returns every terminal's epoch-0 report in send order.
func (p *population) warmup() []serve.Report {
	out := make([]serve.Report, len(p.perm))
	for i, t := range p.perm {
		out[i] = p.report(int(t), 0)
	}
	return out
}

// outcomeHash digests one engine outcome.
func outcomeHash(o *serve.Outcome) uint64 {
	d := &o.Decision
	return decisionHash(uint64(o.Terminal), o.Seq, d.Handover, d.Scored, o.Executed, o.PingPong, o.Err != nil, d.Score, d.Reason)
}

// wireHash digests one decoded outcome line; it equals outcomeHash of the
// outcome the line encodes.
func wireHash(w *serve.WireOutcome) uint64 {
	return decisionHash(w.Terminal, w.Seq, w.Handover, w.Scored, w.Executed, w.PingPong, w.Error != "", w.Score, w.Reason)
}

// referenceDigest replays reports through a fresh single-shard engine,
// built by cfg with OnDecision replaced, in batches of 4,096, and returns
// the digest of its decisions.  Per-terminal order is the only thing the
// engine's decisions depend on, so any batching must give the same digest.
func referenceDigest(cfg serve.Config, total int, next func(i int) serve.Report) (digest, error) {
	var d digest
	cfg.Shards = 1
	cfg.OnDecision = func(o serve.Outcome) { d.add(outcomeHash(&o)) }
	e, err := serve.New(cfg)
	if err != nil {
		return d, err
	}
	if err := e.Start(); err != nil {
		return d, err
	}
	batch := make([]serve.Report, 0, 4096)
	for i := 0; i < total; i++ {
		batch = append(batch, next(i))
		if len(batch) == cap(batch) || i == total-1 {
			if err := e.SubmitBatch(batch); err != nil {
				return d, err
			}
			batch = batch[:0]
		}
	}
	if err := e.Stop(); err != nil {
		return d, err
	}
	return d, nil
}
