package handover

import (
	"math/rand"
	"testing"

	"repro/internal/cell"
)

// scoreFramePool is the row pool BenchmarkScoreFrame scores.
type scoreFramePool struct {
	ms   []cell.Measurement
	prev []float64
	// derived holds each row's trend state before its gather: it makes
	// Observe return the row's drawn slope.
	derived []DerivedState
}

// newScoreFramePool draws rows seeded-uniform over each FLC input's
// universe plus 5% of its span beyond either end (the SSN slope
// included), serving powers across the POTLC gate, speeds over the
// paper's 0-50 km/h sweep and a previous serving power within 2 dB, so
// neither the gate, the clamp, the threshold nor the PRTLC stage sees a
// pattern the branch predictor can learn.
func newScoreFramePool(b *testing.B, rows int) *scoreFramePool {
	sys, err := NewTrendSystem() // CSSP, SSN, DMB, TREND
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	draw := func(a int) float64 {
		v := sys.Inputs()[a]
		span := v.Max - v.Min
		return v.Min - 0.05*span + rng.Float64()*1.1*span
	}
	p := &scoreFramePool{
		ms:      make([]cell.Measurement, rows),
		prev:    make([]float64, rows),
		derived: make([]DerivedState, rows),
	}
	for i := range p.ms {
		m := cell.Measurement{
			ServingDB:  -110 + rng.Float64()*40,
			CSSPdB:     draw(0),
			NeighborDB: draw(1),
			DMBNorm:    draw(2),
			SpeedKmh:   rng.Float64() * 50,
		}
		p.ms[i] = m
		p.prev[i] = m.ServingDB - 2 + rng.Float64()*4
		p.derived[i].Trend = TrendState{PrevSSN: m.NeighborDB, Slope: 2 * draw(3), Have: true}
	}
	return p
}

// BenchmarkScoreFrame measures the columnar decision path of every fuzzy
// configuration on its compiled FLC, through the BatchScorer interface
// as a serve shard drives it: 64-row frames gathered from
// newScoreFramePool, scored by ScoreFrame and completed row by row by
// DecideScored.  It reports ns/row.
func BenchmarkScoreFrame(b *testing.B) {
	for _, tc := range []struct {
		name string
		mk   func() (BatchScorer, error)
	}{
		{"paper", func() (BatchScorer, error) { return NewCompiledFuzzy() }},
		{"adaptive", func() (BatchScorer, error) { return NewCompiledAdaptiveFuzzy() }},
		{"trend", func() (BatchScorer, error) { return NewCompiledTrendFuzzy() }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			const n, rows = 64, 4096
			f, err := tc.mk()
			if err != nil {
				b.Fatal(err)
			}
			p := newScoreFramePool(b, rows)
			fr := NewFeatureFrame(f.Schema(), n)
			var derived [n]DerivedState
			handovers := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := i * n % rows
				ms, prev := p.ms[off:off+n], p.prev[off:off+n]
				copy(derived[:], p.derived[off:off+n])
				fr.Reset(n)
				for k := range ms {
					fr.Gather(k, &ms[k], &derived[k])
				}
				if err := f.ScoreFrame(fr); err != nil {
					b.Fatal(err)
				}
				for k := range ms {
					d, err := f.DecideScored(&ms[k], prev[k], true, fr.HD[k], fr.Status[k])
					if err != nil {
						b.Fatal(err)
					}
					if d.Handover {
						handovers++
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/row")
			if b.N*n >= rows && handovers == 0 {
				b.Fatal("no row handed over; the completion stages are not under test")
			}
		})
	}
}
