package serve

import (
	"time"

	"repro/internal/obs"
)

// LatencyRecorder accumulates duration samples concurrently and reports
// approximate quantiles.  It is a thin duration-typed veneer over
// obs.Histogram (the same log-linear layout: 64×32 buckets, ≤ 1/32
// relative resolution, lock- and allocation-free Observe).  The zero
// value is ready to use.
type LatencyRecorder struct {
	h obs.Histogram
}

// Observe records one sample.  Negative durations are ignored (they arise
// only from cross-goroutine clock misuse).
func (l *LatencyRecorder) Observe(d time.Duration) { l.h.ObserveDuration(d) }

// Count returns the number of samples recorded.
func (l *LatencyRecorder) Count() uint64 { return l.h.Count() }

// Mean returns the mean sample (0 when empty).
func (l *LatencyRecorder) Mean() time.Duration { return time.Duration(l.h.Mean()) }

// Max returns the largest sample.
func (l *LatencyRecorder) Max() time.Duration { return time.Duration(l.h.Max()) }

// Quantile returns the approximate q-quantile (q in [0, 1]; the lower
// bound of the containing bucket, so the estimate errs low by at most
// 1/32 relative).  Returns 0 when empty.
func (l *LatencyRecorder) Quantile(q float64) time.Duration {
	return time.Duration(l.h.Quantile(q))
}

// Histogram exposes the underlying histogram, e.g. for registering the
// recorder in an obs.Registry.
func (l *LatencyRecorder) Histogram() *obs.Histogram { return &l.h }

// Snapshot copies the recorder's cumulative state.
func (l *LatencyRecorder) Snapshot() LatencySnapshot {
	return LatencySnapshot{s: l.h.Snapshot()}
}

// SnapshotDelta returns the samples recorded since *prev and advances
// *prev to now — the one-liner a -stats loop calls each interval to get
// per-interval quantiles instead of cumulative ones.
func (l *LatencyRecorder) SnapshotDelta(prev *LatencySnapshot) LatencySnapshot {
	cur := l.h.Snapshot()
	d := cur.Delta(&prev.s)
	prev.s = cur
	return LatencySnapshot{s: d}
}

// LatencySnapshot is a point-in-time (or, via SnapshotDelta, windowed)
// view of a LatencyRecorder.
type LatencySnapshot struct {
	s obs.HistogramSnapshot
}

// Count returns the number of samples in the snapshot.
func (s *LatencySnapshot) Count() uint64 { return s.s.Count() }

// Mean returns the mean sample (0 when empty).
func (s *LatencySnapshot) Mean() time.Duration { return time.Duration(s.s.Mean()) }

// Max returns the largest sample; for windowed snapshots this is the
// lower bound of the highest occupied bucket.
func (s *LatencySnapshot) Max() time.Duration { return time.Duration(s.s.Max()) }

// Quantile returns the approximate q-quantile of the snapshot.
func (s *LatencySnapshot) Quantile(q float64) time.Duration {
	return time.Duration(s.s.Quantile(q))
}
