package handover

import (
	"fmt"

	"repro/internal/cell"
)

// This file is the feature-schema layer of the columnar decision pipeline.
// A FeatureSchema is the declared, ordered antecedent list of a scoring
// algorithm, and a FeatureFrame is the reusable column container the
// serve engine gathers by that schema (on the submitting goroutine for a
// stateless schema, on the shard for a stateful one) and a BatchScorer
// scores against.  There are two built-in schemas: the paper's (CSSP,
// SSN, DMB — the three antecedents the measurement carries) and the
// trend schema, which adds the per-terminal SSN slope the trend
// controller reads.  Adding an antecedent means a new Gather column and a
// BatchScorer that reads it; a derived feature also needs its state in
// DerivedState and in the snapshot codec, so it migrates with the
// terminal.

// TrendState is the per-terminal derived state behind the SSN-trend
// feature: an exponentially weighted moving average of the epoch-to-epoch
// SSN delta — the EWMA slope of the strongest neighbor's signal in dB per
// epoch.  A rising slope means the terminal is moving into the neighbor's
// coverage; a falling one that the neighbor is fading.
//
// The fields are exported for the snapshot codec (terminal state migrates
// between cluster nodes); treat them as opaque elsewhere.
type TrendState struct {
	// PrevSSN is the last observed SSN in dB (valid when Have).
	PrevSSN float64
	// Slope is the EWMA of the SSN delta in dB per epoch.
	Slope float64
	// Have records whether PrevSSN holds an observation.
	Have bool
}

// trendEWMAAlpha is the EWMA smoothing factor of the SSN slope.  At 0.5
// the slope reacts within a couple of epochs while still damping the
// per-epoch shadowing jitter — the derivative input stays usable as a
// fuzzy antecedent instead of chasing noise.
const trendEWMAAlpha = 0.5

// Observe folds one SSN observation into the trend and returns the
// updated slope.  The first observation after a reset anchors the EWMA
// and reports a flat slope.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (t *TrendState) Observe(ssnDB float64) float64 {
	if !t.Have {
		t.PrevSSN, t.Have = ssnDB, true
		t.Slope = 0
		return 0
	}
	d := ssnDB - t.PrevSSN
	t.PrevSSN = ssnDB
	t.Slope += trendEWMAAlpha * (d - t.Slope)
	return t.Slope
}

// Reset clears the trend — called exactly where Algorithm.Reset is: run
// start, after every executed handover, and on external reattach.
//
//fuzzyho:hotpath
func (t *TrendState) Reset() { *t = TrendState{} }

// IsZero reports whether the trend holds no observation (the reset
// state); zero-trend terminals snapshot in the version-1 codec so paper
// deployments' snapshot bytes never change.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (t *TrendState) IsZero() bool { return !t.Have && t.PrevSSN == 0 && t.Slope == 0 }

// DerivedState is the per-terminal state stateful features extract from.
// Shards keep one per terminal; the scalar Decide path keeps one per
// algorithm instance (sim drives one terminal per instance).
type DerivedState struct {
	Trend TrendState
}

// Reset clears all derived state, at the same points Algorithm.Reset runs.
//
//fuzzyho:hotpath
func (d *DerivedState) Reset() { d.Trend.Reset() }

// FeatureSchema is an ordered, named feature list — the declared input
// shape of a BatchScorer.  Order is part of the identity: column k of a
// frame is feature k, and the schema hash (exchanged in the cluster hello)
// covers names in order.
type FeatureSchema struct {
	names    []string
	stateful bool
	hash     uint64
}

// newFeatureSchema builds a built-in schema: the paper's three
// measurement columns, then the stateful SSN-trend column when trend is
// set.
func newFeatureSchema(trend bool) *FeatureSchema {
	names := []string{"cssp", "ssn", "dmb"}
	if trend {
		names = append(names, "ssn_trend")
	}
	return &FeatureSchema{names: names, stateful: trend, hash: schemaHash(names)}
}

// schemaHash is the order-sensitive FNV-1a hash of names, each followed
// by a NUL separator.
func schemaHash(names []string) uint64 {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for _, name := range names {
		for j := 0; j < len(name); j++ {
			h ^= uint64(name[j])
			h *= fnvPrime
		}
		h ^= 0 // name separator
		h *= fnvPrime
	}
	return h
}

var (
	paperSchema = newFeatureSchema(false)
	trendSchema = newFeatureSchema(true)
)

// PaperFeatureSchema is the paper's 3-antecedent schema (CSSP, SSN, DMB)
// that the paper's and the speed-adaptive controllers score against.
func PaperFeatureSchema() *FeatureSchema { return paperSchema }

// TrendFeatureSchema is the paper schema extended with the per-terminal
// SSN-trend antecedent — the trend controller's 4-input shape.
func TrendFeatureSchema() *FeatureSchema { return trendSchema }

// Len returns the feature count.
func (s *FeatureSchema) Len() int { return len(s.names) }

// Stateful reports whether a feature reads per-terminal derived state
// (the trend schema's SSN slope); such frames must be gathered in each
// terminal's report order.
//
//fuzzyho:hotpath
func (s *FeatureSchema) Stateful() bool { return s.stateful }

// Hash is the order-sensitive FNV-1a hash of the feature names — the
// compact identity two cluster peers compare in the hello exchange.
func (s *FeatureSchema) Hash() uint64 { return s.hash }

// Names returns the feature names in column order (a fresh slice).
func (s *FeatureSchema) Names() []string { return append([]string(nil), s.names...) }

// FeatureFrame is the reusable struct-of-arrays container of one scored
// sub-batch: the schema's feature columns plus the serving column every
// scorer's gate reads, and the hd/status columns scoring fills.  Frames are gathered row by row (Gather), scored whole
// (BatchScorer.ScoreFrame), and reused — steady state allocates nothing.
type FeatureFrame struct {
	// Serving is the serving signal strength column in dB (the POTLC
	// gate's input).
	Serving []float64
	// HD is the score column ScoreFrame fills for evaluated rows.
	HD []float64
	// Status classifies every row after scoring.
	Status []ScoreStatus

	schema *FeatureSchema
	cols   [][]float64 // one column per schema feature, all len == len(Serving)
	cap    int
}

// NewFeatureFrame returns a frame for the schema with the given row
// capacity (the serving layer sizes it to its sub-batch bound).
func NewFeatureFrame(schema *FeatureSchema, capacity int) *FeatureFrame {
	if capacity < 1 {
		capacity = 1
	}
	f := &FeatureFrame{
		Serving: make([]float64, 0, capacity),
		HD:      make([]float64, 0, capacity),
		Status:  make([]ScoreStatus, 0, capacity),
		schema:  schema,
		cols:    make([][]float64, schema.Len()),
		cap:     capacity,
	}
	for k := range f.cols {
		f.cols[k] = make([]float64, 0, capacity)
	}
	return f
}

// Len returns the current row count.
func (f *FeatureFrame) Len() int { return len(f.Serving) }

// Cols returns all feature columns in schema order.  The slice and its
// columns are owned by the frame; treat them as read-only.
func (f *FeatureFrame) Cols() [][]float64 { return f.cols }

// Reset re-slices every column to n rows (contents undefined until
// gathered).  Rows beyond the construction capacity grow the frame.
//
//fuzzyho:hotpath
func (f *FeatureFrame) Reset(n int) {
	if n > f.cap {
		//fuzzyho:allow grows once to the largest sub-batch ever gathered (serve bounds it at maxSubBatch) and is reused afterwards
		f.grow(n)
	}
	f.Serving = f.Serving[:n]
	f.HD = f.HD[:n]
	f.Status = f.Status[:n]
	for k := range f.cols {
		f.cols[k] = f.cols[k][:n]
	}
}

// grow extends every column to n rows.  It stays out of line: it runs at
// most once per frame size, and inlined its allocations would count as
// Reset's, a hot-path function.
//
//go:noinline
func (f *FeatureFrame) grow(n int) {
	f.Serving = append(f.Serving[:f.cap], make([]float64, n-f.cap)...)
	f.HD = append(f.HD[:f.cap], make([]float64, n-f.cap)...)
	f.Status = append(f.Status[:f.cap], make([]ScoreStatus, n-f.cap)...)
	for k := range f.cols {
		f.cols[k] = append(f.cols[k][:f.cap], make([]float64, n-f.cap)...)
	}
	f.cap = n
}

// Gather fills row i from one report: the serving column, the paper's
// three feature columns and, for the trend schema, the SSN slope.
// For the trend schema d must be the terminal's derived state and rows
// must be gathered in that terminal's report order (the slope advances
// d); the paper schema may pass d = nil.
//
//fuzzyho:hotpath
func (f *FeatureFrame) Gather(i int, m *cell.Measurement, d *DerivedState) {
	f.Serving[i] = m.ServingDB
	f.cols[0][i] = m.CSSPdB
	f.cols[1][i] = m.NeighborDB
	f.cols[2][i] = m.DMBNorm
	if f.schema.stateful {
		f.cols[3][i] = d.Trend.Observe(m.NeighborDB)
	}
}

// frameSchemaErr is the shared scorer-side guard: a frame gathered for a
// different schema must not be scored (columns would be misinterpreted).
func frameSchemaErr(name string, want *FeatureSchema, f *FeatureFrame) error {
	if f.schema.Hash() == want.Hash() && len(f.cols) == want.Len() {
		return nil
	}
	//fuzzyho:allow schema guard: formats an error only when the caller scores a frame built for a different schema; serve shards build frames from the scorer's own schema
	return fmt.Errorf("handover: %s scoring a frame with schema %v (want %v)", name, f.schema.Names(), want.Names())
}

// SchemaHashOf returns the feature-schema hash algorithm a serves: its
// AsBatchScorer view's schema.
func SchemaHashOf(a Algorithm) uint64 { return AsBatchScorer(a).Schema().Hash() }
