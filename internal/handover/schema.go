package handover

import (
	"fmt"

	"repro/internal/cell"
)

// This file is the feature-schema layer of the columnar decision pipeline.
// The paper's FLC consumes exactly three antecedents (CSSP, SSN, DMB), and
// that shape used to be positionally hardcoded through the batch interface
// and the serving shards' struct-of-arrays buffers.  A FeatureSchema makes
// the antecedent list a declared, ordered property of the scoring
// algorithm instead: each feature names itself and knows how to extract
// its value from a report (the measurement, any wire extension values, and
// the terminal's derived state), and a FeatureFrame is the reusable
// column container a shard gathers by that schema and a BatchScorer scores
// against.  Adding an antecedent is then a schema declaration plus rules —
// no pipeline surgery (TrendFuzzy's SSN-trend input is the proof).

// ExtValue is one named extension-feature value carried alongside a
// measurement — the decoded form of the wire report's optional "x" object.
// Values ride in declaration order; schemas address them by name.
type ExtValue struct {
	Name  string
	Value float64
}

// extLookup returns the named extension value, or def when absent.  The
// list is tiny (a handful of extension features at most), so a linear scan
// beats any map on the hot path.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func extLookup(ext []ExtValue, name string, def float64) float64 {
	for i := range ext {
		if ext[i].Name == name {
			return ext[i].Value
		}
	}
	return def
}

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

// featureKind classifies the package's built-in extractors so the gather
// loop can read the measurement field directly instead of making an
// indirect call per feature per row (the Gather hot path is one of the two
// per-report passes the serving shards run).  featCustom — the zero value,
// and the kind of every externally constructed Feature — dispatches
// through the Extract func.
type featureKind uint8

const (
	featCustom featureKind = iota
	featCSSP
	featSSN
	featDMB
	featTrend
	featExt
)

// Feature is one named input column of a FeatureSchema.
type Feature struct {
	// Name identifies the feature; schema hashes are built from names.
	Name string
	// Stateful marks features whose extraction reads or advances the
	// terminal's DerivedState.  A schema with any stateful feature must be
	// gathered in per-terminal report order (serve shards enforce this).
	Stateful bool
	// Extract computes the feature value for one report.  d is nil for
	// frames gathered without derived state (stateless schemas).
	//
	//fuzzyho:hotpath
	Extract func(m *cell.Measurement, ext []ExtValue, d *DerivedState) float64

	// kind lets Gather inline the built-in extractors; extDef is the
	// absent-value default of featExt features.  Both mirror what Extract
	// computes — the func stays the public, always-valid contract.
	kind   featureKind
	extDef float64
}

// FeatureCSSP is the paper's first antecedent: the change of the serving
// signal strength in dB.
func FeatureCSSP() Feature {
	return Feature{Name: "cssp", kind: featCSSP,
		Extract: func(m *cell.Measurement, _ []ExtValue, _ *DerivedState) float64 {
			return m.CSSPdB
		}}
}

// FeatureSSN is the paper's second antecedent: the strongest neighbor's
// signal strength in dB.
func FeatureSSN() Feature {
	return Feature{Name: "ssn", kind: featSSN,
		Extract: func(m *cell.Measurement, _ []ExtValue, _ *DerivedState) float64 {
			return m.NeighborDB
		}}
}

// FeatureDMB is the paper's third antecedent: the distance from the
// serving BS, normalised by the cell radius.
func FeatureDMB() Feature {
	return Feature{Name: "dmb", kind: featDMB,
		Extract: func(m *cell.Measurement, _ []ExtValue, _ *DerivedState) float64 {
			return m.DMBNorm
		}}
}

// FeatureSSNTrend is the derivative antecedent: the per-terminal EWMA
// slope of SSN in dB per epoch, advanced by every gathered report.
func FeatureSSNTrend() Feature {
	return Feature{Name: "ssn_trend", Stateful: true, kind: featTrend,
		Extract: func(m *cell.Measurement, _ []ExtValue, d *DerivedState) float64 {
			return d.Trend.Observe(m.NeighborDB)
		}}
}

// FeatureExtension reads a wire extension value ("x" object) by name,
// falling back to def for reports that do not carry it — how a schema
// consumes antecedents the measurement model does not compute.
func FeatureExtension(name string, def float64) Feature {
	return Feature{Name: name, kind: featExt, extDef: def,
		Extract: func(_ *cell.Measurement, ext []ExtValue, _ *DerivedState) float64 {
			return extLookup(ext, name, def)
		}}
}

// FeatureSchema is an ordered, named feature list — the declared input
// shape of a BatchScorer.  Order is part of the identity: column k of a
// frame is feature k, and the schema hash (exchanged in the cluster hello)
// covers names in order.
type FeatureSchema struct {
	features []Feature
	stateful bool
	hash     uint64
}

// NewFeatureSchema validates and builds a schema from ordered features.
func NewFeatureSchema(features ...Feature) (*FeatureSchema, error) {
	if len(features) == 0 {
		return nil, fmt.Errorf("handover: schema needs at least one feature")
	}
	s := &FeatureSchema{features: make([]Feature, len(features))}
	copy(s.features, features)
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i, f := range s.features {
		if f.Name == "" {
			return nil, fmt.Errorf("handover: schema feature %d has no name", i)
		}
		if f.Extract == nil {
			return nil, fmt.Errorf("handover: schema feature %q has no extractor", f.Name)
		}
		for _, prev := range s.features[:i] {
			if prev.Name == f.Name {
				return nil, fmt.Errorf("handover: duplicate schema feature %q", f.Name)
			}
		}
		for j := 0; j < len(f.Name); j++ {
			h ^= uint64(f.Name[j])
			h *= fnvPrime
		}
		h ^= 0 // name separator
		h *= fnvPrime
		if f.Stateful {
			s.stateful = true
		}
	}
	s.hash = h
	return s, nil
}

func mustSchema(features ...Feature) *FeatureSchema {
	s, err := NewFeatureSchema(features...)
	if err != nil {
		panic(err)
	}
	return s
}

var (
	paperSchema = mustSchema(FeatureCSSP(), FeatureSSN(), FeatureDMB())
	trendSchema = mustSchema(FeatureCSSP(), FeatureSSN(), FeatureDMB(), FeatureSSNTrend())
)

// PaperFeatureSchema is the paper's 3-antecedent schema (CSSP, SSN, DMB)
// that Fuzzy and AdaptiveFuzzy score against.
func PaperFeatureSchema() *FeatureSchema { return paperSchema }

// TrendFeatureSchema is the paper schema extended with the per-terminal
// SSN-trend antecedent — TrendFuzzy's 4-input shape.
func TrendFeatureSchema() *FeatureSchema { return trendSchema }

// Len returns the feature count.
func (s *FeatureSchema) Len() int { return len(s.features) }

// Stateful reports whether any feature reads per-terminal derived state.
func (s *FeatureSchema) Stateful() bool { return s.stateful }

// Hash is the order-sensitive FNV-1a hash of the feature names — the
// compact identity two cluster peers compare in the hello exchange.
func (s *FeatureSchema) Hash() uint64 { return s.hash }

// Names returns the feature names in column order (a fresh slice).
func (s *FeatureSchema) Names() []string {
	out := make([]string, len(s.features))
	for i, f := range s.features {
		out[i] = f.Name
	}
	return out
}

// Feature returns feature k.
func (s *FeatureSchema) Feature(k int) Feature { return s.features[k] }

// FeatureFrame is the reusable struct-of-arrays container of one scored
// sub-batch: the schema's feature columns plus the serving/speed columns
// every scorer's gate and threshold stages read, and the hd/status columns
// scoring fills.  Frames are gathered row by row (Gather), scored whole
// (BatchScorer.ScoreFrame), and reused — steady state allocates nothing.
type FeatureFrame struct {
	// Serving is the serving signal strength column in dB (the POTLC
	// gate's input).
	Serving []float64
	// Speed is the terminal speed column in km/h (speed-adaptive
	// threshold schedules read it).
	Speed []float64
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
		Speed:   make([]float64, 0, capacity),
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

// Schema returns the schema the frame was built for.
func (f *FeatureFrame) Schema() *FeatureSchema { return f.schema }

// Len returns the current row count.
func (f *FeatureFrame) Len() int { return len(f.Serving) }

// Col returns feature column k (length Len), valid until the next Reset.
func (f *FeatureFrame) Col(k int) []float64 { return f.cols[k] }

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
	f.Speed = f.Speed[:n]
	f.HD = f.HD[:n]
	f.Status = f.Status[:n]
	for k := range f.cols {
		f.cols[k] = f.cols[k][:n]
	}
}

func (f *FeatureFrame) grow(n int) {
	f.Serving = append(f.Serving[:f.cap], make([]float64, n-f.cap)...)
	f.Speed = append(f.Speed[:f.cap], make([]float64, n-f.cap)...)
	f.HD = append(f.HD[:f.cap], make([]float64, n-f.cap)...)
	f.Status = append(f.Status[:f.cap], make([]ScoreStatus, n-f.cap)...)
	for k := range f.cols {
		f.cols[k] = append(f.cols[k][:f.cap], make([]float64, n-f.cap)...)
	}
	f.cap = n
}

// Gather fills row i from one report: the serving/speed columns and every
// schema feature's extraction.  For stateful schemas d must be the
// terminal's derived state and rows must be gathered in that terminal's
// report order (stateful extractors advance d); stateless schemas may
// pass d = nil.
//
//fuzzyho:hotpath
func (f *FeatureFrame) Gather(i int, m *cell.Measurement, ext []ExtValue, d *DerivedState) {
	f.Serving[i] = m.ServingDB
	f.Speed[i] = m.SpeedKmh
	feats := f.schema.features
	for k := range feats {
		ft := &feats[k]
		var v float64
		switch ft.kind {
		case featCSSP:
			v = m.CSSPdB
		case featSSN:
			v = m.NeighborDB
		case featDMB:
			v = m.DMBNorm
		case featTrend:
			v = d.Trend.Observe(m.NeighborDB)
		case featExt:
			v = extLookup(ext, ft.Name, ft.extDef)
		default:
			//fuzzyho:allow extractor dispatch: custom extractors are fixed at schema construction (NewFeatureSchema) and audited there — the built-in kinds above never reach this call
			v = ft.Extract(m, ext, d)
		}
		f.cols[k][i] = v
	}
}

// GatherMeasurements is the convenience bulk form for stateless schemas
// and single-owner streams (tests, the sim table path): Reset to len(ms)
// and gather every measurement in order against one derived state.
func (f *FeatureFrame) GatherMeasurements(ms []cell.Measurement, d *DerivedState) {
	f.Reset(len(ms))
	for i := range ms {
		f.Gather(i, &ms[i], nil, d)
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

// ClampToUniverse clamps x into [lo, hi], mapping NaN to lo — the same
// saturation core.ClampInputs applies to the paper inputs, exposed for
// extension antecedents.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func ClampToUniverse(x, lo, hi float64) float64 {
	if x != x {
		return lo
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
