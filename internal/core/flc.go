package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/fuzzy"
)

// FLC is the paper's fuzzy logic controller: the Fig. 5 variables, the
// Table 1 rule base and a Mamdani max–min engine with height
// defuzzification ("triangular and trapezoidal membership functions …
// suitable for real-time operation", §4).  An FLC is immutable (every
// field is set when it is built; Compile returns a new FLC) and safe for
// concurrent use.  The paper's FLC is built once per process and shared
// by NewController and every default fuzzy algorithm; NewFLC returns a
// fresh one.
//
// The system's first three inputs are CSSP, SSN and DMB; a variant may
// add antecedents after them (the SSN-trend controller adds a fourth).
// Evaluate, EvaluateInto and EvaluateBatch answer the paper's 3-input
// form; EvaluateRow and EvaluateCols answer any number of inputs.
type FLC struct {
	sys *fuzzy.System
	// bounds is the universe of every input, in input order: each input
	// clamps to its own variable's universe before inference.
	bounds [][2]float64
	// surface, when non-nil, is the compiled control surface: every
	// Evaluate* query answers from it instead of running Mamdani
	// inference per decision.  Only Compile sets it, on the FLC it
	// returns.
	surface *fuzzy.CompiledSurface
	// scratches recycles inference buffers for callers that use the
	// convenience Evaluate; hot loops should hold their own Scratch and
	// call EvaluateInto directly.
	scratches sync.Pool
}

// FLCOptions tunes the inference operators for the ablation studies; the
// zero value is the paper's configuration.
type FLCOptions struct {
	// Engine overrides the fuzzy operator set (nil fields keep defaults:
	// min/max, Mamdani implication, weighted-average defuzzifier).
	Engine fuzzy.Options
	// Rules overrides the rule base (nil keeps the paper's Table 1).
	Rules *fuzzy.RuleBase
	// Variables overrides the linguistic variables (nil entries keep the
	// Fig. 5 definitions).  The output override must be named HD and the
	// inputs CSSP, SSN, DMB.
	CSSP, SSN, DMB, HD *fuzzy.Variable
}

// NewFLC returns the paper's controller.
func NewFLC() *FLC {
	flc, err := NewFLCWithOptions(FLCOptions{})
	if err != nil {
		panic(err) // static configuration; cannot fail
	}
	return flc
}

// NewFLCWithOptions returns a controller with overridden operators,
// variables or rules (the ablation entry point).
func NewFLCWithOptions(opts FLCOptions) (*FLC, error) {
	cssp, ssn, dmb, hd := opts.CSSP, opts.SSN, opts.DMB, opts.HD
	if cssp == nil {
		cssp = NewCSSP()
	}
	if ssn == nil {
		ssn = NewSSN()
	}
	if dmb == nil {
		dmb = NewDMB()
	}
	if hd == nil {
		hd = NewHD()
	}
	rules := NewFRB()
	if opts.Rules != nil {
		rules = *opts.Rules
	}
	sys, err := fuzzy.NewSystem(hd, rules, opts.Engine, cssp, ssn, dmb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return NewFLCFromSystem(sys)
}

// NewFLCFromSystem wraps a built system whose inputs start with CSSP, SSN
// and DMB and whose output is HD; variants add their antecedents after
// the paper's three.
func NewFLCFromSystem(sys *fuzzy.System) (*FLC, error) {
	in := sys.Inputs()
	if len(in) < 3 {
		return nil, fmt.Errorf("core: %d inputs, want CSSP, SSN and DMB first", len(in))
	}
	for _, check := range []struct{ got, want string }{
		{in[0].Name, VarCSSP}, {in[1].Name, VarSSN}, {in[2].Name, VarDMB}, {sys.Output().Name, VarHD},
	} {
		if check.got != check.want {
			return nil, fmt.Errorf("core: variable named %q, want %q", check.got, check.want)
		}
	}
	f := &FLC{sys: sys, bounds: make([][2]float64, len(in))}
	for k, v := range in {
		f.bounds[k] = [2]float64{v.Min, v.Max}
	}
	return f, nil
}

// Compile returns the FLC on its compiled control surface: every
// Evaluate* query of the returned FLC answers from the surface, and f
// stays on the exact path.  The paper's configuration compiles into the
// exact segment-table kernel.  Operator ablations outside the kernel's
// shape (non-min/max norms, non-height defuzzifiers) fail compilation.
func (f *FLC) Compile() (*FLC, error) {
	cs, err := fuzzy.CompileSurface(f.sys)
	if err != nil {
		return nil, fmt.Errorf("core: compile control surface: %w", err)
	}
	return &FLC{sys: f.sys, bounds: f.bounds, surface: cs}, nil
}

// defaultFLC is the paper's exact FLC and defaultCompiledFLC its compiled
// form, each built once per process on first use and shared by every
// default consumer (sim runs, serve shards and ingest states, CLIs).
var (
	defaultFLC         = sync.OnceValue(NewFLC)
	defaultCompiledFLC = sync.OnceValues(func() (*FLC, error) { return defaultFLC().Compile() })
)

// DefaultCompiledFLC returns the shared compiled instance of the paper's
// controller (built once per process; safe for concurrent use).
func DefaultCompiledFLC() (*FLC, error) { return defaultCompiledFLC() }

// Surface returns the compiled control surface (nil on the exact path).
func (f *FLC) Surface() *fuzzy.CompiledSurface { return f.surface }

// System exposes the underlying fuzzy system (for surface dumps and the
// horules explainer).
func (f *FLC) System() *fuzzy.System { return f.sys }

// NewScratch returns reusable inference buffers for EvaluateInto.  One
// Scratch per goroutine; see fuzzy.Scratch.
func (f *FLC) NewScratch() *fuzzy.Scratch { return f.sys.NewScratch() }

// getScratch pops a pooled Scratch (or makes one); putScratch recycles it.
//
//fuzzyho:hotpath
func (f *FLC) getScratch() *fuzzy.Scratch {
	//fuzzyho:allow sync.Pool hit returns a pooled buffer without allocating; a miss (first use per P, or after GC) builds one
	if sc, ok := f.scratches.Get().(*fuzzy.Scratch); ok {
		return sc
	}
	//fuzzyho:allow pool-miss path only: builds the scratch the pool will recycle
	return f.sys.NewScratch()
}

//fuzzyho:hotpath
func (f *FLC) putScratch(sc *fuzzy.Scratch) {
	//fuzzyho:allow sync.Pool.Put stores the pointer without allocating in practice; the scratch itself is reused
	f.scratches.Put(sc)
}

// Evaluate computes the handover-decision output HD ∈ [0, 1] for the given
// raw inputs.  Inputs are clamped to their variables' universes, so
// out-of-range measurements saturate rather than fail; the complete
// Table 1 grid guarantees some rule always fires.  Evaluate runs on the positional fast
// path with pooled buffers; per-goroutine hot loops should prefer
// EvaluateInto with their own Scratch.
func (f *FLC) Evaluate(csspDB, ssnDB, dmbNorm float64) (float64, error) {
	sc := f.getScratch()
	hd, err := f.EvaluateInto(sc, csspDB, ssnDB, dmbNorm)
	f.putScratch(sc)
	return hd, err
}

// EvaluateInto is Evaluate on caller-owned buffers: zero heap allocations
// per call.  sc must come from this FLC's NewScratch and must not be shared
// across goroutines.  A compiled FLC answers from CompiledSurface.Evaluate
// and leaves sc untouched.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *FLC) EvaluateInto(sc *fuzzy.Scratch, csspDB, ssnDB, dmbNorm float64) (float64, error) {
	// Positional order matches NewFLCWithOptions: CSSP, SSN, DMB.
	xs := [3]float64{csspDB, ssnDB, dmbNorm}
	return f.EvaluateRow(sc, xs[:])
}

// errInputCount rejects a row whose length is not the system's input
// count.
var errInputCount = errors.New("core: input count differs from the system's")

// EvaluateRow is EvaluateInto for any number of inputs: xs holds one raw
// value per system input, in input order, and is clamped in place, each
// value to its own variable's universe and NaN to the floor.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *FLC) EvaluateRow(sc *fuzzy.Scratch, xs []float64) (float64, error) {
	if len(xs) != len(f.bounds) {
		return 0, errInputCount
	}
	for k, b := range f.bounds {
		xs[k] = Clamp(xs[k], b[0], b[1])
	}
	if f.surface != nil {
		return f.surface.Evaluate(xs)
	}
	return f.sys.EvaluateInto(sc, xs)
}

// EvaluateBatch computes HD for whole input columns: dst[i] is the output
// for (cssp[i], ssn[i], dmb[i]).  It is EvaluateCols on the paper's three
// columns.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *FLC) EvaluateBatch(dst, cssp, ssn, dmb []float64) error {
	cols := [3][]float64{cssp, ssn, dmb}
	return f.EvaluateCols(dst, cols[:])
}

// EvaluateCols computes HD for whole input columns, one per system input:
// dst[i] is the output for row (cols[0][i], cols[1][i], …).  The columns
// are clamped in place, exactly as EvaluateRow clamps a row.  Rows the
// engine cannot score (no rule fired on an ablated rulebase) get
// dst[i] = NaN; the error return covers shape mismatches only.  A
// compiled FLC hands the columns to CompiledSurface.EvaluateBatch;
// otherwise the batch loops the exact path over pooled buffers.  Steady
// state performs no heap allocations either way.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *FLC) EvaluateCols(dst []float64, cols [][]float64) error {
	if len(cols) != len(f.bounds) {
		//fuzzyho:allow shape guard: scorers pass columns gathered for their own schema, so this formats only on a caller contract violation
		return fmt.Errorf("core: %d columns for %d inputs", len(cols), len(f.bounds))
	}
	for _, c := range cols {
		if len(c) != len(dst) {
			//fuzzyho:allow shape guard: shard-owned columns always share one length, so this formats only on a caller contract violation
			return fmt.Errorf("core: column length %d ≠ batch length %d", len(c), len(dst))
		}
	}
	for k, b := range f.bounds {
		col := cols[k]
		for i := range col {
			col[i] = Clamp(col[i], b[0], b[1])
		}
	}
	if f.surface != nil {
		return f.surface.EvaluateBatch(dst, cols)
	}
	sc := f.getScratch()
	xs := sc.Xs()
	for i := range dst {
		for k, col := range cols {
			xs[k] = col[i]
		}
		hd, err := f.sys.EvaluateInto(sc, xs)
		if err != nil {
			hd = math.NaN() // mark the row, keep the batch going
		}
		dst[i] = hd
	}
	f.putScratch(sc)
	return nil
}

// EvaluateTrace is Evaluate with the full inference explanation.
func (f *FLC) EvaluateTrace(csspDB, ssnDB, dmbNorm float64) (float64, *fuzzy.Trace, error) {
	xs := [3]float64{csspDB, ssnDB, dmbNorm}
	for k, b := range f.bounds[:len(xs)] {
		xs[k] = Clamp(xs[k], b[0], b[1])
	}
	return f.sys.EvaluateTrace(map[string]float64{
		VarCSSP: xs[0],
		VarSSN:  xs[1],
		VarDMB:  xs[2],
	})
}
