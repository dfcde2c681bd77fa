package core

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/fuzzy"
)

// FLC is the paper's fuzzy logic controller: the Fig. 5 variables, the
// Table 1 rule base and a Mamdani max–min engine with height
// defuzzification ("triangular and trapezoidal membership functions …
// suitable for real-time operation", §4).  An FLC is immutable and safe for
// concurrent use.
type FLC struct {
	sys *fuzzy.System
	// surface, when non-nil, is the compiled control surface: Evaluate,
	// EvaluateInto and EvaluateBatch answer from it instead of running
	// Mamdani inference per decision.  Set once by Compile before the FLC
	// is shared; immutable afterwards.
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
	for _, check := range []struct{ got, want string }{
		{cssp.Name, VarCSSP}, {ssn.Name, VarSSN}, {dmb.Name, VarDMB}, {hd.Name, VarHD},
	} {
		if check.got != check.want {
			return nil, fmt.Errorf("core: variable named %q, want %q", check.got, check.want)
		}
	}
	rules := NewFRB()
	if opts.Rules != nil {
		rules = *opts.Rules
	}
	sys, err := fuzzy.NewSystem(hd, rules, opts.Engine, cssp, ssn, dmb)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &FLC{sys: sys}, nil
}

// Compile builds the compiled control surface and routes every subsequent
// Evaluate/EvaluateInto/EvaluateBatch through it.  The paper's
// configuration compiles into the exact segment-table kernel
// (bit-equivalent).  Call before the FLC is shared across goroutines.
// Operator ablations outside the kernel's shape (non-min/max norms,
// non-height defuzzifiers) fail compilation, leaving the FLC on the exact
// path.
func (f *FLC) Compile() error {
	cs, err := fuzzy.CompileSurface(f.sys)
	if err != nil {
		return fmt.Errorf("core: compile control surface: %w", err)
	}
	f.surface = cs
	return nil
}

// Compiled reports whether the FLC answers from the compiled surface.
func (f *FLC) Compiled() bool { return f.surface != nil }

// defaultCompiled lazily builds the process-wide compiled paper FLC: the
// default configuration is immutable, so every consumer of the compiled
// default (sim fleets, serve shards, CLIs) can share one kernel instead of
// paying the compile per run or per shard.
var defaultCompiled struct {
	once sync.Once
	flc  *FLC
	err  error
}

// DefaultCompiledFLC returns the shared compiled instance of the paper's
// controller (built once per process; safe for concurrent use).
func DefaultCompiledFLC() (*FLC, error) {
	defaultCompiled.once.Do(func() {
		flc := NewFLC()
		if err := flc.Compile(); err != nil {
			defaultCompiled.err = err
			return
		}
		defaultCompiled.flc = flc
	})
	return defaultCompiled.flc, defaultCompiled.err
}

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
// raw inputs.  Inputs are clamped to the Fig. 5 universes, so out-of-range
// measurements saturate rather than fail; the complete Table 1 grid
// guarantees some rule always fires.  Evaluate runs on the positional fast
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
	cssp, ssn, dmb := ClampInputs(csspDB, ssnDB, dmbNorm)
	// Positional order matches NewFLCWithOptions: CSSP, SSN, DMB.
	xs := [3]float64{cssp, ssn, dmb}
	if f.surface != nil {
		return f.surface.Evaluate(xs[:])
	}
	return f.sys.EvaluateInto(sc, xs[:])
}

// EvaluateBatch computes HD for whole input columns: dst[i] is the output
// for (cssp[i], ssn[i], dmb[i]).  The input columns are clamped to the
// Fig. 5 universes in place, exactly as Evaluate clamps scalars.  Rows the
// engine cannot score (no rule fired on an ablated rulebase) get
// dst[i] = NaN; the error return covers shape mismatches only.  A
// compiled FLC hands the columns to CompiledSurface.EvaluateBatch;
// otherwise the batch loops the exact path over pooled buffers.  Steady
// state performs no heap allocations either way.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *FLC) EvaluateBatch(dst, cssp, ssn, dmb []float64) error {
	if len(cssp) != len(dst) || len(ssn) != len(dst) || len(dmb) != len(dst) {
		//fuzzyho:allow shape guard: shard-owned columns always share one length, so this formats only on a caller contract violation
		return fmt.Errorf("core: column lengths %d/%d/%d ≠ batch length %d", len(cssp), len(ssn), len(dmb), len(dst))
	}
	for i := range dst {
		cssp[i], ssn[i], dmb[i] = ClampInputs(cssp[i], ssn[i], dmb[i])
	}
	if f.surface != nil {
		cols := [3][]float64{cssp, ssn, dmb}
		return f.surface.EvaluateBatch(dst, cols[:])
	}
	sc := f.getScratch()
	var xs [3]float64
	for i := range dst {
		xs[0], xs[1], xs[2] = cssp[i], ssn[i], dmb[i]
		hd, err := f.sys.EvaluateInto(sc, xs[:])
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
	cssp, ssn, dmb := ClampInputs(csspDB, ssnDB, dmbNorm)
	return f.sys.EvaluateTrace(map[string]float64{
		VarCSSP: cssp,
		VarSSN:  ssn,
		VarDMB:  dmb,
	})
}
