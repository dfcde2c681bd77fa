package fuzzy

import (
	"fmt"
	"math"
)

// This file is the compiled control surface.  A fuzzy controller with
// bounded inputs is a fixed function of its input vector, so the whole
// Mamdani pipeline — fuzzification, rule inference, defuzzification — can
// be compiled offline into a form that answers online queries without the
// rule loop.  CompileSurface compiles a "grid shaped" system (like the
// paper's FLC: 2–8 inputs with piecewise-linear terms, a dense AND rule
// table, min/max norms, height defuzzification) into an exact kernel:
// every input axis becomes a breakpoint segment table — per segment, the
// ≤ 2 active terms and their linear grade forms — and a query, whatever
// the axis count, is one walk: d segment lookups, prefix mins doubled over
// the first d−1 axes, 2^d table-indexed min/max folds against the last
// axis and one weighted average.  The kernel reproduces EvaluateInto's
// arithmetic operation for operation: construction validates every
// segment formula against the membership functions, then probes the
// kernel against EvaluateInto and fails on any difference above
// kernelValidationTol.
//
// A CompiledSurface is immutable, allocation-free to query, and safe for
// concurrent use without scratch buffers.  Systems outside that shape
// (other norms or defuzzifiers, smooth terms, fewer than 2 or more than 8
// inputs) fail compilation, and callers keep the exact EvaluateInto path.

// kernelMaxOutTerms bounds the output-term count the exact kernel supports
// (its activation accumulator lives on the stack so queries stay
// allocation-free and scratch-free).
const kernelMaxOutTerms = 8

// kernelMaxAxes bounds the input-axis count the exact kernel supports: the
// query keeps a stack-resident table of 2^(d−1) prefix mins (kernelWalk)
// and folds 2^d segment-term combos, so d is capped where that walk (256
// combos) stops being the fast path anyway.
const kernelMaxAxes = 8

// kernelProbeRes is the per-axis probe resolution used to cross-check the
// exact kernel against EvaluateInto at construction.  The kernel is
// bit-identical by construction; the probe is a defensive regression net,
// so a modest grid suffices.
const kernelProbeRes = 33

// kernelProbePoints caps the probe grid beyond three axes, where a fixed
// per-axis resolution would grow as res^d: 13⁴ points keeps construction
// in milliseconds up to kernelMaxAxes.
const kernelProbePoints = 13 * 13 * 13 * 13

// kernelTerm is one active term's grade form on a segment, unified as the
// affine (x - p)·r + c: plateaus use r = 0, c = 1; rising flanks
// (x - a)/(b - a) use p = a, r = 1/(b - a), c = 0; falling flanks use a
// negative r.  One fused form means the hot path grades a term with two
// arithmetic instructions and no branch.
type kernelTerm struct {
	p, r, c float64
}

// kernelSeg is one breakpoint interval of an axis: its upper bound, the
// ≤ 2 terms with nonzero grade on it (their rule-table offsets
// pre-multiplied by the axis stride), and their grade forms.  Segments
// with a single active term duplicate it into both slots, so the combo
// fold always walks all 2^d combos — the max aggregation is idempotent,
// and the hot path never branches on the active-term count.
type kernelSeg struct {
	hi     float64
	f0, f1 kernelTerm
	b0, b1 int32 // term index × axis stride into the dense rule table
}

// kernelAxis is one compiled input axis: the segment table plus a uniform
// lookup grid that maps x to its segment in O(1).
type kernelAxis struct {
	min, max float64
	invBin   float64
	lut      []int32
	segs     []kernelSeg
}

// kernelRule is one dense-table combo entry: consequent term and rule
// weight, fused so a combo fold touches one slice.  A combo with no rule
// is {out: 0, w: 0}: its strength is +0, which cannot raise an
// accumulator that starts at +0, so the fold never tests for a hole.
type kernelRule struct {
	out int32
	w   float64
}

// surfaceKernel is the exact compiled form of a grid-shaped N-input
// system (2 ≤ N ≤ kernelMaxAxes), queried by the doubling prefix-min walk
// (walk) for every axis count.
type surfaceKernel struct {
	dims  int
	axes  []kernelAxis
	rules []kernelRule // dense combo table
	mid   []float64    // output-term core midpoints
}

// CompiledSurface is the precompiled control surface of a System: its
// exact kernel.  Construct with CompileSurface; query with
// Evaluate/EvaluateBatch.
type CompiledSurface struct {
	sys  *System
	dims int
	kern *surfaceKernel
}

// CompileSurface compiles the system's control surface into the exact
// kernel.  It returns the kernel's eligibility error for systems that are
// not grid shaped, and the probe's error should the kernel disagree with
// the exact path; callers then keep using the exact EvaluateInto path.
func CompileSurface(s *System) (*CompiledSurface, error) {
	if s == nil {
		return nil, fmt.Errorf("fuzzy: compile of nil system")
	}
	kern, err := compileKernel(s)
	if err != nil {
		return nil, err
	}
	cs := &CompiledSurface{sys: s, dims: len(s.inputs), kern: kern}
	if err := cs.probeKernel(); err != nil {
		return nil, err
	}
	return cs, nil
}

// --- Exact kernel ----------------------------------------------------------

// compileKernel builds the exact segment-table kernel, or reports why the
// system does not fit it.
func compileKernel(s *System) (*surfaceKernel, error) {
	if d := len(s.inputs); d < 2 || d > kernelMaxAxes {
		return nil, fmt.Errorf("fuzzy: kernel supports 2–%d inputs, have %d", kernelMaxAxes, d)
	}
	if !s.fastNorms || !s.fastDefuzz {
		return nil, fmt.Errorf("fuzzy: kernel needs default min/max norms and height defuzzification")
	}
	if s.grid == nil || len(s.fastRules) > 0 {
		return nil, fmt.Errorf("fuzzy: kernel needs a pure dense rule table")
	}
	if len(s.output.Terms) > kernelMaxOutTerms {
		return nil, fmt.Errorf("fuzzy: kernel supports ≤ %d output terms, have %d",
			kernelMaxOutTerms, len(s.output.Terms))
	}
	k := &surfaceKernel{
		dims:  len(s.inputs),
		axes:  make([]kernelAxis, len(s.inputs)),
		rules: make([]kernelRule, len(s.grid.outTerm)),
		mid:   s.outMid,
	}
	for i, ot := range s.grid.outTerm {
		if ot >= 0 { // a hole keeps the zero entry {out: 0, w: 0}
			k.rules[i] = kernelRule{out: ot, w: s.grid.weight[i]}
		}
	}
	for i := range s.inputs {
		ax, err := compileAxis(s.inputs[i], s.grid.strides[i])
		if err != nil {
			return nil, err
		}
		k.axes[i] = *ax
	}
	return k, nil
}

// compileAxis builds one input variable's breakpoint segment table and
// validates every segment formula against the membership functions.
func compileAxis(v *Variable, stride int32) (*kernelAxis, error) {
	// Collect the finite breakpoints of every term, clamped to the
	// universe.
	bps := []float64{v.Min, v.Max}
	for _, t := range v.Terms {
		var pts []float64
		switch m := t.MF.(type) {
		case Triangular:
			pts = []float64{m.A, m.B, m.C}
		case Trapezoidal:
			pts = []float64{m.A, m.B, m.C, m.D}
		default:
			return nil, fmt.Errorf("fuzzy: kernel needs piecewise-linear terms; %q term %q is %T",
				v.Name, t.Name, t.MF)
		}
		for _, p := range pts {
			if p > v.Min && p < v.Max {
				bps = append(bps, p)
			}
		}
	}
	sortDedup(&bps)
	ax := &kernelAxis{min: v.Min, max: v.Max, segs: make([]kernelSeg, 0, len(bps)-1)}
	for i := 0; i+1 < len(bps); i++ {
		seg, err := compileSegment(v, stride, bps[i], bps[i+1])
		if err != nil {
			return nil, err
		}
		ax.segs = append(ax.segs, *seg)
	}
	// Uniform lookup grid: lut[b] is the segment containing the start of
	// bin b; a query advances at most past the segments inside one bin.
	const nBins = 256
	ax.invBin = float64(nBins) / (v.Max - v.Min)
	ax.lut = make([]int32, nBins)
	si := int32(0)
	for b := 0; b < nBins; b++ {
		x := v.Min + float64(b)*(v.Max-v.Min)/float64(nBins)
		for x > ax.segs[si].hi {
			si++
		}
		ax.lut[b] = si
	}
	return ax, nil
}

// kernelValidationTol bounds |compiled grade − MF grade| at the validation
// points of one segment, and |kernel − EvaluateInto| at every probe
// point.  The affine form differs from the membership function's own
// division only by the rounding of the precomputed reciprocal — a few
// ulps; anything larger means the construction picked the wrong form and
// the kernel must not ship.
const kernelValidationTol = 1e-9

// compileSegment resolves the active terms and grade forms on [lo, hi].
func compileSegment(v *Variable, stride int32, lo, hi float64) (*kernelSeg, error) {
	seg := &kernelSeg{hi: hi}
	mid := lo + (hi-lo)/2
	n := 0
	terms := [2]int{}
	for ti, t := range v.Terms {
		if t.MF.Grade(mid) == 0 {
			continue // linear on the segment and zero at its midpoint ⇒ zero throughout
		}
		if n == 2 {
			return nil, fmt.Errorf("fuzzy: kernel needs ≤ 2 active terms per segment; %q has ≥ 3 on [%g, %g]",
				v.Name, lo, hi)
		}
		f, err := termForm(t.MF, mid)
		if err != nil {
			return nil, fmt.Errorf("fuzzy: %q term %q: %w", v.Name, t.Name, err)
		}
		if n == 0 {
			seg.f0, seg.b0 = *f, int32(ti)*stride
		} else {
			seg.f1, seg.b1 = *f, int32(ti)*stride
		}
		terms[n] = ti
		n++
	}
	if n == 0 {
		return nil, fmt.Errorf("fuzzy: %q has no active term on [%g, %g]", v.Name, lo, hi)
	}
	if n == 1 {
		// Duplicate the single slot: the combo walk revisits it and the
		// max aggregation absorbs the repeat.
		seg.f1, seg.b1, terms[1] = seg.f0, seg.b0, terms[0]
	}
	// walk's fold compares grades as int64 bit patterns, which order like
	// the floats only while the sign bit is clear.  An affine form is
	// monotone, so checking both ends covers the segment.
	for _, f := range [2]*kernelTerm{&seg.f0, &seg.f1} {
		if math.Signbit(f.grade(lo)) || math.Signbit(f.grade(hi)) {
			return nil, fmt.Errorf("fuzzy: %q grade form %+v has its sign bit set on [%g, %g]",
				v.Name, *f, lo, hi)
		}
	}
	// Validate: the compiled grade of every term must match the membership
	// function across the segment.  Nine points pin an affine form;
	// mismatches mean the branch analysis above picked the wrong form.
	for p := 1; p < 8; p++ {
		// Segment endpoints belong to the neighbouring branch in the MF's
		// own switch; interior points must match.
		x := lo + (hi-lo)*float64(p)/8
		for ti, t := range v.Terms {
			want := t.MF.Grade(x)
			got := 0.0
			if ti == terms[0] {
				got = seg.f0.grade(x)
			} else if ti == terms[1] {
				got = seg.f1.grade(x)
			}
			if math.Abs(got-want) > kernelValidationTol {
				return nil, fmt.Errorf("fuzzy: kernel formula mismatch for %q term %q at %g: %g ≠ %g",
					v.Name, t.Name, x, got, want)
			}
		}
	}
	return seg, nil
}

// grade evaluates a kernelTerm (construction-time helper; the hot path
// inlines the same arithmetic).
func (f *kernelTerm) grade(x float64) float64 { return (x-f.p)*f.r + f.c }

// kernelConst1 is the plateau grade form.
var kernelConst1 = kernelTerm{c: 1}

// termForm derives the grade form of one membership function on the
// segment containing mid (where its grade is nonzero).
func termForm(mf MembershipFunc, mid float64) (*kernelTerm, error) {
	switch m := mf.(type) {
	case Triangular:
		if mid < m.B {
			return flankForm(m.A, m.B-m.A)
		}
		if mid > m.B {
			return flankForm(m.C, -(m.C - m.B))
		}
		return nil, fmt.Errorf("kernel: degenerate triangle peak at %g", mid)
	case Trapezoidal:
		switch {
		case mid < m.B:
			if math.IsInf(m.A, -1) {
				return &kernelConst1, nil
			}
			return flankForm(m.A, m.B-m.A)
		case mid <= m.C:
			return &kernelConst1, nil
		default:
			if math.IsInf(m.D, 1) {
				return &kernelConst1, nil
			}
			return flankForm(m.D, -(m.D - m.C))
		}
	default:
		return nil, fmt.Errorf("kernel: unsupported membership type %T", mf)
	}
}

// flankForm encodes the linear flank (x - p)/q (q < 0: the falling flank
// (p - x)/|q|) as (x - p)·(1/q).
func flankForm(p, q float64) (*kernelTerm, error) {
	if q == 0 || math.IsInf(q, 0) || math.IsNaN(q) {
		return nil, fmt.Errorf("kernel: degenerate flank width %g", q)
	}
	return &kernelTerm{p: p, r: 1 / q}, nil
}

func sortDedup(xs *[]float64) {
	s := *xs
	for i := 1; i < len(s); i++ { // insertion sort: breakpoint lists are tiny
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	out := s[:1]
	for _, x := range s[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	*xs = out
}

// find locates x's segment on the axis, clamping to the universe first.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (ax *kernelAxis) find(x float64) (*kernelSeg, float64) {
	if x < ax.min {
		x = ax.min
	} else if x > ax.max {
		x = ax.max
	}
	bi := int((x - ax.min) * ax.invBin)
	if bi >= len(ax.lut) {
		bi = len(ax.lut) - 1
	}
	si := ax.lut[bi]
	for x > ax.segs[si].hi {
		si++
	}
	return &ax.segs[si], x
}

// walkEntry is one row of the doubling walk's prefix table: the min over
// the grades its combo selects on the axes walked so far, and the summed
// rule-table offset.
type walkEntry struct {
	m   float64
	idx int32
}

// kernelWalk is the doubling walk's prefix table: entry j's combo picks
// axis a's second slot where bit a of j is set.  At 2^(kernelMaxAxes−1)
// entries it is 2 KiB on the stack, which a batch query declares once per
// batch and every row reuses.  A scalar query would zero all of it per
// call, so Evaluate walks smallWalk up to smallWalkAxes.
type kernelWalk [1 << (kernelMaxAxes - 1)]walkEntry

// smallWalkAxes is the largest axis count Evaluate walks on smallWalk: the
// paper's 3-input FLC and trendfuzzy's 4-input surface.
const smallWalkAxes = 4

// smallWalk is kernelWalk cut to 2^(smallWalkAxes−1) entries (128 B).
type smallWalk [1 << (smallWalkAxes - 1)]walkEntry

// walkTable is a prefix table walk can run on.  walk takes the table's
// array type rather than a slice so that each table gets its own compiled
// walk with constant bounds: a slice-taking walk read 5–10% slower on
// BenchmarkEvaluateCompiledBatch and BenchmarkEvaluateCompiledBatchTrend.
type walkTable interface{ kernelWalk | smallWalk }

// walk is the exact-kernel query: one segment lookup and two grade forms
// per axis.  Axes 0…d−2 double the prefix table — entry j becomes
// (min(m_j, g0), idx_j + b0) at j and (min(m_j, g1), idx_j + b1) at j + n
// — so each combo's min costs one branch-free builtin min per axis; the
// last axis folds the 2^(d−1) prefixes straight into the activation
// accumulator with fold, and the weighted average sums every output term.
// Neither stage branches on the values it reads.  On a shard's rows a
// fold that compared before it stored, and a defuzzification that
// skipped unfired terms, branched on coin flips: on a 2-vCPU Xeon VM the
// branch-free walk cut engine-paper's traced cost per point from 156 to
// 86 ns, though every combo now stores its max.  These are the
// reference grid inference's min-folds and max-aggregation on the same
// values, with duplicated slots standing in for single-term segments; both
// are order-free on grades in [0, 1].  Axis 0 starts from the neutral 1.0,
// so a flank grade rounding above 1 is clamped as the reference fold
// clamps it.  xs must be NaN-free (the exported queries reject NaN first);
// out-of-universe values clamp exactly like the reference path.  w must
// hold 2^(d−1) entries.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func walk[T walkTable](k *surfaceKernel, xs []float64, w *T) (float64, error) {
	d := k.dims
	sg, x := k.axes[0].find(xs[0])
	(*w)[0] = walkEntry{min(1, (x-sg.f0.p)*sg.f0.r+sg.f0.c), sg.b0}
	(*w)[1] = walkEntry{min(1, (x-sg.f1.p)*sg.f1.r+sg.f1.c), sg.b1}
	n := 2
	for a := 1; a < d-1; a++ {
		sg, x := k.axes[a].find(xs[a])
		g0 := (x-sg.f0.p)*sg.f0.r + sg.f0.c
		g1 := (x-sg.f1.p)*sg.f1.r + sg.f1.c
		for j := 0; j < n; j++ {
			e := (*w)[j]
			(*w)[j+n] = walkEntry{min(e.m, g1), e.idx + sg.b1}
			(*w)[j] = walkEntry{min(e.m, g0), e.idx + sg.b0}
		}
		n *= 2
	}
	sg, x = k.axes[d-1].find(xs[d-1])
	g0 := int64(math.Float64bits((x-sg.f0.p)*sg.f0.r + sg.f0.c))
	g1 := int64(math.Float64bits((x-sg.f1.p)*sg.f1.r + sg.f1.c))
	var act [kernelMaxOutTerms]int64 // activation bit patterns, +0 to start
	rules := k.rules
	for j := 0; j < n; j++ {
		e := (*w)[j]
		m := int64(math.Float64bits(e.m))
		fold(m, g0, &rules[e.idx+sg.b0], &act)
		fold(m, g1, &rules[e.idx+sg.b1], &act)
	}
	// An unfired term's +0 adds ±0 to num and +0 to den, which leaves
	// both bit-identical to skipping it.
	var num, den float64
	for i, m := range k.mid {
		a := math.Float64frombits(uint64(act[i&(kernelMaxOutTerms-1)]))
		num += a * m
		den += a
	}
	if den == 0 {
		return 0, ErrNoActivation
	}
	return num / den, nil
}

// fold accumulates one rule combo: finish the min, apply the weight,
// max-aggregate into the consequent's activation.  m and g are grade bit
// patterns.  Every compiled grade is ≥ +0 with its sign bit clear
// (compileSegment checks it) and weights lie in [0, 1], so the integer
// min and max order these exactly as the float compares would and
// compile to compare-and-CMOV, with no branch on the values.  Go's float
// builtins must honour NaN and ±0, and on amd64 their two dependent
// MINSDs plus a POR read slower.  out is masked to the accumulator size
// instead of bounds-checked: eligibility pins every consequent under
// kernelMaxOutTerms.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func fold(m, g int64, r *kernelRule, act *[kernelMaxOutTerms]int64) {
	s := int64(math.Float64bits(math.Float64frombits(uint64(min(m, g))) * r.w))
	o := r.out & (kernelMaxOutTerms - 1)
	act[o] = max(act[o], s)
}

// probeKernel cross-checks the kernel against the exact path on a modest
// grid and fails at the first point where the two differ by more than
// kernelValidationTol (the kernel is arithmetic-identical by
// construction, so any such point means it must not ship).
func (cs *CompiledSurface) probeKernel() error {
	sc := cs.sys.NewScratch()
	xs := sc.Xs()
	// Beyond three axes, probe the largest per-axis resolution from 13 down
	// to 3 (both edges and the middle) whose d-th power fits
	// kernelProbePoints: 13 at d = 4, 3 at d = 8.
	res := kernelProbeRes
	if cs.dims > 3 {
		for res = 13; res > 3; res-- {
			pts := 1
			for a := 0; a < cs.dims && pts <= kernelProbePoints; a++ {
				pts *= res
			}
			if pts <= kernelProbePoints {
				break
			}
		}
	}
	var w kernelWalk
	var probe func(ax int) error
	probe = func(ax int) error {
		if ax == cs.dims {
			exact, exactErr := cs.sys.EvaluateInto(sc, xs)
			got, kernErr := walk(cs.kern, xs, &w)
			if (exactErr == nil) != (kernErr == nil) {
				return fmt.Errorf("fuzzy: kernel probe at %v: exact err %v, kernel err %v",
					xs, exactErr, kernErr)
			}
			if exactErr != nil {
				// Both paths agree no rule fires here (an incomplete grid's
				// dead zone); per-query callers get the same error either way.
				return nil
			}
			if e := math.Abs(exact - got); !(e <= kernelValidationTol) { // NaN fails too
				return fmt.Errorf("fuzzy: kernel probe at %v: kernel %g, exact %g", xs, got, exact)
			}
			return nil
		}
		v := cs.sys.inputs[ax]
		for i := 0; i < res; i++ {
			xs[ax] = v.Min + (v.Max-v.Min)*float64(i)/float64(res-1)
			if err := probe(ax + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return probe(0)
}

// --- Queries ---------------------------------------------------------------

// System returns the system the surface was compiled from.
func (cs *CompiledSurface) System() *System { return cs.sys }

// NumInputs returns the number of input axes.
func (cs *CompiledSurface) NumInputs() int { return cs.dims }

// Evaluate computes the compiled surface at the positional input vector
// (same order and clamping as EvaluateInto).  NaN inputs are rejected, as
// on the exact fast path.  It is the scalar decision path of every
// compiled controller (core.FLC.EvaluateInto, the trend controller's
// Decide), so it is hot-path audited.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (cs *CompiledSurface) Evaluate(xs []float64) (float64, error) {
	if len(xs) != cs.dims {
		//fuzzyho:allow shape guard: scorers pass their own scratch vector, so this formats only on caller misuse
		return 0, fmt.Errorf("fuzzy: %d inputs for %d axes", len(xs), cs.dims)
	}
	for i, x := range xs {
		if x != x {
			//fuzzyho:allow NaN guard: decision-path callers clamp inputs (core.Clamp maps NaN to the floor) before querying
			return 0, fmt.Errorf("fuzzy: input %q is NaN", cs.sys.inputs[i].Name)
		}
	}
	if cs.dims <= smallWalkAxes {
		var w smallWalk
		return walk(cs.kern, xs, &w)
	}
	var w kernelWalk
	return walk(cs.kern, xs, &w)
}

// EvaluateBatch computes a whole column batch: dst[i] is the output at
// (cols[0][i], cols[1][i], …).  All columns must have len(dst).  Rows with
// a NaN input, and rows where no rule fires, get dst[i] = NaN (a fired
// kernel cannot produce NaN, so NaN unambiguously marks a rejected row);
// the error return covers shape problems only.  The call performs no heap
// allocations.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (cs *CompiledSurface) EvaluateBatch(dst []float64, cols [][]float64) error {
	if len(cols) != cs.dims {
		//fuzzyho:allow shape guard: shard frames are built from the scorer's own schema, so this formats only on caller misuse
		return fmt.Errorf("fuzzy: %d columns for %d axes", len(cols), cs.dims)
	}
	for _, c := range cols {
		if len(c) != len(dst) {
			//fuzzyho:allow shape guard: shard-owned columns always share one length, so this formats only on a caller contract violation
			return fmt.Errorf("fuzzy: column length %d ≠ batch length %d", len(c), len(dst))
		}
	}
	var xs [kernelMaxAxes]float64
	var w kernelWalk
	row := xs[:cs.dims]
	for i := range dst {
		bad := false
		for a := range row {
			x := cols[a][i]
			if x != x {
				bad = true
				break
			}
			row[a] = x
		}
		if bad {
			dst[i] = math.NaN()
			continue
		}
		y, err := walk(cs.kern, row, &w)
		if err != nil {
			y = math.NaN() // no rule fired: mark the row, keep the batch going
		}
		dst[i] = y
	}
	return nil
}
