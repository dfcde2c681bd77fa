package fuzzy

import "fmt"

// This file is the allocation-free inference fast path.  NewSystem compiles
// every membership function into a devirtualized fastTerm and precomputes the
// per-term defuzzification anchors; EvaluateInto then runs fuzzification,
// rule inference and (for the default operator set) defuzzification without
// touching the heap, using caller-owned Scratch buffers.
//
// The fast path is arithmetically identical to the map-based Evaluate: it
// evaluates the same concrete membership functions, combines clause grades
// with the same operators, and uses the same weighted-average formula, so
// the two paths agree bit-for-bit (verified by the equivalence tests in
// fast_test.go) for every non-NaN input.  NaN inputs are the one deliberate
// divergence: Evaluate propagates them to a NaN output, EvaluateInto
// rejects them with an error.

// mfKind tags the concrete membership-function families the fast path knows
// how to evaluate without an interface call.
type mfKind uint8

const (
	mfGeneric mfKind = iota // fall back to the MembershipFunc interface
	mfTriangular
	mfTrapezoidal
	mfGaussian
	mfBell
	mfSingleton
)

// fastTerm is one input term with its membership function flattened into
// parameters.  grade reconstructs the concrete value type and calls its
// Grade method directly, which the compiler can inline — no dynamic dispatch
// and exactly the arithmetic of the interface path.
type fastTerm struct {
	kind    mfKind
	p       [4]float64
	generic MembershipFunc // only for mfGeneric
}

// compileTerm flattens a membership function for devirtualized grading.
func compileTerm(mf MembershipFunc) fastTerm {
	switch m := mf.(type) {
	case Triangular:
		return fastTerm{kind: mfTriangular, p: [4]float64{m.A, m.B, m.C}}
	case Trapezoidal:
		return fastTerm{kind: mfTrapezoidal, p: [4]float64{m.A, m.B, m.C, m.D}}
	case Gaussian:
		return fastTerm{kind: mfGaussian, p: [4]float64{m.Mean, m.Sigma}}
	case Bell:
		return fastTerm{kind: mfBell, p: [4]float64{m.A, m.B, m.C}}
	case Singleton:
		return fastTerm{kind: mfSingleton, p: [4]float64{m.X}}
	default:
		return fastTerm{kind: mfGeneric, generic: mf}
	}
}

//fuzzyho:hotpath
//fuzzyho:deterministic
func (f *fastTerm) grade(x float64) float64 {
	switch f.kind {
	case mfTriangular:
		return Triangular{f.p[0], f.p[1], f.p[2]}.Grade(x)
	case mfTrapezoidal:
		return Trapezoidal{f.p[0], f.p[1], f.p[2], f.p[3]}.Grade(x)
	case mfGaussian:
		return Gaussian{f.p[0], f.p[1]}.Grade(x)
	case mfBell:
		return Bell{f.p[0], f.p[1], f.p[2]}.Grade(x)
	case mfSingleton:
		return Singleton{f.p[0]}.Grade(x)
	default:
		return f.generic.Grade(x)
	}
}

// fastClause is one antecedent clause flattened for the fast inference
// loop: idx addresses the clause's membership grade directly in the
// Scratch's flat grade buffer (cumulative term offset of the variable plus
// the term index), so evaluating a clause is a single indexed load.
type fastClause struct {
	idx int32
	not bool
}

// fastRule is one rule flattened for the fast inference loop: a [start, end)
// window into the system's contiguous clause pool plus the resolved
// consequent.  Keeping rules and clauses in two flat arrays (instead of a
// slice-of-slices) removes a pointer dereference and a cache miss per rule.
type fastRule struct {
	start, end int32
	outTerm    int32
	or         bool
	weight     float64
}

// maxGridSize caps the dense rule table: the product of the input term
// counts must stay below this for the table compilation to apply.
const maxGridSize = 4096

// gridTable is the dense compilation of "grid-shaped" rules: AND rules
// without negation that constrain every input variable exactly once (the
// shape of the paper's complete Table 1 rulebase).  Such a rule is fully
// identified by its term combination, so the table maps the combo index
// Σ termIdx[i]·stride[i] straight to the consequent.  At inference time only
// the cross product of terms with nonzero grades is visited — for Ruspini
// partitions that is ≤ 2 terms per variable, e.g. ≤ 8 of the FLC's 64 rules
// — because an AND rule with any zero clause has zero strength and
// contributes nothing.
type gridTable struct {
	strides []int32
	outTerm []int32 // per combo; -1 = no rule
	weight  []float64
}

// compileFastRules flattens the compiled rulebase for the fast path: rules
// matching the grid shape go into the dense table, everything else (OR
// connectives, NOT clauses, partial antecedents, duplicate combos) into the
// flat rule/clause pools; called by NewSystem after s.compiled is in place.
func (s *System) compileFastRules() {
	size := 1
	for _, v := range s.inputs {
		size *= len(v.Terms)
		if size > maxGridSize {
			size = 0
			break
		}
	}
	var grid *gridTable
	if size > 0 {
		grid = &gridTable{
			strides: make([]int32, len(s.inputs)),
			outTerm: make([]int32, size),
			weight:  make([]float64, size),
		}
		stride := int32(1)
		for i := len(s.inputs) - 1; i >= 0; i-- {
			grid.strides[i] = stride
			stride *= int32(len(s.inputs[i].Terms))
		}
		for i := range grid.outTerm {
			grid.outTerm[i] = -1
		}
	}
	gridUsed := false

	offsets := make([]int32, len(s.inputs))
	off := int32(0)
	for i, v := range s.inputs {
		offsets[i] = off
		off += int32(len(v.Terms))
	}
	seen := make([]bool, len(s.inputs))
	for _, cr := range s.compiled {
		if grid != nil {
			// A duplicate combo stays in the flat pool: the table holds the
			// first rule, and the max aggregation commutes.
			if idx := s.gridIndex(grid, cr, seen); idx >= 0 && grid.outTerm[idx] < 0 {
				grid.outTerm[idx] = int32(cr.outTerm)
				grid.weight[idx] = cr.weight
				gridUsed = true
				continue
			}
		}
		start := int32(len(s.fastClauses))
		for _, c := range cr.clauses {
			s.fastClauses = append(s.fastClauses, fastClause{
				idx: offsets[c.varIdx] + int32(c.termIdx),
				not: c.not,
			})
		}
		s.fastRules = append(s.fastRules, fastRule{
			start:   start,
			end:     int32(len(s.fastClauses)),
			outTerm: int32(cr.outTerm),
			or:      cr.conn == Or,
			weight:  cr.weight,
		})
	}
	if gridUsed {
		s.grid = grid
	}
}

// gridIndex returns the dense table index of a grid-shaped rule, or -1 if
// the rule does not fit the grid (OR connective, NOT clause, or antecedent
// not covering every variable exactly once).  seen is caller-provided
// scratch of len(inputs).
func (s *System) gridIndex(grid *gridTable, cr compiledRule, seen []bool) int32 {
	if len(cr.clauses) != len(s.inputs) {
		return -1
	}
	if cr.conn == Or && len(cr.clauses) > 1 {
		return -1
	}
	for i := range seen {
		seen[i] = false
	}
	idx := int32(0)
	for _, c := range cr.clauses {
		if c.not || seen[c.varIdx] {
			return -1
		}
		seen[c.varIdx] = true
		idx += grid.strides[c.varIdx] * int32(c.termIdx)
	}
	return idx
}

// Scratch holds the reusable working buffers of one inference: per-variable
// membership grades, per-output-term activations and a positional input
// buffer.  A Scratch is bound to the System that created it and is NOT safe
// for concurrent use — keep one Scratch per goroutine (they are cheap; pool
// them with sync.Pool if goroutines churn).
type Scratch struct {
	sys         *System
	xs          []float64
	grades      [][]float64 // [input][term], views into flat
	flat        []float64
	activations []float64
	// Grid-inference working set: per-variable nonzero term lists and the
	// odometer counters that walk their cross product.
	nz  [][]int32
	ctr []int32
}

// NewScratch returns a Scratch sized for this system's variables.
func (s *System) NewScratch() *Scratch {
	total := 0
	for _, v := range s.inputs {
		total += len(v.Terms)
	}
	sc := &Scratch{
		sys:         s,
		xs:          make([]float64, len(s.inputs)),
		grades:      make([][]float64, len(s.inputs)),
		flat:        make([]float64, total),
		activations: make([]float64, len(s.output.Terms)),
		nz:          make([][]int32, len(s.inputs)),
		ctr:         make([]int32, len(s.inputs)),
	}
	off := 0
	for i, v := range s.inputs {
		sc.grades[i] = sc.flat[off : off+len(v.Terms) : off+len(v.Terms)]
		sc.nz[i] = make([]int32, 0, len(v.Terms))
		off += len(v.Terms)
	}
	return sc
}

// Xs returns the scratch's positional input buffer (length = number of input
// variables, in definition order).  Callers may fill it and pass it to
// EvaluateInto to stay allocation-free.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (sc *Scratch) Xs() []float64 { return sc.xs }

// EvaluateInto runs one inference over positional inputs: xs[i] is the value
// of the i-th input variable in definition order (see Inputs).  Values are
// clamped to each variable's universe, exactly like Evaluate; NaN inputs
// are rejected with an error.  dst must have
// been created by this system's NewScratch; after warm-up the call performs
// zero heap allocations for the default operator set (min/max norms,
// weighted-average defuzzifier).  It is safe to call EvaluateInto
// concurrently as long as each goroutine owns its Scratch.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *System) EvaluateInto(dst *Scratch, xs []float64) (float64, error) {
	if dst == nil {
		//fuzzyho:allow caller-contract guard, never taken by the serve path (shards own their scratch)
		return 0, fmt.Errorf("fuzzy: nil scratch")
	}
	if dst.sys != s {
		//fuzzyho:allow caller-contract guard, never taken by the serve path (scratch is created from this system)
		return 0, fmt.Errorf("fuzzy: scratch belongs to a different system")
	}
	if len(xs) != len(s.inputs) {
		//fuzzyho:allow caller-contract guard, never taken by the serve path (positional arity is fixed at 3)
		return 0, fmt.Errorf("fuzzy: %d inputs for %d variables", len(xs), len(s.inputs))
	}
	// Fuzzify: grade every input against every term of its variable.  NaN
	// is rejected up front: it would slip through clamping and silently
	// drop out of the comparison-based min/max folds below, where the
	// reference path's math.Min would poison the output — a corrupted
	// measurement should fail loudly, not saturate.
	for i, v := range s.inputs {
		x := xs[i]
		if x != x {
			//fuzzyho:allow NaN guard: core.FLC clamps NaN to the universe floor before any decision-path query
			return 0, fmt.Errorf("fuzzy: input %q is NaN", v.Name)
		}
		x = v.Clamp(x)
		terms := s.fastIn[i]
		g := dst.grades[i]
		for j := range terms {
			g[j] = terms[j].grade(x)
		}
	}
	// Infer: aggregate rule activations per output term.
	act := dst.activations
	for i := range act {
		act[i] = 0
	}
	if s.fastNorms {
		if s.grid != nil {
			s.grid.infer(dst, act)
		}
		if len(s.fastRules) > 0 {
			s.inferFast(dst.flat, act)
		}
	} else {
		//fuzzyho:allow generic-operator fallback: the paper's controller always satisfies fastNorms, so the decision path never reaches the pointer-dispatch inference
		s.inferInto(dst.grades, act, nil)
	}
	// Defuzzify.
	if s.fastDefuzz {
		var num, den float64
		for i, a := range act {
			if a <= 0 {
				continue
			}
			num += a * s.outMid[i]
			den += a
		}
		if den == 0 {
			return 0, ErrNoActivation
		}
		return num / den, nil
	}
	//fuzzyho:allow custom-defuzzifier fallback: the default weighted-average defuzzifier takes the fastDefuzz branch above
	return s.opts.Defuzzifier.Defuzzify(s.output, act, s.opts.Implication)
}

// infer aggregates the activations of every grid rule whose strength is
// nonzero by walking the cross product of the nonzero-grade terms of each
// variable.  A grid rule's strength is the min over its clause grades, which
// is zero whenever any clause grade is — so restricting to nonzero terms
// visits exactly the rules the reference path would let fire, with exactly
// the same strengths (min and the max aggregation are order-independent).
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (g *gridTable) infer(sc *Scratch, act []float64) {
	nvars := len(sc.grades)
	for i, gr := range sc.grades {
		lst := sc.nz[i][:0]
		for j, v := range gr {
			if v != 0 {
				lst = append(lst, int32(j))
			}
		}
		if len(lst) == 0 {
			return // a variable graded zero everywhere: no grid rule fires
		}
		sc.nz[i] = lst
	}
	ctr := sc.ctr
	for i := range ctr {
		ctr[i] = 0
	}
	for {
		strength := 1.0 // neutral for min over grades in (0, 1]
		idx := int32(0)
		for i := 0; i < nvars; i++ {
			j := sc.nz[i][ctr[i]]
			if v := sc.grades[i][j]; v < strength {
				strength = v
			}
			idx += g.strides[i] * j
		}
		if ot := g.outTerm[idx]; ot >= 0 {
			strength *= g.weight[idx]
			if strength > act[ot] {
				act[ot] = strength
			}
		}
		k := nvars - 1
		for ; k >= 0; k-- {
			ctr[k]++
			if int(ctr[k]) < len(sc.nz[k]) {
				break
			}
			ctr[k] = 0
		}
		if k < 0 {
			return
		}
	}
}

// inferFast is inferInto specialized to the default min/max operator family:
// the t-norm and s-norm calls are inlined comparisons instead of function
// pointers, clauses read their grade with one indexed load from the flat
// grade buffer, and AND rules stop at the first zero clause (min cannot
// recover from 0, so the early exit is exact).  MinNorm and MaxNorm are
// math.Min/math.Max, which for membership grades in [0, 1] reduce to plain
// comparisons, so the whole specialization reproduces the generic path
// bit-for-bit.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *System) inferFast(flat []float64, act []float64) {
	clauses := s.fastClauses
	for ri := range s.fastRules {
		r := &s.fastRules[ri]
		c := clauses[r.start]
		strength := flat[c.idx]
		if c.not {
			strength = 1 - strength
		}
		if r.or {
			for i := r.start + 1; i < r.end; i++ {
				c := clauses[i]
				g := flat[c.idx]
				if c.not {
					g = 1 - g
				}
				if g > strength {
					strength = g
				}
			}
		} else {
			for i := r.start + 1; i < r.end && strength != 0; i++ {
				c := clauses[i]
				g := flat[c.idx]
				if c.not {
					g = 1 - g
				}
				if g < strength {
					strength = g
				}
			}
		}
		if strength == 0 {
			continue
		}
		strength *= r.weight
		if strength > act[r.outTerm] {
			act[r.outTerm] = strength
		}
	}
}
