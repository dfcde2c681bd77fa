package fuzzy

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// paperShapedSystem is a 3-input complete-grid Mamdani system of the
// paper's FLC shape (Ruspini-style triangular/trapezoidal partitions, full
// AND rulebase) with configurable operators — the exact-kernel eligibility
// case.
func paperShapedSystem(t testing.TB, opts Options) *System {
	t.Helper()
	a := MustVariable("a", -10, 10,
		Term{"sm", ShoulderLeft(-10, -5)},
		Term{"lc", Tri(-10, -5, 0)},
		Term{"nc", Tri(-5, 0, 10)},
		Term{"bg", ShoulderRight(0, 10)},
	)
	b := MustVariable("b", -120, -80,
		Term{"wk", ShoulderLeft(-120, -106)},
		Term{"nsw", Tri(-120, -106, -93)},
		Term{"no", Tri(-106, -93, -80)},
		Term{"st", ShoulderRight(-93, -80)},
	)
	c := MustVariable("c", 0, 1.5,
		Term{"nr", ShoulderLeft(0.25, 0.4)},
		Term{"nsn", Tri(0.25, 0.4, 0.75)},
		Term{"nsf", Tri(0.4, 0.75, 1.0)},
		Term{"fa", ShoulderRight(0.8, 1.0)},
	)
	y := MustVariable("y", 0, 1,
		Term{"vl", Trap(0, 0, 0.2, 0.4)},
		Term{"lo", Tri(0.2, 0.4, 0.6)},
		Term{"lh", Tri(0.4, 0.6, 0.8)},
		Term{"hg", Trap(0.6, 1, 1, 1)},
	)
	outs := []string{"vl", "lo", "lh", "hg"}
	var rb RuleBase
	i := 0
	for _, at := range a.TermNames() {
		for _, bt := range b.TermNames() {
			for _, ct := range c.TermNames() {
				rb.Add(Rule{
					If: []Clause{
						{Var: "a", Term: at}, {Var: "b", Term: bt}, {Var: "c", Term: ct},
					},
					Then: Clause{Var: "y", Term: outs[(i*7)%4]},
				})
				i++
			}
		}
	}
	sys, err := NewSystem(y, rb, opts, a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// axesSystem is a d-input grid-shaped system: terms = 2 gives every axis
// two overlapping shoulders, terms = 3 a shoulder–triangle–shoulder
// partition, with breakpoints drawn per axis so single-term plateaus and
// two-term overlaps both occur.  The full AND rulebase maps combo i to one
// of four output terms; edit may reweight a rule, or drop it by returning
// false.
func axesSystem(t testing.TB, d, terms int, edit func(i int, r *Rule) bool) *System {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(100*d + terms)))
	inputs := make([]*Variable, d)
	for a := range inputs {
		lo, hi := -1-rng.Float64(), 1+rng.Float64()
		span := hi - lo
		p1 := lo + span*(0.15+0.1*rng.Float64())
		p2 := lo + span*(0.45+0.1*rng.Float64())
		p3 := lo + span*(0.75+0.1*rng.Float64())
		name := fmt.Sprintf("x%d", a)
		if terms == 2 {
			inputs[a] = MustVariable(name, lo, hi,
				Term{"l", ShoulderLeft(p1, p2)}, Term{"h", ShoulderRight(p1, p2)})
		} else {
			inputs[a] = MustVariable(name, lo, hi,
				Term{"l", ShoulderLeft(p1, p2)}, Term{"m", Tri(p1, p2, p3)}, Term{"h", ShoulderRight(p2, p3)})
		}
	}
	y := MustVariable("y", 0, 1,
		Term{"vl", Trap(0, 0, 0.2, 0.4)},
		Term{"lo", Tri(0.2, 0.4, 0.6)},
		Term{"lh", Tri(0.4, 0.6, 0.8)},
		Term{"hg", Trap(0.6, 1, 1, 1)},
	)
	var rb RuleBase
	combo := make([]int, d)
	for i := 0; ; i++ {
		r := Rule{Then: Clause{Var: "y", Term: y.TermNames()[(i*7)%4]}}
		for a, ti := range combo {
			r.If = append(r.If, Clause{Var: inputs[a].Name, Term: inputs[a].TermNames()[ti]})
		}
		if edit(i, &r) {
			rb.Add(r)
		}
		a := 0
		for ; a < d; a++ {
			if combo[a]++; combo[a] < terms {
				break
			}
			combo[a] = 0
		}
		if a == d {
			break
		}
	}
	sys, err := NewSystem(y, rb, Options{}, inputs...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// evalN is the reference the kernel's doubling walk must match bit for
// bit: for each of the 2^d segment-term combos it computes the d-way min
// from the neutral 1.0 on its own, then folds it with compare-and-branch
// into the System's dense rule grid (outTerm, weight), not the kernel's
// rule table, so a wrong rewrite of that table cannot pass it.  Only the
// segment tables come from the kernel; compileSegment validates those
// against the membership functions.
func evalN(cs *CompiledSurface, xs []float64) (float64, error) {
	k, grid := cs.kern, cs.sys.grid
	d := k.dims
	var g [kernelMaxAxes][2]float64
	var b [kernelMaxAxes][2]int32
	for a := 0; a < d; a++ {
		sg, x := k.axes[a].find(xs[a])
		g[a][0] = (x-sg.f0.p)*sg.f0.r + sg.f0.c
		g[a][1] = (x-sg.f1.p)*sg.f1.r + sg.f1.c
		b[a][0] = sg.b0
		b[a][1] = sg.b1
	}
	var act [kernelMaxOutTerms]float64
	for combo := 0; combo < 1<<d; combo++ {
		m := 1.0 // neutral for min over grades in [0, 1]
		idx := int32(0)
		for a := 0; a < d; a++ {
			s := (combo >> a) & 1
			if v := g[a][s]; v < m {
				m = v
			}
			idx += b[a][s]
		}
		if ot := grid.outTerm[idx]; ot >= 0 {
			if m *= grid.weight[idx]; m > act[ot] {
				act[ot] = m
			}
		}
	}
	var num, den float64
	for i, m := range cs.sys.outMid {
		if a := act[i]; a > 0 {
			num += a * m
			den += a
		}
	}
	if den == 0 {
		return 0, ErrNoActivation
	}
	return num / den, nil
}

// kernelRowMismatch checks one NaN-free row: Evaluate and the batch
// answer for the row must equal evalN bit for bit and stay within 1e-9
// of the exact path, or all four must agree that no rule fires (the
// batch marking the row NaN).  It returns what differs ("" when nothing
// does) and whether no rule fired.
func kernelRowMismatch(cs *CompiledSurface, sc *Scratch, row []float64, batch float64) (string, bool) {
	want, wantErr := evalN(cs, row)
	got, err := cs.Evaluate(row)
	copy(sc.Xs(), row)
	exact, exactErr := cs.sys.EvaluateInto(sc, sc.Xs())
	if wantErr != nil {
		if !errors.Is(wantErr, ErrNoActivation) || !errors.Is(err, ErrNoActivation) ||
			!errors.Is(exactErr, ErrNoActivation) || !math.IsNaN(batch) {
			return fmt.Sprintf("oracle err %v, walk err %v, exact err %v, batch %g",
				wantErr, err, exactErr, batch), true
		}
		return "", true
	}
	if err != nil || exactErr != nil {
		return fmt.Sprintf("walk err %v, exact err %v, oracle fired", err, exactErr), false
	}
	if math.Float64bits(got) != math.Float64bits(want) || math.Float64bits(batch) != math.Float64bits(want) {
		return fmt.Sprintf("walk %v, batch %v, oracle %v", got, batch, want), false
	}
	if e := math.Abs(exact - got); !(e <= 1e-9) {
		return fmt.Sprintf("walk %g vs exact %g (|Δ| %g)", got, exact, e), false
	}
	return "", false
}

// axisSpecials lists the inputs of one axis where flank grades are
// exactly 0 or 1: the universe ends, every finite membership breakpoint,
// and ±0.
func axisSpecials(v *Variable) []float64 {
	out := []float64{v.Min, v.Max, 0, math.Copysign(0, -1)}
	for _, t := range v.Terms {
		var pts []float64
		switch m := t.MF.(type) {
		case Triangular:
			pts = []float64{m.A, m.B, m.C}
		case Trapezoidal:
			pts = []float64{m.A, m.B, m.C, m.D}
		}
		for _, p := range pts {
			if !math.IsInf(p, 0) {
				out = append(out, p)
			}
		}
	}
	return out
}

// randomInputs fills xs with uniform samples over (and slightly beyond)
// each input universe, exercising the clamp path too.
func randomInputs(sys *System, rng *rand.Rand, xs []float64) {
	for i, v := range sys.Inputs() {
		span := v.Max - v.Min
		xs[i] = v.Min - 0.05*span + rng.Float64()*1.1*span
	}
}

// maxAbsError sweeps n random points and returns the maximum
// |compiled − exact|.
func maxAbsError(t *testing.T, sys *System, cs *CompiledSurface, n int, seed int64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sc := sys.NewScratch()
	xs := sc.Xs()
	probe := make([]float64, len(xs))
	maxErr := 0.0
	for i := 0; i < n; i++ {
		randomInputs(sys, rng, probe)
		copy(xs, probe)
		exact, exactErr := sys.EvaluateInto(sc, xs)
		got, compErr := cs.Evaluate(probe)
		if (exactErr == nil) != (compErr == nil) {
			t.Fatalf("at %v: exact err %v, compiled err %v", probe, exactErr, compErr)
		}
		if exactErr != nil {
			continue // both agree no rule fires (incomplete-grid dead zone)
		}
		if e := math.Abs(exact - got); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestCompiledKernelSelectedForGridShape(t *testing.T) {
	sys := paperShapedSystem(t, Options{})
	cs, err := CompileSurface(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsError(t, sys, cs, 1000, 2); got > 1e-12 {
		t.Fatalf("exact kernel max abs error %g, want ≈ 0", got)
	}
}

// TestCompiledProbeFailsOnMismatch: the construction probe refuses a
// kernel that disagrees with its system.  A kernel compiled from the
// min/max system, probed against its product-norm twin, must fail; the
// same kernel passes against its own system.
func TestCompiledProbeFailsOnMismatch(t *testing.T) {
	sys := paperShapedSystem(t, Options{})
	kern, err := compileKernel(sys)
	if err != nil {
		t.Fatal(err)
	}
	twin := paperShapedSystem(t, Options{AndNorm: ProductNorm, OrNorm: ProbSumNorm})
	mismatched := &CompiledSurface{sys: twin, dims: len(twin.inputs), kern: kern}
	if err := mismatched.probeKernel(); err == nil {
		t.Fatal("probe accepted a min/max kernel against the product-norm system")
	}
	own := &CompiledSurface{sys: sys, dims: len(sys.inputs), kern: kern}
	if err := own.probeKernel(); err != nil {
		t.Fatalf("probe rejected the kernel against its own system: %v", err)
	}
}

func TestCompiledKernelMatchesExact(t *testing.T) {
	sys := paperShapedSystem(t, Options{})
	cs, err := CompileSurface(sys)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsError(t, sys, cs, 20000, 1); got > 1e-12 {
		t.Fatalf("kernel max abs error %g exceeds 1e-12", got)
	}
}

func TestCompiledRejectsUnboundableOperatorSet(t *testing.T) {
	// The kernel reproduces min/max inference with height
	// defuzzification only: every other operator set fails compilation,
	// and callers keep the exact path.
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"product-norm", Options{AndNorm: ProductNorm, OrNorm: ProbSumNorm}},
		{"lukasiewicz", Options{AndNorm: LukasiewiczNorm, OrNorm: BoundedSumNorm}},
		{"centroid", Options{Defuzzifier: Centroid{Samples: 64}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if cs, err := CompileSurface(paperShapedSystem(t, tc.opts)); err == nil || cs != nil {
				t.Fatalf("ineligible operator set compiled: surface %v, err %v", cs, err)
			}
		})
	}
}

func TestCompiledRandomPerturbations(t *testing.T) {
	// Random partition perturbations: jittered shoulder–triangle–shoulder
	// partitions compile to the kernel and must stay within 1e-12 of
	// exact.
	rng := rand.New(rand.NewSource(99))
	jitterVar := func(name string, lo, hi float64) *Variable {
		span := hi - lo
		p1 := lo + span*(0.25+0.1*rng.Float64())
		p2 := lo + span*(0.55+0.1*rng.Float64())
		return MustVariable(name, lo, hi,
			Term{"l", ShoulderLeft(p1, p2)},
			Term{"m", Tri(p1, p2, hi)},
			Term{"h", ShoulderRight(p2, hi)},
		)
	}
	for trial := 0; trial < 6; trial++ {
		a := jitterVar("a", -5+rng.Float64(), 5+rng.Float64())
		b := jitterVar("b", 0, 1+rng.Float64())
		c := jitterVar("c", -1-rng.Float64(), 0)
		y := MustVariable("y", 0, 1,
			Term{"s", Tri(0, 0, 0.5)},
			Term{"m", Tri(0.25, 0.5, 0.75)},
			Term{"l", Tri(0.5, 1, 1)},
		)
		var rb RuleBase
		i := 0
		for _, at := range a.TermNames() {
			for _, bt := range b.TermNames() {
				for _, ct := range c.TermNames() {
					rb.Add(Rule{
						If:   []Clause{{Var: "a", Term: at}, {Var: "b", Term: bt}, {Var: "c", Term: ct}},
						Then: Clause{Var: "y", Term: y.TermNames()[(i*5)%3]},
					})
					i++
				}
			}
		}
		sys, err := NewSystem(y, rb, Options{}, a, b, c)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := CompileSurface(sys)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxAbsError(t, sys, cs, 3000, int64(trial)); got > 1e-12 {
			t.Fatalf("trial %d: max abs error %g exceeds 1e-12", trial, got)
		}
	}
}

func TestCompiledRejectsNaNAndShapes(t *testing.T) {
	cs, err := CompileSurface(paperShapedSystem(t, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	for _, xs := range [][]float64{
		{1, 2},                  // short input vector
		{math.NaN(), -100, 0.5}, // NaN on the first axis
		{0, math.NaN(), 0.5},    // NaN on an inner axis
	} {
		if _, err := cs.Evaluate(xs); err == nil {
			t.Errorf("Evaluate accepted %v", xs)
		}
	}
	dst := make([]float64, 2)
	if err := cs.EvaluateBatch(dst, [][]float64{{0, 1}, {-100, math.NaN()}, {0.5, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(dst[0]) || !math.IsNaN(dst[1]) {
		t.Errorf("batch NaN marking wrong: got %v", dst)
	}
	for _, cols := range [][][]float64{
		{{0}, {-100, -90}, {0.5, 0.5}}, // mismatched column lengths
		{{0, 1}, {-100, -90}},          // missing column
	} {
		if err := cs.EvaluateBatch(dst, cols); err == nil {
			t.Errorf("EvaluateBatch accepted columns %v", cols)
		}
	}
}

// namedSurface is one compiled surface a query test runs on.
type namedSurface struct {
	name string
	cs   *CompiledSurface
}

// compiledSurfaces are the inputs of the query tests: the paper-shaped
// kernel and a 4-axis kernel.
func compiledSurfaces(t *testing.T) []namedSurface {
	t.Helper()
	var out []namedSurface
	for _, c := range []struct {
		name string
		sys  *System
	}{
		{"kernel/d=3", paperShapedSystem(t, Options{})},
		{"kernel/d=4", axesSystem(t, 4, 3, func(int, *Rule) bool { return true })},
	} {
		cs, err := CompileSurface(c.sys)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, namedSurface{c.name, cs})
	}
	return out
}

// spreadColumns fills n rows per input axis, spread over (and slightly
// beyond) each universe.
func spreadColumns(cs *CompiledSurface, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	sys := cs.System()
	cols := make([][]float64, cs.NumInputs())
	for a := range cols {
		cols[a] = make([]float64, n)
	}
	row := make([]float64, len(cols))
	for i := 0; i < n; i++ {
		randomInputs(sys, rng, row)
		for a := range cols {
			cols[a][i] = row[a]
		}
	}
	return cols
}

func TestCompiledBatchMatchesSingle(t *testing.T) {
	for _, tc := range compiledSurfaces(t) {
		t.Run(tc.name, func(t *testing.T) {
			const n = 257
			cols := spreadColumns(tc.cs, n, 5)
			dst := make([]float64, n)
			if err := tc.cs.EvaluateBatch(dst, cols); err != nil {
				t.Fatal(err)
			}
			row := make([]float64, len(cols))
			for i := 0; i < n; i++ {
				for a := range cols {
					row[a] = cols[a][i]
				}
				want, err := tc.cs.Evaluate(row)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("row %d %v: batch %g ≠ single %g", i, row, dst[i], want)
				}
			}
		})
	}
}

func TestCompiledQueriesAllocationFree(t *testing.T) {
	for _, tc := range compiledSurfaces(t) {
		const n = 64
		cols := spreadColumns(tc.cs, n, 8)
		dst := make([]float64, n)
		xs := make([]float64, len(cols))
		for a := range cols {
			xs[a] = cols[a][0]
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := tc.cs.Evaluate(xs); err != nil {
				t.Fatal(err)
			}
			if err := tc.cs.EvaluateBatch(dst, cols); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %g allocs per query round, want 0", tc.name, allocs)
		}
	}
}

func TestCompiledKernelWalkMatchesOracle(t *testing.T) {
	// The doubling walk must reproduce the per-combo oracle bit for bit —
	// scalar and batch; complete, holed and weighted tables; 2 to 8 axes
	// and the paper's shape — and agree with the exact path on values and
	// on ErrNoActivation.
	tables := []struct {
		name string
		edit func(i int, r *Rule) bool
	}{
		{"complete", func(int, *Rule) bool { return true }},
		{"hole", func(i int, _ *Rule) bool { return i != 0 }}, // the all-first-terms combo
		{"weighted", func(i int, r *Rule) bool { r.Weight = float64(i%4+1) / 4; return true }},
	}
	type walkCase struct {
		name, table string
		sys         func(t *testing.T) *System
	}
	var cases []walkCase
	for _, d := range []int{2, 3, 4, 5, 8} {
		terms := 3
		if d == 8 {
			terms = 2 // 3^8 combos exceed the dense rule table
		}
		for _, tc := range tables {
			cases = append(cases, walkCase{fmt.Sprintf("d=%d/%s", d, tc.name), tc.name,
				func(t *testing.T) *System { return axesSystem(t, d, terms, tc.edit) }})
		}
	}
	// The paper's universes and term shapes: shoulders, unequal triangles.
	cases = append(cases, walkCase{"paper-shaped", "complete",
		func(t *testing.T) *System { return paperShapedSystem(t, Options{}) }})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := tc.sys(t)
			d := len(sys.Inputs())
			cs, err := CompileSurface(sys)
			if err != nil {
				t.Fatal(err)
			}
			const n = 4096
			rng := rand.New(rand.NewSource(int64(d)))
			cols := make([][]float64, d)
			for a := range cols {
				cols[a] = make([]float64, n)
			}
			// Rows 2… sit on the axis breakpoints and at ±0, where flank
			// grades are exactly zero: the first pass puts axis a on its
			// ((k + a) mod len)-th value, so every value of every axis
			// appears; the next three passes mix them at random.
			specials := make([][]float64, d)
			most := 0
			for a, v := range sys.Inputs() {
				specials[a] = axisSpecials(v)
				most = max(most, len(specials[a]))
			}
			row := make([]float64, d)
			for i := 0; i < n; i++ {
				randomInputs(sys, rng, row)
				for a, v := range sys.Inputs() {
					switch k, sp := i-2, specials[a]; {
					case i == 0: // far below every universe: the all-first-terms corner
						row[a] = v.Min - 3*(v.Max-v.Min)
					case i == 1:
						row[a] = v.Max + 3*(v.Max-v.Min)
					case k < most:
						row[a] = sp[(k+a)%len(sp)]
					case k < 4*most:
						row[a] = sp[rng.Intn(len(sp))]
					}
					cols[a][i] = row[a]
				}
			}
			dst := make([]float64, n)
			if err := cs.EvaluateBatch(dst, cols); err != nil {
				t.Fatal(err)
			}
			sc := sys.NewScratch()
			noRule := 0
			for i := range dst {
				for a := range row {
					row[a] = cols[a][i]
				}
				msg, none := kernelRowMismatch(cs, sc, row, dst[i])
				if msg != "" {
					t.Fatalf("row %d %v: %s", i, row, msg)
				}
				if none {
					noRule++
				}
			}
			if (noRule > 0) != (tc.table == "hole") {
				t.Fatalf("%d rows fired no rule on the %s table", noRule, tc.table)
			}
		})
	}
}

// FuzzCompiledKernel drives the kernel with arbitrary rows on the
// paper-shaped system and on 4-axis complete, holed and weighted tables
// (sel picks one; a 3-axis system ignores x3).  A row with a NaN must be
// rejected: Evaluate errs and the batch marks it NaN.  Every other row —
// ±Inf and out-of-universe values clamp — must pass kernelRowMismatch:
// scalar and batch bit-identical to evalN, within 1e-9 of the exact path,
// and the same ErrNoActivation verdict on all of them.
func FuzzCompiledKernel(f *testing.F) {
	var surfaces []*CompiledSurface
	for _, sys := range []*System{
		paperShapedSystem(f, Options{}),
		axesSystem(f, 4, 3, func(int, *Rule) bool { return true }),
		axesSystem(f, 4, 3, func(i int, _ *Rule) bool { return i != 0 }),
		axesSystem(f, 4, 3, func(i int, r *Rule) bool { r.Weight = float64(i%4+1) / 4; return true }),
	} {
		cs, err := CompileSurface(sys)
		if err != nil {
			f.Fatal(err)
		}
		surfaces = append(surfaces, cs)
	}
	negZero := math.Copysign(0, -1)
	f.Add(uint8(0), -3.5, -93.7, 1.2, 0.0)
	f.Add(uint8(0), 0.0, -106.0, 0.75, 0.0)
	f.Add(uint8(1), negZero, 0.0, negZero, 1.0)
	f.Add(uint8(2), -1e300, math.Inf(-1), -50.0, -2.0) // the hole: no rule fires
	f.Add(uint8(2), 1e300, math.Inf(1), 50.0, 2.0)
	f.Add(uint8(3), 0.25, -0.5, 0.75, negZero)
	f.Add(uint8(3), 0.0, math.NaN(), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, sel uint8, x0, x1, x2, x3 float64) {
		cs := surfaces[int(sel)%len(surfaces)]
		row := []float64{x0, x1, x2, x3}[:cs.NumInputs()]
		cols := make([][]float64, len(row))
		for a, x := range row {
			cols[a] = []float64{x}
		}
		dst := []float64{0}
		if err := cs.EvaluateBatch(dst, cols); err != nil {
			t.Fatal(err)
		}
		if slices.ContainsFunc(row, math.IsNaN) {
			if _, err := cs.Evaluate(row); err == nil || !math.IsNaN(dst[0]) {
				t.Fatalf("%v: NaN row accepted: err %v, batch %g", row, err, dst[0])
			}
			return
		}
		if msg, _ := kernelRowMismatch(cs, cs.sys.NewScratch(), row, dst[0]); msg != "" {
			t.Fatalf("%v: %s", row, msg)
		}
	})
}

func TestCompiledIncompleteGridStillServes(t *testing.T) {
	// Remove one rule: the combo table gets a -1 hole, the kernel's
	// generic fold must skip it, and queries in regions where no rule
	// fires must fail with ErrNoActivation exactly like the exact path.
	sys := paperShapedSystem(t, Options{})
	rb := sys.Rules()
	var sparse RuleBase
	for i, r := range rb.Rules {
		if i == 0 {
			continue
		}
		sparse.Add(r)
	}
	sys2, err := NewSystem(sys.Output(), sparse, Options{}, sys.Inputs()...)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := CompileSurface(sys2)
	if err != nil {
		t.Fatal(err)
	}
	if got := maxAbsError(t, sys2, cs, 10000, 6); got > 1e-12 {
		t.Fatalf("incomplete-grid kernel max abs error %g exceeds 1e-12", got)
	}
	// The removed rule is the all-first-terms combo: deep in that corner
	// nothing fires, and the batch marks the row NaN.
	sc := sys2.NewScratch()
	_, exactErr := sys2.EvaluateInto(sc, []float64{-10, -120, 0})
	_, compErr := cs.Evaluate([]float64{-10, -120, 0})
	if !errors.Is(exactErr, ErrNoActivation) || !errors.Is(compErr, ErrNoActivation) {
		t.Fatalf("no-rule corner: exact err %v, compiled err %v", exactErr, compErr)
	}
	dst := make([]float64, 2)
	if err := cs.EvaluateBatch(dst, [][]float64{{-10, 0}, {-120, -100}, {0, 0.5}}); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dst[0]) || math.IsNaN(dst[1]) {
		t.Fatalf("no-rule corner: batch %v, want [NaN, finite]", dst)
	}
}
