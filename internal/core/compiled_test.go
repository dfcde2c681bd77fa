package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fuzzy"
)

// randomFLCInputs draws raw (unclamped) measurement triples spanning and
// slightly exceeding the Fig. 5 universes.
func randomFLCInputs(rng *rand.Rand) (cssp, ssn, dmb float64) {
	return CsspMin - 2 + rng.Float64()*(CsspMax-CsspMin+4),
		SsnMin - 5 + rng.Float64()*(SsnMax-SsnMin+10),
		DmbMin - 0.2 + rng.Float64()*(DmbMax-DmbMin+0.4)
}

// TestFLCCompiledMatchesExact pins the acceptance accuracy criterion: the
// paper's FLC compiles to the exact kernel, and a random sweep of the
// universe stays within 1e-12 of per-decision Mamdani inference.  Compile
// returns a new FLC over the same system and leaves its receiver exact.
func TestFLCCompiledMatchesExact(t *testing.T) {
	exact := NewFLC()
	compiled, err := exact.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Surface() == nil || compiled.System() != exact.System() {
		t.Fatal("Compile did not return a compiled FLC over the same system")
	}
	if exact.Surface() != nil {
		t.Fatal("Compile installed a surface on its receiver")
	}
	const bound = 1e-12
	rng := rand.New(rand.NewSource(11))
	sc := exact.NewScratch()
	for i := 0; i < 50000; i++ {
		cssp, ssn, dmb := randomFLCInputs(rng)
		want, err := exact.EvaluateInto(sc, cssp, ssn, dmb)
		if err != nil {
			t.Fatal(err)
		}
		got, err := compiled.EvaluateInto(nil, cssp, ssn, dmb) // compiled path ignores the scratch
		if err != nil {
			t.Fatal(err)
		}
		if e := math.Abs(want - got); e > bound {
			t.Fatalf("at (%g, %g, %g): |%g − %g| = %g exceeds bound %g",
				cssp, ssn, dmb, got, want, e, bound)
		}
	}
}

// TestFLCCompiledAblationProfiles sweeps the compiled surface across the
// operator ablation profiles of the FLC.  The paper's operators compile to
// the kernel, and a random sweep stays within 1e-12 of exact.  Every
// other profile fails Compile and stays on the exact path: its scalar and
// batch answers equal a never-compiled twin's bit for bit.
func TestFLCCompiledAblationProfiles(t *testing.T) {
	profiles := []struct {
		name     string
		engine   fuzzy.Options
		compiles bool
	}{
		{"paper-default", fuzzy.Options{}, true},
		{"larsen", fuzzy.Options{AndNorm: fuzzy.ProductNorm, OrNorm: fuzzy.ProbSumNorm, Implication: fuzzy.ProductImplication}, false},
		{"hamacher", fuzzy.Options{AndNorm: fuzzy.HamacherNorm, OrNorm: fuzzy.ProbSumNorm}, false},
		{"centroid", fuzzy.Options{Defuzzifier: fuzzy.Centroid{Samples: 100}}, false},
		{"mean-of-maxima", fuzzy.Options{Defuzzifier: fuzzy.MeanOfMaxima()}, false},
	}
	for _, p := range profiles {
		t.Run(p.name, func(t *testing.T) {
			exact, err := NewFLCWithOptions(FLCOptions{Engine: p.engine})
			if err != nil {
				t.Fatal(err)
			}
			compiled, err := NewFLCWithOptions(FLCOptions{Engine: p.engine})
			if err != nil {
				t.Fatal(err)
			}
			// A failed Compile leaves the caller on its exact FLC.
			if c, err := compiled.Compile(); (err == nil) != p.compiles {
				t.Fatalf("Compile() error %v, want compiled = %v", err, p.compiles)
			} else if err == nil {
				compiled = c
			}
			// same reports whether compiled answers as the exact twin must:
			// within 1e-12 on the kernel, or bit for bit on the exact path.
			bound := 0.0
			if p.compiles {
				bound = 1e-12
			}
			same := func(want, got float64) bool {
				if !p.compiles {
					return math.Float64bits(want) == math.Float64bits(got)
				}
				return math.Abs(want-got) <= bound
			}
			const n = 3000
			var cols [3][]float64 // cssp, ssn, dmb
			rng := rand.New(rand.NewSource(7))
			sc, csc := exact.NewScratch(), compiled.NewScratch()
			for i := 0; i < n; i++ {
				cssp, ssn, dmb := randomFLCInputs(rng)
				cols[0], cols[1], cols[2] = append(cols[0], cssp), append(cols[1], ssn), append(cols[2], dmb)
				want, err1 := exact.EvaluateInto(sc, cssp, ssn, dmb)
				got, err2 := compiled.EvaluateInto(csc, cssp, ssn, dmb)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("at (%g, %g, %g): exact err %v, compiled err %v", cssp, ssn, dmb, err1, err2)
				}
				if err1 == nil && !same(want, got) {
					t.Fatalf("at (%g, %g, %g): compiled %g, exact %g (bound %g)", cssp, ssn, dmb, got, want, bound)
				}
			}
			// EvaluateBatch clamps its columns in place: each FLC gets a copy.
			batch := func(f *FLC) []float64 {
				dst := make([]float64, n)
				in := [3][]float64{}
				for a := range in {
					in[a] = append([]float64(nil), cols[a]...)
				}
				if err := f.EvaluateBatch(dst, in[0], in[1], in[2]); err != nil {
					t.Fatal(err)
				}
				return dst
			}
			want, got := batch(exact), batch(compiled)
			for i := range want {
				if !same(want[i], got[i]) {
					t.Fatalf("batch row %d: compiled %g, exact %g (bound %g)", i, got[i], want[i], bound)
				}
			}
		})
	}
}

// TestFLCEvaluateBatchMatchesScalar pins the columnar entry point against
// the scalar path on both the exact and compiled FLC, including the
// NaN-measurement policy (the FLC clamps NaN to the universe floor on
// both paths).
func TestFLCEvaluateBatchMatchesScalar(t *testing.T) {
	for _, compiled := range []bool{false, true} {
		flc := NewFLC()
		if compiled {
			var err error
			if flc, err = flc.Compile(); err != nil {
				t.Fatal(err)
			}
		}
		rng := rand.New(rand.NewSource(23))
		const n = 129
		cssp, ssn, dmb, dst := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			cssp[i], ssn[i], dmb[i] = randomFLCInputs(rng)
		}
		cssp[17] = math.NaN() // clamped to the universe floor, like the scalar path
		raw := [3][]float64{append([]float64(nil), cssp...), append([]float64(nil), ssn...), append([]float64(nil), dmb...)}
		if err := flc.EvaluateBatch(dst, cssp, ssn, dmb); err != nil {
			t.Fatal(err)
		}
		sc := flc.NewScratch()
		for i := 0; i < n; i++ {
			want, err := flc.EvaluateInto(sc, raw[0][i], raw[1][i], raw[2][i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dst[i]-want) > 1e-12 {
				t.Fatalf("compiled=%v row %d: batch %g ≠ scalar %g", compiled, i, dst[i], want)
			}
		}
		if err := flc.EvaluateBatch(dst[:3], cssp[:3], ssn[:2], dmb[:3]); err == nil {
			t.Fatal("mismatched column lengths accepted")
		}
	}
}

// TestDefaultCompiledFLCIsShared pins the process-wide singletons: every
// consumer (sim fleet cells, serve shards) must share one compiled kernel,
// compiled from the one exact paper FLC every default controller shares.
func TestDefaultCompiledFLCIsShared(t *testing.T) {
	a, err := DefaultCompiledFLC()
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultCompiledFLC()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("DefaultCompiledFLC returned distinct instances")
	}
	if a.Surface() == nil {
		t.Fatal("DefaultCompiledFLC returned an FLC without a compiled surface")
	}
	exact := NewController().FLC()
	if exact != NewController().FLC() || exact != defaultFLC() {
		t.Fatal("default controllers do not share one FLC")
	}
	if exact.Surface() != nil || a.System() != exact.System() {
		t.Fatal("DefaultCompiledFLC is not the shared exact FLC compiled")
	}
}
