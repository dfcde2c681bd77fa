package core

import (
	"math"
	"testing"
)

// TestFLCEvaluateIntoMatchesMapPath sweeps a dense grid of the Fig. 5 input
// universes (plus out-of-range overshoot) and requires the positional fast
// path to agree with the reference map path to 1e-12.
func TestFLCEvaluateIntoMatchesMapPath(t *testing.T) {
	flc := NewFLC()
	sys := flc.System()
	sc := flc.NewScratch()
	const n = 31
	grid := func(lo, hi float64, i int) float64 {
		span := hi - lo
		return lo - 0.1*span + 1.2*span*float64(i)/float64(n-1)
	}
	for i := 0; i < n; i++ {
		cssp := grid(CsspMin, CsspMax, i)
		for j := 0; j < n; j++ {
			ssn := grid(SsnMin, SsnMax, j)
			for k := 0; k < n; k++ {
				dmb := grid(DmbMin, DmbMax, k)
				cc, sc2, dc := Clamp(cssp, CsspMin, CsspMax), Clamp(ssn, SsnMin, SsnMax), Clamp(dmb, DmbMin, DmbMax)
				want, err := sys.Evaluate(map[string]float64{
					VarCSSP: cc, VarSSN: sc2, VarDMB: dc,
				})
				if err != nil {
					t.Fatal(err)
				}
				got, err := flc.EvaluateInto(sc, cssp, ssn, dmb)
				if err != nil {
					t.Fatal(err)
				}
				if math.Abs(want-got) > 1e-12 {
					t.Fatalf("FLC(%g, %g, %g): map %.17g, fast %.17g",
						cssp, ssn, dmb, want, got)
				}
			}
		}
	}
}

// TestFLCEvaluateMatchesEvaluateInto pins the pooled convenience wrapper to
// the explicit-scratch path.
func TestFLCEvaluateMatchesEvaluateInto(t *testing.T) {
	flc := NewFLC()
	sc := flc.NewScratch()
	for i := 0; i < 50; i++ {
		cssp := CsspMin + (CsspMax-CsspMin)*float64(i)/49
		a, err := flc.Evaluate(cssp, -95, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := flc.EvaluateInto(sc, cssp, -95, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("Evaluate %.17g != EvaluateInto %.17g at cssp=%g", a, b, cssp)
		}
	}
}

func TestFLCEvaluateIntoZeroAllocs(t *testing.T) {
	flc := NewFLC()
	sc := flc.NewScratch()
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := flc.EvaluateInto(sc, -3.5, -95+float64(i%10), 1.1); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Fatalf("FLC.EvaluateInto allocates %.1f times per call, want 0", allocs)
	}
}
