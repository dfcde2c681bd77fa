// Package core implements the paper's primary contribution: the fuzzy-based
// handover system of Barolli et al. (ICPP-W 2008) — the FLC with the Fig. 5
// linguistic variables and the 64-rule FRB of Table 1, and the Controller
// configuration (threshold, POTLC gate level, PRTLC flag) that
// handover.Fuzzy runs as the POTLC → FLC → threshold → PRTLC pipeline of
// Fig. 4.
package core

import (
	"math"

	"repro/internal/fuzzy"
)

// Linguistic variable and term names, exactly as printed in the paper.
const (
	// VarCSSP is the change of the signal strength of the present BS [dB].
	VarCSSP = "CSSP"
	// VarSSN is the signal strength from the neighbor BS [dB].
	VarSSN = "SSN"
	// VarDMB is the distance of the MS from the BS, normalised by the cell
	// radius (DESIGN.md §3 documents the normalisation).
	VarDMB = "DMB"
	// VarHD is the handover-decision output in [0, 1].
	VarHD = "HD"
)

// T(CSSP) = {Small, Little Change, No Change, Big}.
const (
	CsspSM = "SM"
	CsspLC = "LC"
	CsspNC = "NC"
	CsspBG = "BG"
)

// T(SSN) = {Weak, Not So Weak, Normal, Strong}.
const (
	SsnWK  = "WK"
	SsnNSW = "NSW"
	SsnNO  = "NO"
	SsnST  = "ST"
)

// T(DMB) = {Near, Not So Near, Not So Far, Far}.
const (
	DmbNR  = "NR"
	DmbNSN = "NSN"
	DmbNSF = "NSF"
	DmbFA  = "FA"
)

// T(HD) = {Very Low, Low, Little High, High}.
const (
	HdVL = "VL"
	HdLO = "LO"
	HdLH = "LH"
	HdHG = "HG"
)

// Universe bounds, from the Fig. 5 axis marks.
const (
	CsspMin = -10.0
	CsspMax = 10.0
	SsnMin  = -120.0
	SsnMax  = -80.0
	DmbMin  = 0.0
	DmbMax  = 1.5
	HdMin   = 0.0
	HdMax   = 1.0
)

// NewCSSP returns the CSSP input variable: a Ruspini partition over
// [-10, 10] dB anchored on the printed marks (-10, 0, 10), with the NC
// ("no change") peak at 0 as drawn.
func NewCSSP() *fuzzy.Variable {
	return fuzzy.MustVariable(VarCSSP, CsspMin, CsspMax,
		fuzzy.Term{Name: CsspSM, MF: fuzzy.ShoulderLeft(-10, -5)},
		fuzzy.Term{Name: CsspLC, MF: fuzzy.Tri(-10, -5, 0)},
		fuzzy.Term{Name: CsspNC, MF: fuzzy.Tri(-5, 0, 10)},
		fuzzy.Term{Name: CsspBG, MF: fuzzy.ShoulderRight(0, 10)},
	)
}

// NewSSN returns the SSN input variable: a Ruspini partition over
// [-120, -80] dB with evenly spaced interior peaks, anchored on the printed
// -120 and -80 edges.
func NewSSN() *fuzzy.Variable {
	const third = (SsnMax - SsnMin) / 3 // 13.33 dB
	return fuzzy.MustVariable(VarSSN, SsnMin, SsnMax,
		fuzzy.Term{Name: SsnWK, MF: fuzzy.ShoulderLeft(SsnMin, SsnMin+third)},
		fuzzy.Term{Name: SsnNSW, MF: fuzzy.Tri(SsnMin, SsnMin+third, SsnMin+2*third)},
		fuzzy.Term{Name: SsnNO, MF: fuzzy.Tri(SsnMin+third, SsnMin+2*third, SsnMax)},
		fuzzy.Term{Name: SsnST, MF: fuzzy.ShoulderRight(SsnMin+2*third, SsnMax)},
	)
}

// NewDMB returns the DMB input variable over [0, 1.5] (distance / cell
// radius), anchored on the printed marks 0.25, 0.4, 0.75, 0.8 and 1.
func NewDMB() *fuzzy.Variable {
	return fuzzy.MustVariable(VarDMB, DmbMin, DmbMax,
		fuzzy.Term{Name: DmbNR, MF: fuzzy.ShoulderLeft(0.25, 0.4)},
		fuzzy.Term{Name: DmbNSN, MF: fuzzy.Tri(0.25, 0.4, 0.75)},
		fuzzy.Term{Name: DmbNSF, MF: fuzzy.Tri(0.4, 0.75, 1.0)},
		fuzzy.Term{Name: DmbFA, MF: fuzzy.ShoulderRight(0.8, 1.0)},
	)
}

// NewHD returns the HD output variable over [0, 1], anchored on the printed
// marks 0.2, 0.4, 0.6 and 1.
func NewHD() *fuzzy.Variable {
	return fuzzy.MustVariable(VarHD, HdMin, HdMax,
		fuzzy.Term{Name: HdVL, MF: fuzzy.Trap(0, 0, 0.2, 0.4)},
		fuzzy.Term{Name: HdLO, MF: fuzzy.Tri(0.2, 0.4, 0.6)},
		fuzzy.Term{Name: HdLH, MF: fuzzy.Tri(0.4, 0.6, 0.8)},
		fuzzy.Term{Name: HdHG, MF: fuzzy.Trap(0.6, 1, 1, 1)},
	)
}

// Clamp bounds x to [lo, hi], mapping NaN to lo: the saturation every
// decision-path input gets before the FLC or the compiled surface sees it
// (the SSN-trend antecedent included).  The builtin min and max give the
// NaN, ±0 and ±Inf results of math.Min and math.Max and inline; on amd64
// math's versions call assembly the compiler cannot inline.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func Clamp(x, lo, hi float64) float64 {
	if math.IsNaN(x) {
		return lo
	}
	return min(max(x, lo), hi)
}
