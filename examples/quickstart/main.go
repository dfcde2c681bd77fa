// Quickstart: evaluate fuzzy handover decisions with the paper's controller.
//
// The FLC takes three measurements — the change of the serving signal
// (CSSP, dB), the strongest neighbor's signal (SSN, dB) and the normalised
// distance from the serving base station (DMB, distance / cell radius) —
// and produces a handover-decision value HD in [0, 1].  The handover path
// is taken when HD exceeds 0.7.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	fuzzyho "repro"
)

func main() {
	flc := fuzzyho.NewFLC()

	scenarios := []struct {
		name           string
		cssp, ssn, dmb float64
	}{
		{"mid-cell, stable signal", -0.5, -100, 0.30},
		{"cell boundary, weak neighbor", -1.9, -102.5, 0.90},
		{"cell boundary, normal neighbor", -1.0, -93.0, 1.00},
		{"deep in neighbor cell", -3.5, -93.7, 1.20},
		{"signal collapsing, strong neighbor", -7.0, -85.0, 1.30},
		{"signal recovering (anti-ping-pong)", +8.0, -85.0, 1.20},
	}

	fmt.Printf("%-38s %8s %8s %6s  %6s  verdict\n", "scenario", "CSSP", "SSN", "DMB", "HD")
	for _, s := range scenarios {
		hd, err := flc.Evaluate(s.cssp, s.ssn, s.dmb)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "stay"
		if hd > fuzzyho.HandoverThreshold {
			verdict = "HANDOVER"
		}
		fmt.Printf("%-38s %8.1f %8.1f %6.2f  %6.3f  %s\n",
			s.name, s.cssp, s.ssn, s.dmb, hd, verdict)
	}

	// The full pipeline adds the POTLC quality gate (no handover machinery
	// while the serving signal is strong) and the PRTLC confirmation (only
	// hand over while the signal is still falling: here it fell from
	// −96.5 dB at the previous epoch to −98 dB).
	d, err := fuzzyho.NewFuzzyAlgorithm(nil).Decide(fuzzyho.Measurement{
		ServingDB:  -98.0,
		CSSPdB:     -3.5,
		NeighborDB: -93.7,
		DMBNorm:    1.2,
	}, -96.5, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nfull pipeline: handover=%v (%s, HD=%.3f)\n", d.Handover, d.Reason, d.Score)
}
