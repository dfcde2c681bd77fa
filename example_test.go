package fuzzyho_test

import (
	"fmt"

	fuzzyho "repro"
)

// ExampleNewFLC evaluates one handover decision with the paper's fuzzy
// logic controller.
func ExampleNewFLC() {
	flc := fuzzyho.NewFLC()
	// A terminal deep in a neighbor cell: serving signal fell 3.5 dB since
	// the last epoch, the neighbor reads −93.7 dB, and the terminal is 1.2
	// cell radii from its serving base station.
	hd, err := flc.Evaluate(-3.5, -93.7, 1.2)
	if err != nil {
		panic(err)
	}
	fmt.Printf("HD = %.3f, handover = %v\n", hd, hd > fuzzyho.HandoverThreshold)
	// Output:
	// HD = 0.867, handover = true
}

// ExampleNewController runs the full POTLC → FLC → threshold → PRTLC
// pipeline on the paper's controller configuration.
func ExampleNewController() {
	alg := fuzzyho.NewFuzzyAlgorithm(fuzzyho.NewController())
	// The same terminal as above, whose serving signal fell from −96.5 dB
	// at the previous epoch to −98 dB now.
	d, err := alg.Decide(fuzzyho.Measurement{
		ServingDB:  -98.0,
		CSSPdB:     -3.5,
		NeighborDB: -93.7,
		DMBNorm:    1.2,
	}, -96.5, true)
	if err != nil {
		panic(err)
	}
	fmt.Printf("handover=%v (%s, HD=%.3f)\n", d.Handover, d.Reason, d.Score)
	// Output:
	// handover=true (execute-handover, HD=0.867)
}

// ExampleParseRules builds a custom fuzzy system from the rule DSL.
func ExampleParseRules() {
	rules, err := fuzzyho.ParseRules(`
		IF load IS high THEN action IS shed
		IF load IS low  THEN action IS keep
	`)
	if err != nil {
		panic(err)
	}
	fmt.Println(rules.Len(), "rules")
	fmt.Println(rules.Rules[0])
	// Output:
	// 2 rules
	// IF load IS high THEN action IS shed
}

// ExampleErlangB computes the analytic blocking probability the QoS
// simulator is validated against.
func ExampleErlangB() {
	b, err := fuzzyho.ErlangB(10, 10) // 10 erlangs on 10 circuits
	if err != nil {
		panic(err)
	}
	fmt.Printf("blocking = %.3f\n", b)
	// Output:
	// blocking = 0.215
}

// ExampleParseFCL loads a controller from IEC 61131-7 Fuzzy Control
// Language text.
func ExampleParseFCL() {
	sys, err := fuzzyho.ParseFCL(`
		FUNCTION_BLOCK tiny
		VAR_INPUT  x : REAL; END_VAR
		VAR_OUTPUT y : REAL; END_VAR
		FUZZIFY x
			RANGE := (0 .. 1);
			TERM lo := (0, 1) (1, 0);
			TERM hi := (0, 0) (1, 1);
		END_FUZZIFY
		DEFUZZIFY y
			RANGE := (0 .. 1);
			TERM small := (0, 1) (0.5, 0);
			TERM large := (0.5, 0) (1, 1);
			METHOD : COGS;
		END_DEFUZZIFY
		RULEBLOCK main
			AND : MIN;
			RULE 1 : IF x IS lo THEN y IS small;
			RULE 2 : IF x IS hi THEN y IS large;
		END_RULEBLOCK
		END_FUNCTION_BLOCK
	`)
	if err != nil {
		panic(err)
	}
	out, err := sys.Evaluate(map[string]float64{"x": 0.8})
	if err != nil {
		panic(err)
	}
	fmt.Printf("y(0.8) = %.2f\n", out)
	// Output:
	// y(0.8) = 0.80
}
