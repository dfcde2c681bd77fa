// Command hosurface dumps an FLC control surface: the crisp HD output over
// a 2-D grid of two inputs with the remaining inputs held fixed.  The
// output is CSV (x, y, hd) by default, or an ASCII density map with -ascii.
//
// The variable set is derived from the selected controller's inference
// system, so the 4-input trend controller works unchanged: any two of its
// inputs span the grid and the rest are pinned with -fixed.
//
// Usage:
//
//	hosurface -x DMB -y SSN -fixed -3.0              # CSSP fixed at -3 dB
//	hosurface -x CSSP -y DMB -fixed -95 -ascii
//	hosurface -algo trendfuzzy -x TREND -y SSN -fixed CSSP=-3,DMB=0.5
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	fuzzyho "repro"
)

// glyphRamp maps HD ∈ [0,1] to a density glyph; '#' marks the handover
// region above the 0.7 threshold.
const glyphRamp = " .:-=+*%#"

func main() {
	var (
		algo  = flag.String("algo", "fuzzy", "controller surface to dump: fuzzy (3-input paper FLC) or trendfuzzy (4-input SSN-trend FLC)")
		xVar  = flag.String("x", "DMB", "x-axis input variable")
		yVar  = flag.String("y", "SSN", "y-axis input variable")
		fixed = flag.String("fixed", "-3", "remaining inputs: a single value when one input remains, or NAME=value pairs (comma-separated)")
		cols  = flag.Int("cols", 41, "grid columns")
		rows  = flag.Int("rows", 21, "grid rows")
		ascii = flag.Bool("ascii", false, "render an ASCII density map instead of CSV")
	)
	flag.Parse()

	sys, err := systemFor(*algo)
	if err != nil {
		fatal(err)
	}
	if *xVar == *yVar {
		fatal(fmt.Errorf("x and y must differ, both are %q", *xVar))
	}
	remaining, err := remainingVariables(sys, *xVar, *yVar)
	if err != nil {
		fatal(err)
	}
	pinned, err := parseFixed(*fixed, remaining)
	if err != nil {
		fatal(err)
	}

	xs, ys, surface, err := sys.ControlSurface(*xVar, *yVar, *cols, *rows, pinned)
	if err != nil {
		fatal(err)
	}

	if *ascii {
		fmt.Printf("HD(%s, %s) with %s   (# = handover region, HD > %g)\n",
			*xVar, *yVar, formatPinned(pinned), fuzzyho.HandoverThreshold)
		for r := len(surface) - 1; r >= 0; r-- {
			var b strings.Builder
			for c := range surface[r] {
				hd := surface[r][c]
				if hd > fuzzyho.HandoverThreshold {
					b.WriteByte('#')
					continue
				}
				i := int(hd * float64(len(glyphRamp)-1))
				b.WriteByte(glyphRamp[i])
			}
			fmt.Printf("%8.2f |%s|\n", ys[r], b.String())
		}
		fmt.Printf("%8s  %-8.2f%*s\n", "", xs[0], *cols-8, fmt.Sprintf("%.2f", xs[len(xs)-1]))
		fmt.Printf("%8s  (%s →)\n", "", *xVar)
		return
	}

	fmt.Printf("%s,%s,HD\n", *xVar, *yVar)
	for r := range surface {
		for c := range surface[r] {
			fmt.Printf("%g,%g,%.4f\n", xs[c], ys[r], surface[r][c])
		}
	}
}

// systemFor resolves the algorithm selector to its inference system.
func systemFor(algo string) (*fuzzyho.InferenceSystem, error) {
	switch algo {
	case "fuzzy", "":
		return fuzzyho.NewFLC().System(), nil
	case "trendfuzzy":
		t, err := fuzzyho.NewTrendFuzzy()
		if err != nil {
			return nil, err
		}
		return t.Controller().FLC().System(), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (want fuzzy or trendfuzzy)", algo)
	}
}

// remainingVariables validates x and y against the system's input
// variables and returns the names left to pin, in declaration order.
func remainingVariables(sys *fuzzyho.InferenceSystem, x, y string) ([]string, error) {
	inputs := sys.Inputs()
	names := make([]string, len(inputs))
	valid := make(map[string]bool, len(inputs))
	for i, v := range inputs {
		names[i] = v.Name
		valid[v.Name] = true
	}
	if !valid[x] || !valid[y] {
		return nil, fmt.Errorf("variables must be one of %s (got %q, %q)",
			strings.Join(names, ", "), x, y)
	}
	var remaining []string
	for _, n := range names {
		if n != x && n != y {
			remaining = append(remaining, n)
		}
	}
	return remaining, nil
}

// parseFixed maps the -fixed flag onto the remaining input variables: a
// bare number pins a lone remaining variable; NAME=value pairs pin any
// number of them, and every remaining variable must be covered.
func parseFixed(spec string, remaining []string) (map[string]float64, error) {
	pinned := make(map[string]float64, len(remaining))
	if v, err := strconv.ParseFloat(strings.TrimSpace(spec), 64); err == nil {
		if len(remaining) != 1 {
			return nil, fmt.Errorf("-fixed %q pins one variable but %d remain (%s); use NAME=value pairs",
				spec, len(remaining), strings.Join(remaining, ", "))
		}
		pinned[remaining[0]] = v
		return pinned, nil
	}
	want := make(map[string]bool, len(remaining))
	for _, n := range remaining {
		want[n] = true
	}
	for _, pair := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		if !ok {
			return nil, fmt.Errorf("-fixed entry %q is not NAME=value", pair)
		}
		name = strings.TrimSpace(name)
		if !want[name] {
			return nil, fmt.Errorf("-fixed names %q, which is not a remaining variable (%s)",
				name, strings.Join(remaining, ", "))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("-fixed value for %s: %v", name, err)
		}
		if _, dup := pinned[name]; dup {
			return nil, fmt.Errorf("-fixed pins %s twice", name)
		}
		pinned[name] = v
	}
	for _, n := range remaining {
		if _, ok := pinned[n]; !ok {
			return nil, fmt.Errorf("-fixed leaves %s unpinned (remaining: %s)",
				n, strings.Join(remaining, ", "))
		}
	}
	return pinned, nil
}

// formatPinned renders the pinned assignments deterministically.
func formatPinned(pinned map[string]float64) string {
	names := make([]string, 0, len(pinned))
	for n := range pinned {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, n := range names {
		parts[i] = fmt.Sprintf("%s = %g", n, pinned[n])
	}
	return strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hosurface:", err)
	os.Exit(1)
}
