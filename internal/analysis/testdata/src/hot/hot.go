// Package hot is the hotpath analyzer fixture.  Lines carrying a
// `want:<analyzer>` marker must produce exactly that many findings of
// that analyzer; every other line must stay silent.
package hot

import (
	"errors"
	"fmt"
	"math"
)

// Cold is deliberately unannotated: hotpath callers (here and in the
// importing hotdep fixture) must be flagged for calling it.
func Cold(x int) int { return x + 1 }

type point struct{ x int }

var boxed any

// Step is hotpath and clean: an annotated callee and arithmetic only.
//
//fuzzyho:hotpath
func Step(x int) int { return mix(x) }

//fuzzyho:hotpath
func mix(x int) int { return x<<1 ^ x }

//fuzzyho:hotpath
func reset() {}

//fuzzyho:hotpath
func Bad(m map[int]int, f func() int, b []byte) int {
	defer reset()                // want:hotpath
	go reset()                   // want:hotpath
	g := func() int { return 1 } // want:hotpath
	_ = g
	s := 0
	for k := range m { // want:hotpath
		s += k
	}
	buf := make([]int, 4) // want:hotpath
	_ = buf
	xs := []int{1, 2} // want:hotpath
	_ = xs
	p := &point{x: 1} // want:hotpath
	_ = p
	s += f()         // want:hotpath
	str := string(b) // want:hotpath
	_ = str
	boxed = s                 // want:hotpath
	s += Cold(s)              // want:hotpath
	err := errors.New("boom") // want:hotpath
	_ = err
	err2 := fmt.Errorf("boom") // want:hotpath
	_ = err2
	s += int(math.Max(float64(s), 1)) // want:hotpath
	s += int(math.Abs(float64(s)))    // the rest of math stays allowed
	s += int(max(float64(s), 1))
	return s
}

// Waived shows //fuzzyho:allow suppressing a finding on its line.
//
//fuzzyho:hotpath
func Waived() []int {
	//fuzzyho:allow fixture: setup-time allocation, waived to test suppression
	return make([]int, 8)
}
