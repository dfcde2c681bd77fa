// Command hobench is the repository's performance gate.  It runs the
// benchmark BENCHMARK.json declares on a base revision and on the working
// tree, and judges every end-to-end metric of every workload against the
// bound BENCHMARK.json fixes for it:
//
//	make bench-ab BASE=<rev>        # go run ./cmd/hobench <rev>
//
// Run it from the repository root.  BASE is checked out into a git
// worktree under .bench_build/; the change side is the working tree, so
// uncommitted edits are measured.  Each side builds and runs its own
// perfbench: per workload, 10 runs per side on seeds 1–10 with
// run_seconds and --trace 0, alternating which side goes first.  "Worse"
// follows each metric's better direction, as the relative change of the
// change's median against the base's.  Per (workload, metric):
//
//	REGRESSION  worse by more than the metric's bound
//	unresolved  otherwise, the base runs' IQR/median exceeds the bound,
//	            unless every change run reads better than every base run
//	gain        the change wins ≥ 9 of 10 pairs (ties count for neither)
//	            and its median is better by more than the base IQR
//	parity      everything else
//
// It prints FAIL and exits 1 on any REGRESSION, on any run that exits
// nonzero (perfbench exits 3 when an open-loop generator ran late) or
// lacks "correct": true, and on a workload whose change side fails a
// larger share of its attempted operations than the base side; otherwise
// PASS.  One invocation takes about 30 minutes on a 2-vCPU box.
//
// After each workload's verdicts a host.ref_ns row prints each side's
// median of perfbench's host reference readings, taken at the start and
// the end of every run.  The reading times a fixed loop that runs no
// program code, so a side whose readings moved ran on a faster or slower
// box, whatever the code.  The row is for reading a verdict, and judges
// nothing.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

const (
	pairs     = 10 // runs per side and workload, seeds 1…pairs
	minWins   = 9  // pairs the change must win for a gain
	benchFile = "BENCHMARK.json"
	baseTree  = ".bench_build/ab-base" // BASE's worktree
)

// metric is one BENCHMARK.json end-to-end metric.
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmark is the part of BENCHMARK.json the gate reads.
type benchmark struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

func parseBenchmark(blob []byte) (benchmark, error) {
	var b benchmark
	if err := json.Unmarshal(blob, &b); err != nil {
		return b, fmt.Errorf("%s: %w", benchFile, err)
	}
	if len(b.Command) == 0 || b.RunSeconds < 1 || len(b.Workloads) == 0 || len(b.EndToEnd) == 0 {
		return b, fmt.Errorf("%s: needs a command, run_seconds, workloads and end_to_end metrics", benchFile)
	}
	for _, m := range b.EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || !(m.Bound > 0) {
			return b, fmt.Errorf("%s: metric %q needs better higher or lower and a positive bound", benchFile, m.Name)
		}
	}
	return b, nil
}

// side is one side's runs of one workload.
type side struct {
	values            [][]float64 // by metric, then by seed
	attempted, failed float64
	// refStart/refEnd are the runs' host.ref_ns readings (see the package
	// comment), from the detail line of the runs that carry one.
	refStart, refEnd []float64
}

// add reads the result line perfbench prints last, and the host readings
// of its detail line.  A result that is not correct, or that lacks a
// metric, is an error: a missing value is not a zero.
func (s *side) add(stdout []byte, ms []metric) error {
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	for _, l := range lines {
		var detail struct {
			Notes struct {
				Ref []float64 `json:"host.ref_ns"`
			} `json:"notes"`
		}
		if js, ok := bytes.CutPrefix(l, []byte("detail ")); ok && json.Unmarshal(js, &detail) == nil && len(detail.Notes.Ref) == 2 {
			s.refStart = append(s.refStart, detail.Notes.Ref[0])
			s.refEnd = append(s.refEnd, detail.Notes.Ref[1])
		}
	}
	var res struct {
		Correct   bool    `json:"correct"`
		Attempted float64 `json:"attempted"`
		Failed    float64 `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return fmt.Errorf("no result line: %w", err)
	}
	if !res.Correct {
		return fmt.Errorf(`the result is not "correct": true`)
	}
	values := make([]float64, len(ms))
	for i, m := range ms {
		v := res.Metrics[m.Name].Value
		if v == nil {
			return fmt.Errorf("the result line lacks %s", m.Name)
		}
		values[i] = *v
	}
	s.values = slices.Grow(s.values, len(ms))[:len(ms)]
	for i, v := range values {
		s.values[i] = append(s.values[i], v)
	}
	s.attempted, s.failed = s.attempted+res.Attempted, s.failed+res.Failed
	return nil
}

// failedShare is Σfailed/Σattempted.
func (s *side) failedShare() float64 { return s.failed / max(s.attempted, 1) }

// stats are one side's median and quartiles, interpolated linearly
// between order statistics.
type stats struct{ q1, median, q3 float64 }

func summarize(xs []float64) stats {
	s := slices.Sorted(slices.Values(xs))
	q := func(p float64) float64 {
		h := p * float64(len(s)-1)
		i := int(h)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (h-float64(i))*(s[i+1]-s[i])
	}
	return stats{q(0.25), q(0.5), q(0.75)}
}

func (s stats) String() string { return fmt.Sprintf("%10.4g [%.4g, %.4g]", s.median, s.q1, s.q3) }

// verdict is one (workload, metric) comparison.
type verdict struct {
	base, change stats
	delta        float64 // relative change of the change's median
	won          int     // pairs the change read better
	label        string
}

// judge compares one metric's runs; base[i] and change[i] ran on one seed.
func judge(m metric, base, change []float64) verdict {
	dir := 1.0 // the sign of a change for the better
	if m.Better == "lower" {
		dir = -1
	}
	better := func(a, b float64) bool { return dir*(a-b) > 0 }
	v := verdict{base: summarize(base), change: summarize(change)}
	if v.change.median != v.base.median {
		v.delta = v.change.median/v.base.median - 1
	}
	everyRun := true // every change run reads better than every base run
	for i, c := range change {
		if better(c, base[i]) {
			v.won++
		}
		for _, b := range base {
			everyRun = everyRun && better(c, b)
		}
	}
	iqr := v.base.q3 - v.base.q1
	switch {
	case -dir*v.delta > m.Bound:
		v.label = "REGRESSION"
	case iqr > m.Bound*math.Abs(v.base.median) && !everyRun:
		v.label = "unresolved"
	case v.won >= minWins && dir*(v.change.median-v.base.median) > iqr:
		v.label = "gain"
	default:
		v.label = "parity"
	}
	return v
}

// execFunc runs the benchmark once, on side "base" or "change", and
// returns its standard output.
type execFunc func(side, workload string, seed int) ([]byte, error)

// compare makes every workload's seed-paired runs through exec, prints
// the verdicts and PASS or FAIL to w, and reports whether the gate passed.
// The first run that fails ends the comparison.
func compare(w io.Writer, b benchmark, exec execFunc) bool {
	fmt.Fprintf(w, "%-13s %-24s %-34s %-34s %8s %5s  %s\n",
		"workload", "metric", "base median [q1, q3]", "change median [q1, q3]", "Δmedian", "won", "verdict")
	pass := true
	for _, wl := range b.Workloads {
		sides := map[string]*side{"base": {}, "change": {}}
		for seed := 1; seed <= pairs; seed++ {
			order := []string{"base", "change"}
			if seed%2 == 0 {
				slices.Reverse(order)
			}
			for _, name := range order {
				out, err := exec(name, wl.Name, seed)
				if err == nil {
					err = sides[name].add(out, b.EndToEnd)
				}
				if err != nil {
					fmt.Fprintf(w, "%s seed %d %s: %v\nFAIL\n", wl.Name, seed, name, err)
					return false
				}
			}
		}
		pass = report(w, wl.Name, b.EndToEnd, sides["base"], sides["change"]) && pass
	}
	fmt.Fprintln(w, map[bool]string{true: "PASS", false: "FAIL"}[pass])
	return pass
}

// report prints one workload's verdicts and reports whether it passed: no
// REGRESSION, and a change-side failed share no higher than the base's.
func report(w io.Writer, workload string, ms []metric, base, change *side) bool {
	pass := true
	for i, m := range ms {
		v := judge(m, base.values[i], change.values[i])
		fmt.Fprintf(w, "%-13s %-24s %-34s %-34s %+7.1f%% %2d/%d  %s\n",
			workload, m.Name, v.base, v.change, 100*v.delta, v.won, len(base.values[i]), v.label)
		pass = pass && v.label != "REGRESSION"
	}
	fb, fc := base.failedShare(), change.failedShare()
	label := "ok"
	if fc > fb {
		label, pass = "HIGHER", false
	}
	fmt.Fprintf(w, "%-13s %-24s %-34.4g %-34.4g %14s  %s\n", workload, "failed share", fb, fc, "", label)
	fmt.Fprintf(w, "%-13s %-24s %-34s %-34s %14s  %s\n", workload, "host.ref_ns start -> end", base.drift(), change.drift(), "", "drift, no verdict")
	return pass
}

// drift renders the side's median host.ref_ns readings at run start and
// end.
func (s *side) drift() string {
	if len(s.refStart) == 0 {
		return "no readings"
	}
	return fmt.Sprintf("%.4g -> %.4g", summarize(s.refStart).median, summarize(s.refEnd).median)
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: hobench <base-rev>   (make bench-ab BASE=<rev>)")
		os.Exit(2)
	}
	pass, err := gate(os.Args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hobench:", err)
		os.Exit(2)
	}
	if !pass {
		os.Exit(1)
	}
}

// gate checks BASE out, compares it with the working tree and removes the
// worktree again.  An error means the comparison could not start.
func gate(base string) (bool, error) {
	blob, err := os.ReadFile(benchFile)
	if err != nil {
		return false, err
	}
	b, err := parseBenchmark(blob)
	if err != nil {
		return false, err
	}
	if git("cat-file", "-e", base+"^{commit}:perfbench") != nil {
		return false, fmt.Errorf("%s is not a commit with a perfbench/ directory", base)
	}
	// A gate over different benchmark code measures nothing.
	if git("diff", "--quiet", base, "--", "perfbench", benchFile) != nil {
		return false, fmt.Errorf("perfbench/ or %s differs between %s and the working tree", benchFile, base)
	}
	root, err := os.Getwd()
	if err != nil {
		return false, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	removeWorktree()
	if err := git("worktree", "add", "--detach", baseTree, base); err != nil {
		return false, err
	}
	defer removeWorktree()
	dirs := map[string]string{"base": filepath.Join(root, baseTree), "change": root}
	fmt.Printf("hobench: %s against the working tree, %d pairs of %d s runs per workload\n", base, pairs, b.RunSeconds)
	return compare(os.Stdout, b, func(side, workload string, seed int) ([]byte, error) {
		args := append(slices.Clone(b.Command[1:]), "--workload", workload,
			"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(b.RunSeconds), "--trace", "0")
		cmd := exec.CommandContext(ctx, b.Command[0], args...)
		var stdout, stderr bytes.Buffer
		cmd.Dir, cmd.Stdout, cmd.Stderr = dirs[side], &stdout, &stderr
		start := time.Now()
		err := cmd.Run()
		fmt.Fprintf(os.Stderr, "hobench: %s seed %d %s: exit %d, %.1f s\n",
			workload, seed, side, cmd.ProcessState.ExitCode(), time.Since(start).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%w: %s", err, bytes.TrimSpace(stderr.Bytes()))
		}
		return stdout.Bytes(), nil
	}), nil
}

// removeWorktree removes BASE's worktree, or the stale one an interrupted
// run left behind.
func removeWorktree() {
	_ = git("worktree", "remove", "--force", baseTree) // fails when there is none
	_ = os.RemoveAll(baseTree)
	_ = git("worktree", "prune")
}

func git(args ...string) error {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return nil
}
