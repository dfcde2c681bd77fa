// Command perfbench is the repository benchmark: it runs one named
// workload from a seed, checks every decision against a reference it
// computes outside the timed phase, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) as the last line of its output.
//
//	bash perfbench/run.sh --workload engine-paper --seed 1 --seconds 30 --trace 0
//
// Workloads (CHOICES.md gives the reasons, rates and layer coverage):
//
//	engine-paper   closed loop, 65,536 terminals into one 1-shard serve.Engine
//	wire-cluster   open loop over loopback TCP: front door → cluster.TCP → 2 node daemons
//	churn-trend    closed loop into cluster.Local serving trendfuzzy, 2↔3 nodes
//
// Every layer is timed from this package, around calls into the public
// functions and the hooks the packages expose; no program code changes
// for the benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

// spec names one reported metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics every untraced run reports, in BENCHMARK.json
// order.  Each is defined on every workload (see CHOICES.md).
var endToEnd = []spec{
	{"decisions_per_s", "1/s"},
	{"cpu_ms_per_1k_decisions", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"heap_bytes_per_terminal", "B"},
	{"setup_s", "s"},
}

// perLayer are the metrics every traced run reports.  A layer a workload
// bypasses reads 0.
var perLayer = []spec{
	{"serve.engine.submit_cpu_ns_per_report", "ns"},
	{"serve.engine.blocked_share", "ratio"},
	{"serve.engine.residence_us_p50", "us"},
	{"serve.engine.residence_us_p99", "us"},
	{"serve.engine.queue_depth_p50", "count"},
	{"handover.score_ns_per_row", "ns"},
	{"handover.decide_ns_per_row", "ns"},
	{"handover.rows_per_frame", "count"},
	{"handover.per_report_share", "ratio"},
	{"handover.scored_share", "ratio"},
	{"fuzzy.eval_ns_per_point", "ns"},
	{"core.flc_ns_per_eval", "ns"},
	{"serve.wire.parse_ns_per_report", "ns"},
	{"serve.wire.parse_ns_per_outcome", "ns"},
	{"serve.wire.encode_ns_per_report", "ns"},
	{"serve.wire.encode_ns_per_outcome", "ns"},
	{"serve.wire.bytes_per_report", "B"},
	{"serve.wire.bytes_per_outcome", "B"},
	{"serve.daemon.submit_ns_per_report", "ns"},
	{"serve.daemon.route_ns_per_outcome", "ns"},
	{"serve.daemon.flush_wait_ms_p50", "ms"},
	{"serve.daemon.flush_wait_ms_p99", "ms"},
	{"serve.client.reports_per_line", "count"},
	{"serve.client.writes_per_1k_reports", "count"},
	{"serve.client.queued_lines_p50", "count"},
	{"cluster.submit_ns_per_report", "ns"},
	{"cluster.moved_terminals_per_op", "count"},
	{"cluster.migrate_us_per_moved_terminal", "us"},
	{"cluster.migrate_ms_p50", "ms"},
	{"cluster.buffered_share", "ratio"},
	{"sim.run_ms_per_walk", "ms"},
	{"sim.resolve_ms", "ms"},
	{"runtime.allocs_per_decision", "count"},
	{"runtime.gc_cycles_per_1m_decisions", "count"},
	{"gen.late_p99_ms", "ms"},
	{"gen.latency_p99_ms", "ms"},
	{"gen.decide_ms_p50", "ms"},
	{"gen.decide_ms_p90", "ms"},
	{"gen.cpu_share", "ratio"},
	{"host.ref_ns", "ns"},
	{"trace.overhead_share", "ratio"},
	{"selftime.gen", "share"},
	{"selftime.host", "share"},
	{"selftime.serve.daemon", "share"},
	{"selftime.serve.client", "share"},
	{"selftime.cluster", "share"},
	{"selftime.serve.engine", "share"},
	{"selftime.handover", "share"},
	{"selftime.fuzzy", "share"},
	{"selftime.trace", "share"},
	{"selftime.residual", "share"},
}

// lateBound is the share of latency_p50_ms an open-loop generator may
// run late (gen.late_p99_ms, the median 100 ms window's p99) before the
// run is invalid rather than slow: the latency bound in BENCHMARK.json,
// since lateness beyond it could hide a regression of that size.
const lateBound = 0.25

// opts is one invocation's settings.
type opts struct {
	seed    int64
	seconds float64
	traced  bool
	out     string
}

// result is one run's outcome.
type result struct {
	// correct is false when a decision differed from the reference.
	correct bool
	// attempted/failed count reports; failed are lost, shed, rejected,
	// undelivered or errored.
	attempted, failed uint64
	e2e               map[string]float64
	samples           map[string]int
	layers            map[string]float64
	// headline is the metric trace.overhead_share compares, and
	// higherBetter its direction.
	headline     string
	higherBetter bool
	// lateP99Ms is the open-loop generator's p99 lateness (0 for closed
	// loops).
	lateP99Ms float64
	notes     map[string]any
	spans     *spanLog
}

// valid reports whether an open-loop generator kept to its schedule.
func (r *result) valid() bool { return r.lateP99Ms <= lateBound*r.e2e["latency_p50_ms"] }

func newResult() *result {
	return &result{
		correct: true,
		e2e:     map[string]float64{},
		samples: map[string]int{},
		layers:  map[string]float64{},
		notes:   map[string]any{},
	}
}

// workload runs one timed run of a named workload.
type workload func(o opts) (*result, error)

var workloads = map[string]workload{
	"engine-paper": runEnginePaper,
	"wire-cluster": runWireCluster,
	"churn-trend":  runChurnTrend,
}

func main() {
	name := flag.String("workload", "", "workload: engine-paper, wire-cluster or churn-trend")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics of a traced run")
	out := flag.String("out", ".bench_build", "directory the traced run writes its spans to")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {engine-paper|wire-cluster|churn-trend} -seed N -seconds N -trace {0|1}\n")
		os.Exit(2)
	}
	// Two working threads on every box, whatever its core count: the
	// workloads were sized for it.
	runtime.GOMAXPROCS(2)

	o := opts{seed: *seed, seconds: float64(*seconds), out: *out}
	refStart := hostRef()
	var res *result
	var err error
	if *trace == 1 {
		res, err = tracedRun(w, o)
	} else {
		res, err = w(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	refEnd := hostRef()
	res.notes["host.ref_ns"] = []float64{refStart, refEnd}
	res.layers["host.ref_ns"] = (refStart + refEnd) / 2
	if err := report(*name, o, *trace == 1, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	switch {
	case !res.correct:
		fmt.Fprintln(os.Stderr, "perfbench: decisions differ from the reference")
		os.Exit(1)
	case !res.valid():
		fmt.Fprintf(os.Stderr, "perfbench: run invalid: generator p99 lateness %.2f ms exceeds %.0f%% of latency_p50_ms\n", res.lateP99Ms, lateBound*100)
		os.Exit(3)
	}
}

// tracedRun measures the workload untraced and then traced on the same
// seed, each for half the seconds, and reports the traced run's
// per-layer metrics with the tracing overhead on the headline metric.
func tracedRun(w workload, o opts) (*result, error) {
	half := o
	half.seconds = math.Max(1, o.seconds/2)
	base, err := w(half)
	if err != nil {
		return nil, err
	}
	half.traced = true
	tr, err := w(half)
	if err != nil {
		return nil, err
	}
	b, t := base.e2e[tr.headline], tr.e2e[tr.headline]
	if tr.higherBetter {
		tr.layers["trace.overhead_share"] = b/t - 1
	} else {
		tr.layers["trace.overhead_share"] = t/b - 1
	}
	tr.correct = tr.correct && base.correct
	tr.attempted += base.attempted
	tr.failed += base.failed
	tr.lateP99Ms = math.Max(tr.lateP99Ms, base.lateP99Ms)
	tr.notes["untraced_"+tr.headline] = b
	return tr, nil
}

// report prints the human-readable metric table, one detail line, and,
// as the last line of output, the result line.
func report(name string, o opts, traced bool, r *result) error {
	list, values := endToEnd, r.e2e
	if traced {
		list, values = perLayer, r.layers
	}
	metrics := make(map[string]map[string]any, len(list))
	for _, s := range list {
		v := values[s.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[s.name] = map[string]any{"value": v, "unit": s.unit}
		if n, ok := r.samples[s.name]; ok {
			fmt.Printf("%-42s %16.6g %-6s (n=%d)\n", s.name, v, s.unit, n)
		} else {
			fmt.Printf("%-42s %16.6g %s\n", s.name, v, s.unit)
		}
	}
	if r.spans != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, o.seed))
		if err := r.spans.write(path); err != nil {
			return err
		}
		r.notes["spans_file"] = path
		r.notes["spans"] = len(r.spans.spans)
		r.notes["spans_dropped"] = r.spans.dropped
		r.notes["selftime_ns"] = r.spans.selfTimes()
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	detail := map[string]any{
		"workload": name, "seed": o.seed, "seconds": o.seconds, "trace": traced,
		"failed_share": share, "samples": r.samples, "gen.late_p99_ms": r.lateP99Ms,
		"valid": r.valid(), "notes": r.notes,
	}
	if err := printJSON("detail", detail); err != nil {
		return err
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": attempted, "failed": r.failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printJSON(label string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("%s: %w", label, err)
	}
	fmt.Printf("%s %s\n", label, b)
	return nil
}

// foldRounds sets a closed loop's end-to-end metrics from its rounds,
// which all do the same work: decisions_per_s is total decisions over
// total timed wall time (the harmonic mean of the rounds' rates), CPU and
// latency are means, set-up and heap are medians.  The box runs this code
// at speeds that differ by up to a third in stretches of seconds to tens
// of seconds; a median over rounds lands in whichever stretch held most
// of them, a mean blends them.  Over six 30-second churn-trend runs the
// mean's IQR/median was 0.055 where the median's was 0.128.
func foldRounds(res *result, rounds []map[string]float64) {
	for _, m := range endToEnd {
		var v float64
		switch m.name {
		case "decisions_per_s":
			for _, r := range rounds {
				v += 1 / r[m.name]
			}
			v = float64(len(rounds)) / v
		case "setup_s", "heap_bytes_per_terminal":
			v = medianOf(rounds, m.name)
		default:
			for _, r := range rounds {
				v += r[m.name]
			}
			v /= float64(len(rounds))
		}
		res.e2e[m.name] = v
		res.samples[m.name] = len(rounds)
	}
}

// medianOf returns the median of per-round values.
func medianOf(rounds []map[string]float64, key string) float64 {
	xs := make([]float64, 0, len(rounds))
	for _, r := range rounds {
		xs = append(xs, r[key])
	}
	return median(xs)
}
