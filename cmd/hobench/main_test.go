package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// testBench is a one-workload benchmark with one metric per direction.
var testBench = benchmark{
	Command: []string{"true"}, RunSeconds: 1,
	Workloads: []struct {
		Name string `json:"name"`
	}{{Name: "w"}},
	EndToEnd: []metric{{"rate", "higher", 0.25}, {"lat", "lower", 0.25}},
}

// resultLine is a perfbench run's output reporting value(m) for each
// metric, after a detail line whose host readings are 2e6 ns at the
// start of the run and 2.1e6 ns at its end.
func resultLine(ms []metric, correct bool, failed int, value func(metric) float64) []byte {
	return runOutput(ms, correct, failed, value, `{"workload":"w","notes":{"host.ref_ns":[2000000,2100000]}}`)
}

// runOutput is resultLine with the given detail object.
func runOutput(ms []metric, correct bool, failed int, value func(metric) float64, detail string) []byte {
	metrics := map[string]any{}
	for _, m := range ms {
		metrics[m.Name] = map[string]any{"value": value(m), "unit": "x"}
	}
	out, _ := json.Marshal(map[string]any{"correct": correct, "attempted": 1000, "failed": failed, "metrics": metrics})
	return append([]byte("rate 1 1/s\ndetail "+detail+"\n"), out...)
}

// seedValue reads 100+seed on every metric, on either side.
func seedValue(seed int) func(metric) float64 {
	return func(metric) float64 { return float64(100 + seed) }
}

func runCompare(exec execFunc) (bool, string) {
	var out bytes.Buffer
	pass := compare(&out, testBench, exec)
	return pass, out.String()
}

func TestIdenticalSidesPass(t *testing.T) {
	var calls []string
	pass, out := runCompare(func(side, _ string, seed int) ([]byte, error) {
		calls = append(calls, fmt.Sprintf("%d%s", seed, side))
		return resultLine(testBench.EndToEnd, true, 0, seedValue(seed)), nil
	})
	if !pass || !strings.HasSuffix(out, "PASS\n") {
		t.Fatalf("identical sides did not pass:\n%s", out)
	}
	if n := strings.Count(out, " parity\n"); n != len(testBench.EndToEnd) {
		t.Errorf("%d parity verdicts, want %d:\n%s", n, len(testBench.EndToEnd), out)
	}
	if len(calls) != 2*pairs || calls[0] != "1base" || calls[1] != "1change" || calls[2] != "2change" || calls[3] != "2base" {
		t.Errorf("runs were not seed-paired with alternating order: %v", calls)
	}
	if !strings.Contains(out, "2e+06 -> 2.1e+06                   2e+06 -> 2.1e+06") {
		t.Errorf("no host.ref_ns row with both sides' readings:\n%s", out)
	}
}

// TestHostDriftRowJudgesNothing: the host.ref_ns row shows each side's
// median start and end readings, and a box that drifted between the sides
// changes no verdict.  A run without readings is not an error.
func TestHostDriftRowJudgesNothing(t *testing.T) {
	pass, out := runCompare(func(side, _ string, seed int) ([]byte, error) {
		detail := fmt.Sprintf(`{"notes":{"host.ref_ns":[%d,%d]}}`, 2000000+seed, 2100000+seed)
		if side == "change" {
			detail = fmt.Sprintf(`{"notes":{"host.ref_ns":[%d,%d]}}`, 3000000+seed, 3300000+seed)
		}
		return runOutput(testBench.EndToEnd, true, 0, seedValue(seed), detail), nil
	})
	if !pass || strings.Count(out, " parity\n") != len(testBench.EndToEnd) {
		t.Fatalf("drifted host readings changed the verdicts:\n%s", out)
	}
	if !strings.Contains(out, "2e+06 -> 2.1e+06") || !strings.Contains(out, "3e+06 -> 3.3e+06") ||
		!strings.Contains(out, "drift, no verdict") {
		t.Errorf("host.ref_ns row lacks a side's medians:\n%s", out)
	}
	pass, out = runCompare(func(side, _ string, seed int) ([]byte, error) {
		return runOutput(testBench.EndToEnd, true, 0, seedValue(seed), "{}"), nil
	})
	if !pass || !strings.Contains(out, "no readings") {
		t.Errorf("runs without host readings:\n%s", out)
	}
}

// constant is pairs copies of v.
func constant(v float64) []float64 { return slices.Repeat([]float64{v}, pairs) }

func TestRegressionFollowsBoundAndDirection(t *testing.T) {
	higher, lower := testBench.EndToEnd[0], testBench.EndToEnd[1]
	for _, tc := range []struct {
		m      metric
		change float64
		want   string
	}{
		{higher, 74, "REGRESSION"},
		{higher, 76, "parity"},
		{lower, 126, "REGRESSION"},
		{lower, 124, "parity"},
	} {
		if v := judge(tc.m, constant(100), constant(tc.change)); v.label != tc.want {
			t.Errorf("%s metric 100 → %g: %s, want %s", tc.m.Better, tc.change, v.label, tc.want)
		}
	}
	pass, out := runCompare(func(side, _ string, seed int) ([]byte, error) {
		return resultLine(testBench.EndToEnd, true, 0, func(m metric) float64 {
			if side == "change" && m.Name == "rate" {
				return 74
			}
			return 100
		}), nil
	})
	if pass || !strings.Contains(out, "REGRESSION") || !strings.HasSuffix(out, "FAIL\n") {
		t.Errorf("a 26%% regression passed:\n%s", out)
	}
}

func TestWideBaseIsUnresolved(t *testing.T) {
	// Quartiles 85 and 115 around a median of 100: IQR/median 0.30.
	base := []float64{70, 80, 85, 85, 100, 100, 115, 115, 120, 130}
	higher := testBench.EndToEnd[0]
	if v := judge(higher, base, base); v.label != "unresolved" {
		t.Errorf("IQR/median 0.30 against bound 0.25: %s, want unresolved", v.label)
	}
	if v := judge(higher, base, constant(125)); v.label != "unresolved" {
		t.Errorf("a change that does not beat every base run: %s, want unresolved", v.label)
	}
	if v := judge(higher, base, constant(131)); v.label != "gain" {
		t.Errorf("every change run beats every base run: %s, want gain", v.label)
	}
}

func TestGainNeedsWinsAndGap(t *testing.T) {
	higher := testBench.EndToEnd[0]
	var base []float64 // quartiles 102.25 and 106.75: IQR 4.5
	for i := range pairs {
		base = append(base, float64(100+i))
	}
	shifted := func(by float64, ties int) []float64 {
		out := slices.Clone(base)
		for i := ties; i < pairs; i++ {
			out[i] += by
		}
		return out
	}
	lossy := shifted(50, 0)
	lossy[0], lossy[1] = 0, 0
	for _, tc := range []struct {
		name   string
		change []float64
		want   string
		won    int
	}{
		{"10/10 wins, gap below the base IQR", shifted(1, 0), "parity", 10},
		{"10/10 wins, gap above the base IQR", shifted(50, 0), "gain", 10},
		{"9 wins and a tie", shifted(50, 1), "gain", 9},
		{"8 wins and two ties", shifted(50, 2), "parity", 8},
		{"8 wins and two losses", lossy, "parity", 8},
	} {
		if v := judge(higher, base, tc.change); v.label != tc.want || v.won != tc.won {
			t.Errorf("%s: %s with %d wins, want %s with %d", tc.name, v.label, v.won, tc.want, tc.won)
		}
	}
}

func TestBrokenRunsFail(t *testing.T) {
	for _, tc := range []struct {
		name string
		exec execFunc
	}{
		{"not correct", func(side, _ string, seed int) ([]byte, error) {
			return resultLine(testBench.EndToEnd, side == "base" || seed != 3, 0, seedValue(seed)), nil
		}},
		{"nonzero exit", func(side, _ string, seed int) ([]byte, error) {
			if side == "base" && seed == 4 {
				return nil, errors.New("exit status 3")
			}
			return resultLine(testBench.EndToEnd, true, 0, seedValue(seed)), nil
		}},
		{"higher failed share", func(side, _ string, seed int) ([]byte, error) {
			failed := 0
			if side == "change" {
				failed = 1
			}
			return resultLine(testBench.EndToEnd, true, failed, seedValue(seed)), nil
		}},
	} {
		if pass, out := runCompare(tc.exec); pass || !strings.HasSuffix(out, "FAIL\n") {
			t.Errorf("%s passed:\n%s", tc.name, out)
		}
	}
}

// repoBenchmark parses the repository's BENCHMARK.json.
func repoBenchmark(t *testing.T) benchmark {
	t.Helper()
	blob, err := os.ReadFile("../../" + benchFile)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseBenchmark(blob)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRepositoryBenchmarkParses(t *testing.T) {
	for _, m := range repoBenchmark(t).EndToEnd {
		if (m.Better != "higher" && m.Better != "lower") || !(m.Bound > 0) {
			t.Errorf("%+v: want better higher or lower and a positive bound", m)
		}
	}
	for _, bad := range []string{`"better": "up", "bound": 0.25`, `"better": "lower", "bound": 0`} {
		js := `{"command": ["x"], "run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": [{"name": "m", ` + bad + `}]}`
		if _, err := parseBenchmark([]byte(js)); err == nil {
			t.Errorf("a metric with %s parsed", bad)
		}
	}
}

// capturedLine is the result line of a 3 s churn-trend run, seed 1.
const capturedLine = `{"attempted":3170304,"correct":true,"failed":0,"metrics":{"cpu_ms_per_1k_decisions":{"unit":"ms","value":0.570404052734375},"decisions_per_s":{"unit":"1/s","value":1609775.0644842174},"heap_bytes_per_terminal":{"unit":"B","value":713.326171875},"latency_p50_ms":{"unit":"ms","value":0.6444691666666666},"latency_p90_ms":{"unit":"ms","value":0.8936793333333334},"setup_s":{"unit":"s","value":0.009628775}}}`

func TestCapturedResultLine(t *testing.T) {
	b := repoBenchmark(t)
	var s side
	if err := s.add([]byte("setup_s 0.0096 s\n"+capturedLine+"\n"), b.EndToEnd); err != nil {
		t.Fatal(err)
	}
	if s.values[0][0] != 1609775.0644842174 || s.attempted != 3170304 || s.failed != 0 {
		t.Errorf("parsed %v, attempted %g, failed %g", s.values, s.attempted, s.failed)
	}
	for _, m := range b.EndToEnd {
		var res map[string]any
		if err := json.Unmarshal([]byte(capturedLine), &res); err != nil {
			t.Fatal(err)
		}
		delete(res["metrics"].(map[string]any), m.Name)
		line, _ := json.Marshal(res)
		if err := new(side).add(line, b.EndToEnd); err == nil {
			t.Errorf("a result line without %s parsed", m.Name)
		}
	}
}
