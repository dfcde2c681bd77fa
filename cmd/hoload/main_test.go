package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	fuzzyho "repro"
)

// TestSamplerRateOverPartialWindow pins decisions_per_sec as a rate: the
// final sample close() writes covers less than the one-second tick, and
// must divide its count by that window's length.
func TestSamplerRateOverPartialWindow(t *testing.T) {
	const count = 1000
	var decisions atomic.Uint64
	target := &loadTarget{totals: func() fuzzyho.ClusterNodeStats {
		return fuzzyho.ClusterNodeStats{Decisions: decisions.Load()}
	}}
	var lat fuzzyho.LatencyRecorder
	path := filepath.Join(t.TempDir(), "series.jsonl")
	begin := time.Now()
	s, err := startSampler(path, target, &lat)
	if err != nil {
		t.Fatal(err)
	}
	decisions.Store(count)
	time.Sleep(500 * time.Millisecond)
	if err := s.close(); err != nil {
		t.Fatal(err)
	}
	window := time.Since(begin).Seconds()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(blob), []byte("\n"))
	if len(lines) != 1 {
		t.Fatalf("%d samples over a %.2f s run, want the one close() writes", len(lines), window)
	}
	var rec metricsSample
	if err := json.Unmarshal(lines[0], &rec); err != nil {
		t.Fatal(err)
	}
	if want := count / window; rec.Rate < want || rec.Rate > 1.05*want {
		t.Errorf("decisions_per_sec %.1f over a %.3f s window of %d decisions, want %.1f", rec.Rate, window, count, want)
	}
}
