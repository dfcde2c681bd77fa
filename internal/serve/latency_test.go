package serve

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyRecorderQuantiles(t *testing.T) {
	var l LatencyRecorder
	if l.Quantile(0.5) != 0 || l.Max() != 0 || l.Mean() != 0 {
		t.Error("empty recorder not zero")
	}
	for i := 1; i <= 1000; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	l.Observe(-time.Second) // ignored
	if l.Count() != 1000 {
		t.Fatalf("count %d", l.Count())
	}
	if got := l.Max(); got != 1000*time.Microsecond {
		t.Errorf("max %v", got)
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{{0.5, 500 * time.Microsecond}, {0.99, 990 * time.Microsecond}, {1, 1000 * time.Microsecond}}
	for _, c := range checks {
		got := l.Quantile(c.q)
		// Bucketed lower bound: within 1/32 below the exact order statistic.
		if got > c.want || float64(c.want-got) > float64(c.want)/16 {
			t.Errorf("q%.2f = %v, want ≈ %v", c.q, got, c.want)
		}
	}
	mean := l.Mean()
	if mean < 480*time.Microsecond || mean > 520*time.Microsecond {
		t.Errorf("mean %v", mean)
	}
}

func TestLatencyRecorderConcurrent(t *testing.T) {
	var l LatencyRecorder
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				l.Observe(time.Duration(w*1000+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	if l.Count() != 8000 {
		t.Errorf("count %d", l.Count())
	}
}
