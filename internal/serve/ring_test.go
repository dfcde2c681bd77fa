package serve

import (
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/hexgrid"
	"repro/internal/metrics"
)

// TestRingMatchesSimDetector pins the engine's per-terminal ping-pong ring
// against the simulator's unbounded detector (metrics.PingPongDetector)
// on seeded handover walks: the two flag the same returns whenever every
// earlier event inside the window is still in the ring.  The walks'
// labels include the int32 limits the engine stores cells in.
func TestRingMatchesSimDetector(t *testing.T) {
	const window = 1.0
	labels := []hexgrid.Cell{
		{I: 0, J: 0}, {I: 1, J: 0}, {I: 0, J: 1}, {I: -1, J: 1},
		{I: math.MaxInt32, J: math.MinInt32}, {I: math.MinInt32, J: math.MaxInt32},
		{I: -math.MaxInt32, J: 0}, {I: math.MaxInt32, J: -math.MaxInt32},
	}
	compared, flagged, skipped := 0, 0, 0
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0))
		var ring terminal
		det := metrics.NewPingPongDetector(window)
		var walkedAt []float64 // walked distance of every earlier event
		serving, walked := labels[0], 0.0
		for k := 0; k < 300; k++ {
			// Hop to a distinct label from a small neighbourhood of the
			// list, so returns are common; steps of up to 0.4 km put
			// between 0 and ~10 earlier events inside the window.
			to := serving
			for to == serving {
				to = labels[rng.IntN(len(labels))]
			}
			walked += 0.4 * rng.Float64()
			inWindow := 0
			for _, w := range walkedAt {
				if walked-w <= window {
					inWindow++
				}
			}
			got := ring.observeHandover(serving, to, walked, window)
			want := det.Observe(metrics.HandoverEvent{Epoch: k, WalkedKm: walked, From: serving, To: to})
			switch {
			case inWindow > pingPongHistory:
				skipped++
			case got != want:
				t.Fatalf("seed %d hop %d (%v→%v at %.3f km, %d events in window): ring %v, detector %v",
					seed, k, serving, to, walked, inWindow, got, want)
			default:
				compared++
				if want {
					flagged++
				}
			}
			walkedAt = append(walkedAt, walked)
			serving = to
		}
	}
	if flagged == 0 || flagged == compared || skipped == 0 {
		t.Errorf("walks compared %d hops (%d ping-pongs) and skipped %d: the generator must exercise returns, non-returns and over-full windows",
			compared, flagged, skipped)
	}
}

// TestRingForgetsBeyondHistory pins the one documented divergence from the
// simulator's detector: A→B, then more hops inside the window that never
// go A→B, then B→A.  With pingPongHistory−1 hops in between both flag the
// return; with pingPongHistory hops the ring has overwritten A→B, so only
// the detector flags it.
func TestRingForgetsBeyondHistory(t *testing.T) {
	const window = 1.0
	a := hexgrid.Cell{I: math.MaxInt32, J: math.MinInt32}
	b := hexgrid.Cell{I: math.MinInt32, J: math.MaxInt32}
	for _, between := range []int{pingPongHistory - 1, pingPongHistory} {
		var ring terminal
		det := metrics.NewPingPongDetector(window)
		walked := 0.0
		hop := func(from, to hexgrid.Cell) (bool, bool) {
			got := ring.observeHandover(from, to, walked, window)
			want := det.Observe(metrics.HandoverEvent{WalkedKm: walked, From: from, To: to})
			walked += 0.05
			return got, want
		}
		hop(a, b)
		// B → C1 → … → C(between−1) → B: distinct cells, no A→B hop.
		from := b
		for k := 1; k < between; k++ {
			to := hexgrid.Cell{I: -math.MaxInt32 + k, J: k}
			hop(from, to)
			from = to
		}
		hop(from, b)
		got, want := hop(b, a)
		if !want {
			t.Fatalf("%d hops between: the detector did not flag B→A", between)
		}
		if wantRing := between < pingPongHistory; got != wantRing {
			t.Errorf("%d hops between: ring flagged %v, want %v", between, got, wantRing)
		}
	}
}
