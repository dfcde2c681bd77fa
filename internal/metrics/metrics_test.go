package metrics

import (
	"strings"
	"testing"

	"repro/internal/hexgrid"
)

var (
	cellA = hexgrid.Cell{I: 0, J: 0}
	cellB = hexgrid.Cell{I: 2, J: -1}
	cellC = hexgrid.Cell{I: 1, J: -2}
)

func ev(epoch int, km float64, from, to hexgrid.Cell) HandoverEvent {
	return HandoverEvent{Epoch: epoch, WalkedKm: km, From: from, To: to}
}

func TestPingPongDetectorFlagsReturn(t *testing.T) {
	d := NewPingPongDetector(1.0)
	if d.Observe(ev(1, 0.5, cellA, cellB)) {
		t.Error("first handover flagged as ping-pong")
	}
	if !d.Observe(ev(3, 0.9, cellB, cellA)) {
		t.Error("quick return not flagged")
	}
	if d.Count() != 1 {
		t.Errorf("count = %d, want 1", d.Count())
	}
}

func TestPingPongDetectorWindowExpires(t *testing.T) {
	d := NewPingPongDetector(1.0)
	d.Observe(ev(1, 0.5, cellA, cellB))
	if d.Observe(ev(9, 2.0, cellB, cellA)) {
		t.Error("slow return (1.5 km later) flagged as ping-pong")
	}
}

func TestPingPongDetectorDifferentTarget(t *testing.T) {
	d := NewPingPongDetector(1.0)
	d.Observe(ev(1, 0.5, cellA, cellB))
	if d.Observe(ev(2, 0.7, cellB, cellC)) {
		t.Error("forward progression B->C flagged as ping-pong")
	}
}

func TestPingPongDetectorChain(t *testing.T) {
	// A->B, B->A, A->B: two returns, both within window — 2 ping-pongs.
	d := NewPingPongDetector(5)
	d.Observe(ev(1, 0.1, cellA, cellB))
	d.Observe(ev(2, 0.2, cellB, cellA))
	d.Observe(ev(3, 0.3, cellA, cellB))
	if d.Count() != 2 {
		t.Errorf("chain count = %d, want 2", d.Count())
	}
}

func TestPingPongDetectorPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window accepted")
		}
	}()
	NewPingPongDetector(0)
}

func TestHandoverEventString(t *testing.T) {
	e := ev(4, 1.25, cellA, cellB)
	e.Score = 0.81
	if s := e.String(); !strings.Contains(s, "(0,0) -> (2,-1)") || !strings.Contains(s, "0.810") {
		t.Errorf("String = %q", s)
	}
	e.PingPong = true
	if !strings.Contains(e.String(), "ping-pong") {
		t.Error("ping-pong tag missing")
	}
}

func TestOutageTracker(t *testing.T) {
	o := &OutageTracker{FloorDB: -100}
	for _, p := range []float64{-90, -105, -101, -95} {
		o.Observe(p)
	}
	if got := o.Fraction(); got != 0.5 {
		t.Errorf("outage fraction = %g, want 0.5", got)
	}
}
