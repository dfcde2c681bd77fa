// Package metrics provides the evaluation instrumentation: the ping-pong
// detector, handover event accounting and outage tracking.
package metrics

import (
	"fmt"

	"repro/internal/hexgrid"
)

// HandoverEvent records one executed handover.
type HandoverEvent struct {
	// Epoch is the measurement-epoch index at which the handover fired.
	Epoch int
	// WalkedKm is the cumulative walk distance at that epoch.
	WalkedKm float64
	// From and To are the old and new serving cells.
	From, To hexgrid.Cell
	// Score is the deciding algorithm's decision value (HD for the FLC).
	Score float64
	// PingPong marks the event as the return half of a ping-pong pair
	// (set by the detector, not the algorithm).
	PingPong bool
}

// String implements fmt.Stringer.
func (e HandoverEvent) String() string {
	tag := ""
	if e.PingPong {
		tag = " [ping-pong]"
	}
	return fmt.Sprintf("epoch %d (%.2f km): %v -> %v (score %.3f)%s",
		e.Epoch, e.WalkedKm, e.From, e.To, e.Score, tag)
}

// PingPongDetector flags handovers that return to a recently departed cell.
// The classic definition: a handover A→B followed by B→A within a window is
// a ping-pong pair; the return hop gets flagged.
type PingPongDetector struct {
	// WindowKm is the maximum walked distance between the two hops of a
	// pair for the return to count as ping-pong.
	WindowKm float64

	history []HandoverEvent
	count   int
}

// NewPingPongDetector returns a detector with the given spatial window.
// The window must be positive.
func NewPingPongDetector(windowKm float64) *PingPongDetector {
	if !(windowKm > 0) {
		panic(fmt.Sprintf("metrics: non-positive ping-pong window %g km", windowKm))
	}
	return &PingPongDetector{WindowKm: windowKm}
}

// Observe records a handover and reports whether it closes a ping-pong pair.
func (d *PingPongDetector) Observe(e HandoverEvent) bool {
	pingPong := false
	for i := len(d.history) - 1; i >= 0; i-- {
		prev := d.history[i]
		if e.WalkedKm-prev.WalkedKm > d.WindowKm {
			break
		}
		if prev.From == e.To && prev.To == e.From {
			pingPong = true
			break
		}
	}
	if pingPong {
		d.count++
	}
	d.history = append(d.history, e)
	return pingPong
}

// Count returns the number of ping-pong returns observed so far.
func (d *PingPongDetector) Count() int { return d.count }

// OutageTracker accumulates the fraction of epochs the serving signal spends
// below a quality floor — the link-quality cost of late handovers.
type OutageTracker struct {
	// FloorDB is the outage threshold.
	FloorDB float64

	epochs int
	outage int
}

// Observe records one epoch's serving power.
func (o *OutageTracker) Observe(servingDB float64) {
	o.epochs++
	if servingDB < o.FloorDB {
		o.outage++
	}
}

// Fraction returns outage epochs / total epochs (0 when nothing observed).
func (o *OutageTracker) Fraction() float64 {
	if o.epochs == 0 {
		return 0
	}
	return float64(o.outage) / float64(o.epochs)
}
