package cluster

import (
	"fmt"

	"repro/internal/serve"
)

// MigrationHooks returns serve.Daemon Extract/Restore/Release
// implementations backed by engine e, closing the loop between the wire
// control plane and the ring: a router driving a membership change tells
// each daemon the NEW member set, and the daemon itself computes which
// of its terminals the new ring no longer assigns to it — the arcs a new
// member took when self is in the set, everything it holds when self is
// the member leaving.
//
// The hooks are the in-process member's own migration methods, so a
// daemon moves state exactly as an in-process cluster does: extract
// with keep copies the moving terminals without removing them (the
// engine is drained first by the daemon, so every snapshot carries the
// terminal's complete decision history); once the copies have landed on
// the destination, release drops the originals.  A plain extract
// (keep=false) is the one-shot move rollback uses; restore with skipLive
// is the idempotent replay form crash recovery uses.
func MigrationHooks(e *serve.Engine) (
	extract func(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error),
	restore func(snaps []serve.TerminalSnapshot, skipLive bool) error,
	release func(members []int, vnodes, self int) (int, error),
) {
	extract = func(members []int, vnodes, self int, keep bool) ([]serve.TerminalSnapshot, error) {
		ring, err := NewRingMembers(members, vnodes)
		if err != nil {
			return nil, fmt.Errorf("cluster: migration ring: %w", err)
		}
		return (&member{id: self, engine: e}).extract(ring, keep)
	}
	release = func(members []int, vnodes, self int) (int, error) {
		ring, err := NewRingMembers(members, vnodes)
		if err != nil {
			return 0, fmt.Errorf("cluster: migration ring: %w", err)
		}
		return (&member{id: self, engine: e}).release(ring)
	}
	return extract, (&member{engine: e}).restore, release
}
