package cluster

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/serve"
)

// errMigrationAbandoned is what the test hook (core.hook) turns a
// migration into: the router walks away mid-change exactly as a killed
// process would — no rollback, no journal truncation — so recovery
// tests can replay the journal from a realistic half-done state.
var errMigrationAbandoned = errors.New("cluster: migration abandoned (simulated router crash)")

// migration is the route-to-both window of one membership change.  While
// it is installed, submissions consult it under the router's read lock:
// reports for terminals whose owner does not change route normally (they
// never stall), reports for moving terminals are buffered here and
// released to the destination at cutover — preserving per-terminal
// submission order, because a moving terminal's reports go exclusively
// through the buffer for the whole window.  The buffer has no bound:
// buffering cannot block (see intercept) and a submit never sheds, so it
// holds every moving-terminal report of the window.  Its depth is on
// /statusz (MigrationStatus.Buffered).
type migration struct {
	oldRing *Ring
	newRing *Ring

	mu  sync.Mutex
	buf []serve.Report
}

// moving reports whether the terminal's owner changes under the new ring.
//
//fuzzyho:nolockio
//fuzzyho:deterministic
func (m *migration) moving(t serve.TerminalID) bool {
	return m.oldRing.NodeOf(t) != m.newRing.NodeOf(t)
}

// intercept splits rs for a submit: moving-terminal reports are
// buffered, the returned slice holds the rest (routable under the old
// ring).  The input slice is never mutated; when nothing moves it is
// returned as-is with no allocation — the common case, since a change
// moves ~1/N of the key space.  Buffering never blocks: a submitter
// stalled here while holding the router's read lock would deadlock the
// cutover's write lock.
//
//fuzzyho:nolockio
func (m *migration) intercept(rs []serve.Report) []serve.Report {
	split := -1
	for i := range rs {
		if m.moving(rs[i].Terminal) {
			split = i
			break
		}
	}
	if split < 0 {
		return rs
	}
	rest := make([]serve.Report, 0, len(rs)-1)
	rest = append(rest, rs[:split]...)
	m.mu.Lock()
	for _, r := range rs[split:] {
		if m.moving(r.Terminal) {
			m.buf = append(m.buf, r)
		} else {
			rest = append(rest, r)
		}
	}
	m.mu.Unlock()
	return rest
}

// take hands the buffered reports to the cutover (or abort) flush.
//
//fuzzyho:nolockio
func (m *migration) take() []serve.Report {
	m.mu.Lock()
	b := m.buf
	m.buf = nil
	m.mu.Unlock()
	return b
}

// buffered is the instantaneous buffer depth.
//
//fuzzyho:nolockio
func (m *migration) buffered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.buf)
}

// migTracker publishes migration phase progress for Router.Migration()
// (and through it /statusz), decoupled from the migration's own locks so
// a status scrape never contends with a cutover.
type migTracker struct {
	mu sync.Mutex
	st MigrationStatus
}

func (g *migTracker) begin(op string, node int) {
	g.mu.Lock()
	g.st = MigrationStatus{Active: true, Op: op, Node: node, Phase: "prepare"}
	g.mu.Unlock()
}

func (g *migTracker) phase(p string) {
	g.mu.Lock()
	g.st.Phase = p
	g.mu.Unlock()
}

func (g *migTracker) end() {
	g.mu.Lock()
	g.st = MigrationStatus{}
	g.mu.Unlock()
}

//fuzzyho:nolockio
func (g *migTracker) status(buffered int) MigrationStatus {
	g.mu.Lock()
	st := g.st
	g.mu.Unlock()
	st.Buffered = buffered
	return st
}

// quarantineSnapshots writes orphaned terminal state — snapshots a
// failed rollback could deliver to no live owner — to a uniquely named
// newline-JSON file, so it is recoverable by hand (serve.ReadSnapshots +
// restore) instead of dying with the router's memory.  dir "" falls back
// to the OS temp directory.
func quarantineSnapshots(dir string, snaps []serve.TerminalSnapshot) (string, error) {
	if dir == "" {
		dir = os.TempDir()
	}
	path := filepath.Join(dir, fmt.Sprintf("cluster-orphans-%d.jsonl", time.Now().UnixNano()))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return "", err
	}
	err = serve.WriteSnapshots(f, snaps)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", err
	}
	return path, nil
}

// orphanError quarantines the snapshots and folds the outcome into the
// rollback error chain: the operator learns where the state went either
// way.
func orphanError(dir string, snaps []serve.TerminalSnapshot) error {
	path, err := quarantineSnapshots(dir, snaps)
	if err != nil {
		return fmt.Errorf("cluster: %d terminal snapshots are orphaned AND quarantine failed (state lost): %w", len(snaps), err)
	}
	return fmt.Errorf("cluster: %d orphaned terminal snapshots quarantined to %s (recover with serve.ReadSnapshots + restore)", len(snaps), path)
}
