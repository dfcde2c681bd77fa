package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// SnapshotVersion is the base terminal-snapshot codec version:
// AppendSnapshotJSON emits it for every terminal without derived feature
// state, so paper deployments' snapshot bytes never change across this
// codec's history.  SnapshotVersionTrend adds the trend-derivation object
// and is emitted exactly when that state is non-zero.  ParseSnapshotLine
// rejects any other version: a node must never restore state it cannot
// interpret bit-faithfully.
const (
	SnapshotVersion      = 1
	SnapshotVersionTrend = 2
)

// SnapshotEvent is one executed handover in a snapshot's recent-handover
// ring, oldest first.
type SnapshotEvent struct {
	From     hexgrid.Cell
	To       hexgrid.Cell
	WalkedKm float64
}

// TerminalSnapshot is the complete decision state of one terminal —
// everything the engine keeps between reports: the sequence counter, the
// previous-epoch power history, the believed attachment, the handover
// tallies and the recent-handover ring the ping-pong detector scans.
// Restoring a snapshot into a fresh engine and continuing the terminal's
// report stream yields decision sequences byte-identical to never having
// moved: the paper's controller is stateless across epochs, so this
// struct is the whole migration payload.
//
// Events holds the last min(TotalEvents, window) executed handovers,
// oldest first; TotalEvents counts every handover ever executed (the
// ring forgets, the tally does not).
type TerminalSnapshot struct {
	Terminal    TerminalID
	Seq         uint64
	PrevDB      float64
	HavePrev    bool
	Serving     hexgrid.Cell
	HaveServing bool
	Handovers   uint64
	PingPongs   uint64
	TotalEvents uint64
	Events      []SnapshotEvent
	// Trend is the terminal's SSN-trend derivation (stateful schema
	// feature state).  Zero for paper schemas — and encoded only when
	// non-zero, under SnapshotVersionTrend, so paper snapshot bytes are
	// untouched by the schema extension.
	Trend handover.TrendState
}

// maxSnapshotTotalEvents bounds TotalEvents so the restore cast to the
// terminal's uint32 event counter never truncates.
const maxSnapshotTotalEvents = 1<<31 - 1

// Validate rejects snapshots no engine can restore faithfully, among them
// any cell label outside the int32 range the engine stores cells in.
func (s TerminalSnapshot) Validate() error {
	if math.IsNaN(s.PrevDB) || math.IsInf(s.PrevDB, 0) {
		return fmt.Errorf("serve: snapshot terminal %d: prev_db is not finite", s.Terminal)
	}
	if !cellFits(s.Serving) {
		return fmt.Errorf("serve: snapshot terminal %d: serving %v outside the int32 range", s.Terminal, s.Serving)
	}
	if s.TotalEvents > maxSnapshotTotalEvents {
		return fmt.Errorf("serve: snapshot terminal %d: total_events %d out of range", s.Terminal, s.TotalEvents)
	}
	want := int(s.TotalEvents)
	if want > pingPongHistory {
		want = pingPongHistory
	}
	if len(s.Events) != want {
		return fmt.Errorf("serve: snapshot terminal %d: %d events, want min(total_events=%d, %d)=%d",
			s.Terminal, len(s.Events), s.TotalEvents, pingPongHistory, want)
	}
	for i, e := range s.Events {
		if math.IsNaN(e.WalkedKm) || math.IsInf(e.WalkedKm, 0) {
			return fmt.Errorf("serve: snapshot terminal %d: event %d walked_km is not finite", s.Terminal, i)
		}
		if !cellFits(e.From) || !cellFits(e.To) {
			return fmt.Errorf("serve: snapshot terminal %d: event %d cell %v→%v outside the int32 range", s.Terminal, i, e.From, e.To)
		}
	}
	if math.IsNaN(s.Trend.PrevSSN) || math.IsInf(s.Trend.PrevSSN, 0) ||
		math.IsNaN(s.Trend.Slope) || math.IsInf(s.Trend.Slope, 0) {
		return fmt.Errorf("serve: snapshot terminal %d: trend state is not finite", s.Terminal)
	}
	return nil
}

// snapshot captures the terminal's state.  The ring is emitted oldest
// first relative to the write cursor, so the rotation of the backing
// array — which has no behavioral meaning — does not leak into the
// encoding and two equal states encode identically.
func (t *terminal) snapshot(id TerminalID) TerminalSnapshot {
	s := TerminalSnapshot{
		Terminal:    id,
		Seq:         t.seq,
		PrevDB:      t.prevDB,
		HavePrev:    t.havePrev,
		Serving:     t.serving.cell(),
		HaveServing: t.haveServing,
		Handovers:   t.handovers,
		PingPongs:   t.pingpongs,
		TotalEvents: uint64(t.total),
		Trend:       t.derived.Trend,
	}
	for i := min(t.total, pingPongHistory); i >= 1; i-- {
		e := t.events[(uint32(t.next)-i+pingPongHistory)%pingPongHistory]
		s.Events = append(s.Events, SnapshotEvent{From: e.from.cell(), To: e.to.cell(), WalkedKm: e.walkedKm})
	}
	return s
}

// restoreFrom installs a validated snapshot into a freshly created
// terminal slot.  The ring is laid out from slot 0 with the cursor past
// the newest event — a different rotation than the source, which is
// invisible: observeHandover scans relative to the cursor only.
func (t *terminal) restoreFrom(s TerminalSnapshot) {
	t.seq = s.Seq
	t.prevDB = s.PrevDB
	t.havePrev = s.HavePrev
	t.serving = narrowCell(s.Serving)
	t.haveServing = s.HaveServing
	t.handovers = s.Handovers
	t.pingpongs = s.PingPongs
	for i, e := range s.Events {
		t.events[i] = hoEvent{from: narrowCell(e.From), to: narrowCell(e.To), walkedKm: e.WalkedKm}
	}
	t.next = uint8(len(s.Events) % pingPongHistory)
	t.total = uint32(s.TotalEvents)
	t.derived.Trend = s.Trend
}

// AppendSnapshotJSON appends the snapshot as one versioned JSON line
// (with trailing newline) to dst and returns the extended slice.  Field
// order and float formatting are fixed, so encode→decode→encode is
// byte-identical (pinned by FuzzSnapshotRoundTrip) — which is what lets
// migration tests compare shipped state for equality as bytes.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:wirepair parse=ParseSnapshotLine fuzz=FuzzSnapshotRoundTrip
func AppendSnapshotJSON(dst []byte, s TerminalSnapshot) []byte {
	return append(appendSnapshotObj(dst, s), '\n')
}

// appendSnapshotObj appends the snapshot object without the line
// terminator — the embeddable form control messages carry in their
// "snapshots" arrays.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func appendSnapshotObj(dst []byte, s TerminalSnapshot) []byte {
	v := int64(SnapshotVersion)
	if !s.Trend.IsZero() {
		v = SnapshotVersionTrend
	}
	dst = append(dst, `{"v":`...)
	dst = strconv.AppendInt(dst, v, 10)
	dst = append(dst, `,"terminal":`...)
	dst = strconv.AppendUint(dst, uint64(s.Terminal), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, s.Seq, 10)
	dst = append(dst, `,"prev_db":`...)
	dst = strconv.AppendFloat(dst, s.PrevDB, 'g', -1, 64)
	dst = append(dst, `,"have_prev":`...)
	dst = strconv.AppendBool(dst, s.HavePrev)
	dst = append(dst, `,"serving":[`...)
	dst = strconv.AppendInt(dst, int64(s.Serving.I), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(s.Serving.J), 10)
	dst = append(dst, `],"have_serving":`...)
	dst = strconv.AppendBool(dst, s.HaveServing)
	dst = append(dst, `,"handovers":`...)
	dst = strconv.AppendUint(dst, s.Handovers, 10)
	dst = append(dst, `,"pingpongs":`...)
	dst = strconv.AppendUint(dst, s.PingPongs, 10)
	dst = append(dst, `,"total_events":`...)
	dst = strconv.AppendUint(dst, s.TotalEvents, 10)
	dst = append(dst, `,"events":[`...)
	for i, e := range s.Events {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"from":[`...)
		dst = strconv.AppendInt(dst, int64(e.From.I), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.From.J), 10)
		dst = append(dst, `],"to":[`...)
		dst = strconv.AppendInt(dst, int64(e.To.I), 10)
		dst = append(dst, ',')
		dst = strconv.AppendInt(dst, int64(e.To.J), 10)
		dst = append(dst, `],"walked_km":`...)
		dst = strconv.AppendFloat(dst, e.WalkedKm, 'g', -1, 64)
		dst = append(dst, '}')
	}
	dst = append(dst, ']')
	if v == SnapshotVersionTrend {
		dst = append(dst, `,"trend":{"prev_ssn":`...)
		dst = strconv.AppendFloat(dst, s.Trend.PrevSSN, 'g', -1, 64)
		dst = append(dst, `,"slope":`...)
		dst = strconv.AppendFloat(dst, s.Trend.Slope, 'g', -1, 64)
		dst = append(dst, `,"have":`...)
		dst = strconv.AppendBool(dst, s.Trend.Have)
		dst = append(dst, '}')
	}
	return append(dst, '}')
}

// wireSnapshotEvent/wireSnapshot are the decode shapes of the snapshot
// line.
type wireSnapshotEvent struct {
	From     [2]int  `json:"from"`
	To       [2]int  `json:"to"`
	WalkedKm float64 `json:"walked_km"`
}

type wireSnapshot struct {
	V           int                 `json:"v"`
	Terminal    uint64              `json:"terminal"`
	Seq         uint64              `json:"seq"`
	PrevDB      float64             `json:"prev_db"`
	HavePrev    bool                `json:"have_prev"`
	Serving     [2]int              `json:"serving"`
	HaveServing bool                `json:"have_serving"`
	Handovers   uint64              `json:"handovers"`
	PingPongs   uint64              `json:"pingpongs"`
	TotalEvents uint64              `json:"total_events"`
	Events      []wireSnapshotEvent `json:"events"`
	Trend       *wireTrend          `json:"trend"`
}

// wireTrend is the decode shape of the v2 trend-derivation object.
type wireTrend struct {
	PrevSSN float64 `json:"prev_ssn"`
	Slope   float64 `json:"slope"`
	Have    bool    `json:"have"`
}

// snapshot converts the decode shape, enforcing version and validity.
// A v1 line carrying a trend object is rejected — trend state exists
// only under SnapshotVersionTrend, and silently dropping it would skew
// the restored terminal's decision stream.
func (w wireSnapshot) snapshot() (TerminalSnapshot, error) {
	if w.V != SnapshotVersion && w.V != SnapshotVersionTrend {
		return TerminalSnapshot{}, fmt.Errorf("serve: snapshot version %d not supported (this build speaks %d..%d)", w.V, SnapshotVersion, SnapshotVersionTrend)
	}
	if w.V == SnapshotVersion && w.Trend != nil {
		return TerminalSnapshot{}, fmt.Errorf("serve: snapshot version %d does not carry trend state", SnapshotVersion)
	}
	s := TerminalSnapshot{
		Terminal:    TerminalID(w.Terminal),
		Seq:         w.Seq,
		PrevDB:      w.PrevDB,
		HavePrev:    w.HavePrev,
		Serving:     hexgrid.Cell{I: w.Serving[0], J: w.Serving[1]},
		HaveServing: w.HaveServing,
		Handovers:   w.Handovers,
		PingPongs:   w.PingPongs,
		TotalEvents: w.TotalEvents,
	}
	if w.Trend != nil {
		s.Trend = handover.TrendState{PrevSSN: w.Trend.PrevSSN, Slope: w.Trend.Slope, Have: w.Trend.Have}
	}
	for _, e := range w.Events {
		s.Events = append(s.Events, SnapshotEvent{
			From:     hexgrid.Cell{I: e.From[0], J: e.From[1]},
			To:       hexgrid.Cell{I: e.To[0], J: e.To[1]},
			WalkedKm: e.WalkedKm,
		})
	}
	if err := s.Validate(); err != nil {
		return TerminalSnapshot{}, err
	}
	return s, nil
}

// ParseSnapshotLine decodes and validates one snapshot line.  Unknown
// versions and structurally inconsistent snapshots (event count not
// matching the tally, non-finite floats) are rejected: restoring them
// would corrupt a terminal's decision stream silently.
//
//fuzzyho:deterministic
func ParseSnapshotLine(line []byte) (TerminalSnapshot, error) {
	var w wireSnapshot
	if err := json.Unmarshal(trimSpace(line), &w); err != nil {
		return TerminalSnapshot{}, fmt.Errorf("serve: malformed snapshot line: %w", err)
	}
	return w.snapshot()
}

// WriteSnapshots writes the snapshots as newline-JSON, one line each —
// the whole-node snapshot file format of hoserve -snapshot.
func WriteSnapshots(w io.Writer, snaps []TerminalSnapshot) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf []byte
	for _, s := range snaps {
		buf = AppendSnapshotJSON(buf[:0], s)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSnapshots decodes a newline-JSON snapshot stream to completion.
// Any bad line fails the whole read: a partially restored node would
// serve some terminals from reset state, which is exactly the silent
// corruption snapshots exist to prevent.
func ReadSnapshots(r io.Reader) ([]TerminalSnapshot, error) {
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var snaps []TerminalSnapshot
	line := 0
	for scanner.Scan() {
		line++
		if len(trimSpace(scanner.Bytes())) == 0 {
			continue
		}
		s, err := ParseSnapshotLine(scanner.Bytes())
		if err != nil {
			return nil, fmt.Errorf("snapshot line %d: %w", line, err)
		}
		snaps = append(snaps, s)
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	return snaps, nil
}

// TerminalExistsError reports a restore of a terminal the engine already
// serves — restoring over live state would discard decided history.
type TerminalExistsError struct{ Terminal TerminalID }

func (e *TerminalExistsError) Error() string {
	return fmt.Sprintf("serve: terminal %d already live on this engine; refusing to restore over it", e.Terminal)
}

// shardCtl is a control message on a shard's ingest queue.  Because it
// rides the same ordered queue as report sub-batches, the shard handles
// it only after deciding every report enqueued before it — queue order
// IS the drain barrier of the migration protocol, with no stop-the-world
// flush.
type shardCtl struct {
	// pred, when non-nil, selects terminals to snapshot; remove also
	// deletes them (extract).  snaps receives the result, unless discard
	// drops the state instead of capturing it (release) — then count
	// tallies the terminals removed.
	pred    func(TerminalID) bool
	remove  bool
	discard bool
	snaps   []TerminalSnapshot
	// install, when non-empty, restores these snapshots into the shard.
	// skipLive makes already-live terminals a silent no-op instead of a
	// *TerminalExistsError — the idempotent-replay form; count tallies
	// the snapshots actually installed.
	install  []TerminalSnapshot
	skipLive bool
	count    int
	err      error
	done     chan *shardCtl
}

// handleCtl executes one control message on the shard goroutine.
func (s *shard) handleCtl(c *shardCtl) {
	if c.pred != nil {
		var removed []TerminalID
		s.store.forEach(func(id TerminalID, t *terminal) {
			if !c.pred(id) {
				return
			}
			if c.discard {
				c.count++
			} else {
				c.snaps = append(c.snaps, t.snapshot(id))
			}
			if c.remove {
				removed = append(removed, id)
			}
		})
		for _, id := range removed {
			s.store.remove(id, mix64(uint64(id)))
			s.nTerminals.Add(^uint64(0))
		}
	}
	for _, snap := range c.install {
		t, created := s.store.acquire(snap.Terminal, mix64(uint64(snap.Terminal)))
		if !created {
			if !c.skipLive {
				c.err = errors.Join(c.err, &TerminalExistsError{Terminal: snap.Terminal})
			}
			continue
		}
		s.nTerminals.Add(1)
		t.restoreFrom(snap)
		c.count++
	}
	c.done <- c
}

// runCtls enqueues one prepared control message per shard and waits for
// all of them, joining errors and concatenating results in shard order.
func (e *Engine) runCtls(ctls []*shardCtl) ([]TerminalSnapshot, error) {
	done := make(chan *shardCtl, len(e.shards))
	e.mu.RLock()
	if e.state != stateRunning {
		e.mu.RUnlock()
		return nil, ErrNotRunning
	}
	for i, s := range e.shards {
		ctls[i].done = done
		s.in <- shardMsg{ctl: ctls[i]}
	}
	e.mu.RUnlock()
	for range ctls {
		<-done
	}
	var snaps []TerminalSnapshot
	var err error
	for _, c := range ctls {
		snaps = append(snaps, c.snaps...)
		err = errors.Join(err, c.err)
	}
	return snaps, err
}

// snapshotWhere snapshots (and optionally removes) every terminal
// matching pred, across all shards.
func (e *Engine) snapshotWhere(pred func(TerminalID) bool, remove bool) ([]TerminalSnapshot, error) {
	start := time.Now()
	ctls := make([]*shardCtl, len(e.shards))
	for i := range ctls {
		ctls[i] = &shardCtl{pred: pred, remove: remove}
	}
	snaps, err := e.runCtls(ctls)
	if e.metrics != nil {
		e.metrics.snapshot.ObserveDuration(time.Since(start))
	}
	return snaps, err
}

// SnapshotTerminals captures the decision state of every live terminal
// without disturbing it — the whole-node snapshot of crash recovery.
// Reports submitted before the call are decided before the capture (the
// control message rides the shard queues); reports submitted after it
// are not included.
func (e *Engine) SnapshotTerminals() ([]TerminalSnapshot, error) {
	return e.snapshotWhere(func(TerminalID) bool { return true }, false)
}

// ExtractSnapshots captures and removes every terminal matching pred —
// the donor half of a migration.  After it returns, the engine no longer
// serves those terminals: a later report for one re-creates it from
// zero, so the caller must re-route before resuming their streams.
func (e *Engine) ExtractSnapshots(pred func(TerminalID) bool) ([]TerminalSnapshot, error) {
	if pred == nil {
		return nil, fmt.Errorf("serve: ExtractSnapshots requires a predicate")
	}
	return e.snapshotWhere(pred, true)
}

// SnapshotWhere captures every terminal matching pred without removing
// it — the copy phase of a two-phase migration: the source keeps serving
// (and holding) the state until the copies have landed on the
// destination and a later DiscardTerminals releases the originals.
func (e *Engine) SnapshotWhere(pred func(TerminalID) bool) ([]TerminalSnapshot, error) {
	if pred == nil {
		return nil, fmt.Errorf("serve: SnapshotWhere requires a predicate")
	}
	return e.snapshotWhere(pred, false)
}

// DiscardTerminals removes every terminal matching pred without
// capturing snapshots, returning how many were dropped — the release
// phase of a two-phase migration, after the copies landed elsewhere.
// Discarding state no other node holds loses it; callers sequence a
// successful restore on the destination first.
func (e *Engine) DiscardTerminals(pred func(TerminalID) bool) (int, error) {
	if pred == nil {
		return 0, fmt.Errorf("serve: DiscardTerminals requires a predicate")
	}
	ctls := make([]*shardCtl, len(e.shards))
	for i := range ctls {
		ctls[i] = &shardCtl{pred: pred, remove: true, discard: true}
	}
	_, err := e.runCtls(ctls)
	n := 0
	for _, c := range ctls {
		n += c.count
	}
	return n, err
}

// RestoreSnapshots installs validated snapshots — the recipient half of
// a migration, or a whole-node restore.  Restoring a terminal the engine
// already serves fails with *TerminalExistsError (joined across the
// batch); the remaining snapshots are still installed.
func (e *Engine) RestoreSnapshots(snaps []TerminalSnapshot) error {
	_, err := e.restoreSnaps(snaps, false)
	return err
}

// RestoreSnapshotsSkipLive installs snapshots like RestoreSnapshots but
// silently skips terminals the engine already serves, returning how many
// were actually installed.  This is the idempotent replay form crash
// recovery needs: re-running a half-done restore installs exactly the
// missing terminals and never disturbs live ones.
func (e *Engine) RestoreSnapshotsSkipLive(snaps []TerminalSnapshot) (int, error) {
	return e.restoreSnaps(snaps, true)
}

func (e *Engine) restoreSnaps(snaps []TerminalSnapshot, skipLive bool) (int, error) {
	if len(snaps) == 0 {
		return 0, nil
	}
	for _, s := range snaps {
		if err := s.Validate(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	ctls := make([]*shardCtl, len(e.shards))
	for i := range ctls {
		ctls[i] = &shardCtl{skipLive: skipLive}
	}
	for _, s := range snaps {
		idx := e.ShardOf(s.Terminal)
		ctls[idx].install = append(ctls[idx].install, s)
	}
	_, err := e.runCtls(ctls)
	if e.metrics != nil {
		e.metrics.restore.ObserveDuration(time.Since(start))
	}
	n := 0
	for _, c := range ctls {
		n += c.count
	}
	return n, err
}

// WriteSnapshotFile atomically persists the snapshots to path: the bytes
// land in a uniquely named temp file in the same directory, are fsync'd,
// and replace path with one rename.  A crash mid-write never truncates
// or corrupts the previous good snapshot, and concurrent writers (a
// periodic Snapshotter racing a shutdown snapshot) each complete — last
// rename wins.
func WriteSnapshotFile(path string, snaps []TerminalSnapshot) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	tmp := f.Name()
	err = WriteSnapshots(f, snaps)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("serve: snapshot %s: %w", path, err)
	}
	return nil
}

// ReadSnapshotFile loads a snapshot file written by WriteSnapshotFile.
func ReadSnapshotFile(path string) ([]TerminalSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snaps, err := ReadSnapshots(f)
	if err != nil {
		// A parse error already names the line and the package.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return snaps, nil
}
