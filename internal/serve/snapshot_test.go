package serve

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/handover"
	"repro/internal/hexgrid"
)

func sampleSnapshot() TerminalSnapshot {
	return TerminalSnapshot{
		Terminal:    7,
		Seq:         42,
		PrevDB:      -88.5,
		HavePrev:    true,
		Serving:     hexgrid.Cell{I: 1, J: -1},
		HaveServing: true,
		Handovers:   3,
		PingPongs:   1,
		TotalEvents: 3,
		Events: []SnapshotEvent{
			{From: hexgrid.Cell{I: 0, J: 0}, To: hexgrid.Cell{I: 1, J: 0}, WalkedKm: 0.4},
			{From: hexgrid.Cell{I: 1, J: 0}, To: hexgrid.Cell{I: 0, J: 0}, WalkedKm: 0.9},
			{From: hexgrid.Cell{I: 0, J: 0}, To: hexgrid.Cell{I: 1, J: -1}, WalkedKm: 1.7},
		},
	}
}

// TestSnapshotCodecRoundTrip pins encode→decode→encode byte identity —
// the property that lets migrations compare shipped state as bytes.
func TestSnapshotCodecRoundTrip(t *testing.T) {
	for name, s := range map[string]TerminalSnapshot{
		"full":  sampleSnapshot(),
		"fresh": {Terminal: 0},
		"ring-overflow": func() TerminalSnapshot {
			s := sampleSnapshot()
			s.TotalEvents = 100
			for len(s.Events) < pingPongHistory {
				s.Events = append(s.Events, SnapshotEvent{WalkedKm: float64(len(s.Events))})
			}
			return s
		}(),
		"negative-zero-db": {Terminal: 1, PrevDB: math.Copysign(0, -1), HavePrev: true},
		"trend": func() TerminalSnapshot {
			s := sampleSnapshot()
			s.Trend = handover.TrendState{PrevSSN: -91.25, Slope: -0.5, Have: true}
			return s
		}(),
		"trend-anchored": {Terminal: 2, Trend: handover.TrendState{PrevSSN: -84, Have: true}},
	} {
		line := AppendSnapshotJSON(nil, s)
		dec, err := ParseSnapshotLine(line)
		if err != nil {
			t.Fatalf("%s: %v\nline: %s", name, err, line)
		}
		again := AppendSnapshotJSON(nil, dec)
		if !bytes.Equal(line, again) {
			t.Errorf("%s: re-encode differs:\n  %s  %s", name, line, again)
		}
	}
}

// TestSnapshotVersionByContent pins the version-selection rule: zero trend
// state emits exactly the seed v1 bytes (paper-path snapshots are
// unchanged by the trend feature), non-zero trend state emits v2 with the
// trailing trend object, and both parse back to the original state.
func TestSnapshotVersionByContent(t *testing.T) {
	plain := AppendSnapshotJSON(nil, sampleSnapshot())
	if !bytes.Contains(plain, []byte(`"v":1`)) || bytes.Contains(plain, []byte(`"trend"`)) {
		t.Errorf("zero-trend snapshot is not plain v1: %s", plain)
	}

	s := sampleSnapshot()
	s.Trend = handover.TrendState{PrevSSN: -91.25, Slope: -0.5, Have: true}
	line := AppendSnapshotJSON(nil, s)
	if !bytes.Contains(line, []byte(`"v":2`)) ||
		!bytes.Contains(line, []byte(`"trend":{"prev_ssn":-91.25,"slope":-0.5,"have":true}`)) {
		t.Errorf("trend snapshot not encoded as v2: %s", line)
	}
	dec, err := ParseSnapshotLine(line)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Trend != s.Trend {
		t.Errorf("trend state %+v, want %+v", dec.Trend, s.Trend)
	}

	// Validate refuses non-finite trend state (struct-built snapshots on
	// the Restore path; the wire cannot carry NaN).
	s.Trend.Slope = math.NaN()
	if err := s.Validate(); err == nil {
		t.Error("NaN trend slope validated")
	}
}

// TestSnapshotParseRejects pins the validation gate: snapshots that
// would corrupt a restored terminal are refused whole.
func TestSnapshotParseRejects(t *testing.T) {
	for name, tc := range map[string]struct {
		line string
		want string
	}{
		"wrong-version":   {`{"v":3,"terminal":1}`, "version"},
		"missing-version": {`{"terminal":1}`, "version"},
		"trend-on-v1":     {`{"v":1,"terminal":1,"trend":{"prev_ssn":-90,"slope":1,"have":true}}`, "trend"},
		"trend-bad-type":  {`{"v":2,"terminal":1,"trend":{"prev_ssn":"x"}}`, "malformed"},
		"broken-json":     {`{"v":1,`, "malformed"},
		"event-mismatch":  {`{"v":1,"terminal":1,"total_events":2,"events":[]}`, "events"},
		"overflow-total":  {`{"v":1,"terminal":1,"total_events":99999999999}`, "out of range"},
		"overflow-tally":  {`{"v":1,"terminal":1,"handovers":4294967296}`, "out of range"},
		"overflow-pp":     {`{"v":1,"terminal":1,"handovers":1,"pingpongs":4294967296}`, "out of range"},
	} {
		if _, err := ParseSnapshotLine([]byte(tc.line)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: ParseSnapshotLine = %v, want error containing %q", name, err, tc.want)
		}
	}
	if _, err := ParseSnapshotLine([]byte(`{"v":1,"terminal":1,"handovers":4294967295,"pingpongs":4294967295}`)); err != nil {
		t.Errorf("tallies at the uint32 bound: %v", err)
	}
	bad := sampleSnapshot()
	bad.PrevDB = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN prev_db validated")
	}
}

// TestSnapshotFileRoundTrip pins the whole-node file format.
func TestSnapshotFileRoundTrip(t *testing.T) {
	snaps := []TerminalSnapshot{sampleSnapshot(), {Terminal: 9, Seq: 1}}
	var buf bytes.Buffer
	if err := WriteSnapshots(&buf, snaps); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshots(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snaps) {
		t.Fatalf("read %d snapshots, wrote %d", len(got), len(snaps))
	}
	for i := range snaps {
		if !bytes.Equal(AppendSnapshotJSON(nil, got[i]), AppendSnapshotJSON(nil, snaps[i])) {
			t.Errorf("snapshot %d changed across the file round trip", i)
		}
	}
}

// runEngineSegments serves the report stream through cfg-configured
// engines, migrating the full population through snapshots at each
// segment boundary, and returns the per-terminal outcome sequences.
func runEngineSegments(t *testing.T, cfg Config, terminals int, segments [][]Report) recorder {
	t.Helper()
	rec := newRecorder(terminals)
	cfg.OnDecision = rec.record
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i, seg := range segments {
		if err := e.SubmitBatch(seg); err != nil {
			t.Fatal(err)
		}
		if i == len(segments)-1 {
			break
		}
		// Move the whole population to a fresh engine mid-stream.  No
		// explicit Flush: the extract control message rides the shard
		// queues behind the segment's reports.
		snaps, err := e.ExtractSnapshots(func(TerminalID) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
		// Codec round trip on the way: migrated state travels as lines.
		var buf bytes.Buffer
		if err := WriteSnapshots(&buf, snaps); err != nil {
			t.Fatal(err)
		}
		decoded, err := ReadSnapshots(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Stop(); err != nil {
			t.Fatal(err)
		}
		next, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Start(); err != nil {
			t.Fatal(err)
		}
		if err := next.RestoreSnapshots(decoded); err != nil {
			t.Fatal(err)
		}
		e = next
	}
	e.Flush()
	e.Stop()
	return rec
}

// TestSnapshotMigrationPreservesSequences is the codec's load-bearing
// guarantee: extract → encode → decode → restore into a fresh engine
// mid-stream, and every terminal's decision sequence is byte-identical
// to an uninterrupted engine — across decision modes.
func TestSnapshotMigrationPreservesSequences(t *testing.T) {
	streams, _ := simStreams(t, paperFleetConfigs())
	terminals := len(streams)
	all := InterleaveReports(streams)
	// Three segments: handovers and ping-pong windows straddle both cuts.
	segs := [][]Report{all[:len(all)/3], all[len(all)/3 : 2*len(all)/3], all[2*len(all)/3:]}

	for name, cfg := range map[string]Config{
		"exact":    {Shards: 3},
		"compiled": {Shards: 3, Compiled: true},
		"adaptive": {Shards: 3, AlgorithmFactory: func() handover.Algorithm { return handover.NewAdaptiveFuzzy() }},
		// The trend scorer's per-terminal derivation rides the snapshot's
		// v2 trend object; losing it across the cut would diverge here.
		"trendfuzzy": {Shards: 3, AlgorithmFactory: func() handover.Algorithm {
			a, err := handover.NewCompiledTrendFuzzy()
			if err != nil {
				panic(err)
			}
			return a
		}},
	} {
		ref := newRecorder(terminals)
		rcfg := cfg
		rcfg.OnDecision = ref.record
		e, err := New(rcfg)
		if err != nil {
			t.Fatal(err)
		}
		e.Start()
		if err := e.SubmitBatch(all); err != nil {
			t.Fatal(err)
		}
		e.Flush()
		e.Stop()

		got := runEngineSegments(t, cfg, terminals, segs)
		for id := 0; id < terminals; id++ {
			want, have := *ref[TerminalID(id)], *got[TerminalID(id)]
			if len(have) != len(want) {
				t.Fatalf("%s terminal %d: %d outcomes across migrations, %d uninterrupted", name, id, len(have), len(want))
			}
			for j := range want {
				w, h := want[j], have[j]
				if h.Seq != w.Seq || h.Decision != w.Decision || h.Executed != w.Executed || h.PingPong != w.PingPong {
					t.Fatalf("%s terminal %d epoch %d: migrated %+v ≠ uninterrupted %+v", name, id, j, h, w)
				}
			}
		}
	}
}

// TestSnapshotAPISemantics pins the non-migration contracts: whole-node
// snapshots do not disturb state, and restores refuse live terminals.
func TestSnapshotAPISemantics(t *testing.T) {
	e, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	rs := clientTestReports(8, 6)
	if err := e.SubmitBatch(rs); err != nil {
		t.Fatal(err)
	}
	snaps, err := e.SnapshotTerminals()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 8 {
		t.Fatalf("SnapshotTerminals returned %d, want 8", len(snaps))
	}
	if tot := e.Stats().Totals(); tot.Terminals != 8 {
		t.Fatalf("non-destructive snapshot changed population: %d terminals", tot.Terminals)
	}
	// Restoring over live terminals must fail per terminal.
	err = e.RestoreSnapshots(snaps[:1])
	var ee *TerminalExistsError
	if !errors.As(err, &ee) {
		t.Fatalf("restore over live terminal: %v", err)
	}
	// Extract removes: the terminal is forgotten.
	victim := snaps[0].Terminal
	ext, err := e.ExtractSnapshots(func(id TerminalID) bool { return id == victim })
	if err != nil || len(ext) != 1 {
		t.Fatalf("extract: %v (%d snaps)", err, len(ext))
	}
	if tot := e.Stats().Totals(); tot.Terminals != 7 {
		t.Fatalf("extract did not remove: %d terminals", tot.Terminals)
	}
	if err := e.RestoreSnapshots(ext); err != nil {
		t.Fatalf("restore after extract: %v", err)
	}
}

// TestTwoPhasePrimitives pins the copy/commit/replay primitives a
// two-phase migration is built from: SnapshotWhere copies without
// removing, DiscardTerminals removes without capturing (and counts),
// and RestoreSnapshotsSkipLive installs exactly the missing terminals —
// the idempotent replay form crash recovery leans on.
func TestTwoPhasePrimitives(t *testing.T) {
	e, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	e.Start()
	defer e.Stop()
	if err := e.SubmitBatch(clientTestReports(8, 6)); err != nil {
		t.Fatal(err)
	}
	moving := func(id TerminalID) bool { return id%2 == 0 }

	// Copy phase: the source still serves everything it copied.
	copies, err := e.SnapshotWhere(moving)
	if err != nil {
		t.Fatal(err)
	}
	if len(copies) != 4 {
		t.Fatalf("SnapshotWhere copied %d terminals, want 4", len(copies))
	}
	if tot := e.Stats().Totals(); tot.Terminals != 8 {
		t.Fatalf("copy phase changed population: %d terminals, want 8", tot.Terminals)
	}

	// The destination of the move.
	dst, err := New(Config{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dst.Start()
	defer dst.Stop()
	if err := dst.RestoreSnapshots(copies); err != nil {
		t.Fatal(err)
	}

	// Release phase: the originals drop without being captured again.
	n, err := e.DiscardTerminals(moving)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("DiscardTerminals dropped %d, want 4", n)
	}
	if tot := e.Stats().Totals(); tot.Terminals != 4 {
		t.Fatalf("release left %d terminals, want 4", tot.Terminals)
	}
	// Releasing again is a no-op, not an error.
	if n, err := e.DiscardTerminals(moving); err != nil || n != 0 {
		t.Fatalf("second release = (%d, %v), want (0, nil)", n, err)
	}

	// Idempotent replay: re-restoring the same copies over a live
	// destination skips every one of them; a half-done restore replayed
	// installs exactly the missing terminals.
	if n, err := dst.RestoreSnapshotsSkipLive(copies); err != nil || n != 0 {
		t.Fatalf("skip-live over live terminals = (%d, %v), want (0, nil)", n, err)
	}
	if _, err := dst.ExtractSnapshots(func(id TerminalID) bool { return id == copies[0].Terminal }); err != nil {
		t.Fatal(err)
	}
	if n, err := dst.RestoreSnapshotsSkipLive(copies); err != nil || n != 1 {
		t.Fatalf("skip-live replay after partial loss = (%d, %v), want (1, nil)", n, err)
	}
	if tot := dst.Stats().Totals(); tot.Terminals != 4 {
		t.Fatalf("destination serves %d terminals after replay, want 4", tot.Terminals)
	}
}
