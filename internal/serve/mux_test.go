package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

func muxReportLine(terminal uint64, servingDB float64) string {
	return fmt.Sprintf(`{"terminal":%d,"serving":[0,0],"neighbor":[1,0],"serving_db":%g,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`,
		terminal, servingDB)
}

// bindTerminals claims ids for b through the Submit path with a no-op
// submit, returning the first error.
func bindTerminals(b *Binding, ids ...TerminalID) error {
	rs := make([]Report, len(ids))
	for i, id := range ids {
		rs[i] = Report{Terminal: id}
	}
	return b.Submit(rs, func([]Report) error { return nil })
}

// TestDecisionMuxExclusiveOwnership pins the ownership rule: first
// claimer owns, a conflicting anonymous claim fails with
// *OwnershipError, release frees the terminal for re-claiming.
func TestDecisionMuxExclusiveOwnership(t *testing.T) {
	mux := NewDecisionMux()
	a := NewBinding(mux, NewSink(&bytes.Buffer{}))
	b := NewBinding(mux, NewSink(&bytes.Buffer{}))

	if err := bindTerminals(a, 7); err != nil {
		t.Fatal(err)
	}
	if err := bindTerminals(a, 7); err != nil {
		t.Fatalf("owner rebind: %v", err)
	}
	err := bindTerminals(b, 7)
	var oe *OwnershipError
	if !errors.As(err, &oe) || oe.Terminal != 7 {
		t.Fatalf("conflicting bind: %v", err)
	}
	// Other terminals are unaffected.
	if err := bindTerminals(b, 8); err != nil {
		t.Fatal(err)
	}
	// Releasing a frees 7 but not b's 8.
	a.Release()
	if err := bindTerminals(b, 7); err != nil {
		t.Fatalf("re-claim after release: %v", err)
	}
	if err := bindTerminals(NewBinding(mux, NewSink(&bytes.Buffer{})), 8); err == nil {
		t.Fatal("b's claim vanished with a's release")
	}
	// A released binding refuses further submits.
	if err := bindTerminals(a, 9); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("submit after release: %v", err)
	}
}

// TestDecisionMuxRoutesToOwner: outcomes reach the owning sink only.
func TestDecisionMuxRoutesToOwner(t *testing.T) {
	mux := NewDecisionMux()
	var bufA, bufB bytes.Buffer
	a, b := NewBinding(mux, NewSink(&bufA)), NewBinding(mux, NewSink(&bufB))
	if err := bindTerminals(a, 1); err != nil {
		t.Fatal(err)
	}
	if err := bindTerminals(b, 2); err != nil {
		t.Fatal(err)
	}
	mux.Route(Outcome{Terminal: 1, Seq: 0})
	mux.Route(Outcome{Terminal: 2, Seq: 0})
	mux.Route(Outcome{Terminal: 3, Seq: 0}) // unowned: dropped
	a.sink.Flush()
	b.sink.Flush()
	if got := bufA.String(); !strings.Contains(got, `"terminal":1`) || strings.Contains(got, `"terminal":2`) {
		t.Errorf("sink a got %q", got)
	}
	if got := bufB.String(); !strings.Contains(got, `"terminal":2`) || strings.Contains(got, `"terminal":1`) {
		t.Errorf("sink b got %q", got)
	}
}

// TestIngestDuplicateTerminalAcrossConnections is the regression test for
// duplicate terminal ownership in TCP mode: two clients submitting the
// same TerminalID must not interleave one terminal's state stream.  The
// second client's conflicting line is rejected whole; after the first
// client disconnects (Release), the terminal can be re-claimed.
func TestIngestDuplicateTerminalAcrossConnections(t *testing.T) {
	mux := NewDecisionMux()
	e, err := New(Config{Shards: 2, QueueDepth: 16, OnDecision: mux.Route})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	var outA, outB bytes.Buffer
	bndA, bndB := NewBinding(mux, NewSink(&outA)), NewBinding(mux, NewSink(&outB))

	// Client A claims terminals 1 and 2.
	var rejectsA []error
	IngestLines(strings.NewReader(muxReportLine(1, -88)+"\n"+muxReportLine(2, -88)+"\n"),
		bndA, e.SubmitBatch, nil, func(_ int, err error) { rejectsA = append(rejectsA, err) })
	if len(rejectsA) != 0 {
		t.Fatalf("client A rejected: %v", rejectsA)
	}

	// Client B submits a batch touching its own terminal 3 and A's
	// terminal 1: the whole line must be rejected with an ownership error
	// and nothing from it submitted.
	conflict := "[" + muxReportLine(3, -90) + "," + muxReportLine(1, -90) + "]\n"
	var rejectsB []error
	lines, bad := IngestLines(strings.NewReader(conflict+muxReportLine(4, -91)+"\n"),
		bndB, e.SubmitBatch, nil, func(_ int, err error) { rejectsB = append(rejectsB, err) })
	if lines != 2 || bad != 1 || len(rejectsB) != 1 {
		t.Fatalf("lines=%d bad=%d rejects=%v", lines, bad, rejectsB)
	}
	var oe *OwnershipError
	if !errors.As(rejectsB[0], &oe) || oe.Terminal != 1 {
		t.Fatalf("reject is %v, want ownership conflict on terminal 1", rejectsB[0])
	}

	e.Flush()
	bndA.sink.Flush()
	bndB.sink.Flush()
	if got := outB.String(); strings.Contains(got, `"terminal":1`) {
		t.Errorf("client B received decisions for A's terminal: %q", got)
	}
	if got := outA.String(); !strings.Contains(got, `"terminal":1`) || !strings.Contains(got, `"terminal":2`) {
		t.Errorf("client A missing its decisions: %q", got)
	}
	// Terminal 1 decided exactly once: B's conflicting report never ran.
	if n := strings.Count(outA.String()+outB.String(), `"terminal":1,`); n != 1 {
		t.Errorf("terminal 1 decided %d times, want 1", n)
	}

	// A disconnects; B can now claim terminal 1 and its decisions flow to B.
	bndA.Release()
	var rejects2 []error
	IngestLines(strings.NewReader(muxReportLine(1, -92)+"\n"),
		bndB, e.SubmitBatch, nil, func(_ int, err error) { rejects2 = append(rejects2, err) })
	if len(rejects2) != 0 {
		t.Fatalf("post-release claim rejected: %v", rejects2)
	}
	e.Flush()
	bndB.sink.Flush()
	if got := outB.String(); !strings.Contains(got, `"terminal":1,`) {
		t.Errorf("client B did not receive re-claimed terminal's decision: %q", got)
	}
}

// TestIngestServesValidatedPrefix pins the partial-batch ingest policy: a
// line whose batch fails validation mid-way serves the validated prefix
// and reports the failing index; later lines keep flowing.
func TestIngestServesValidatedPrefix(t *testing.T) {
	mux := NewDecisionMux()
	e, err := New(Config{Shards: 1, QueueDepth: 16, OnDecision: mux.Route})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	var out bytes.Buffer
	bnd := NewBinding(mux, NewSink(&out))
	badReport := `{"terminal":9,"serving":[0,0],"neighbor":[1,0],"dmb":-2}`
	mixed := "[" + muxReportLine(1, -88) + "," + muxReportLine(2, -88) + "," + badReport + "]\n"
	var rejects []error
	lines, bad := IngestLines(strings.NewReader(mixed+muxReportLine(3, -89)+"\n"),
		bnd, e.SubmitBatch, nil, func(_ int, err error) { rejects = append(rejects, err) })
	if lines != 2 || bad != 1 {
		t.Fatalf("lines=%d bad=%d", lines, bad)
	}
	if len(rejects) != 1 || !strings.Contains(rejects[0].Error(), "report 2") {
		t.Fatalf("rejects %v", rejects)
	}
	e.Flush()
	bnd.sink.Flush()
	got := out.String()
	for _, want := range []string{`"terminal":1,`, `"terminal":2,`, `"terminal":3,`} {
		if !strings.Contains(got, want) {
			t.Errorf("prefix/later decisions missing %s in %q", want, got)
		}
	}
	if strings.Contains(got, `"terminal":9`) {
		t.Errorf("invalid report decided: %q", got)
	}
}

// TestBindingTakeoverByIdentity is the reconnect-vs-drain regression
// test: a new connection announcing the same identity as a still-bound
// old connection takes the old connection's claims — after the mux
// drain barrier ran — instead of bouncing off them, and the old binding
// is fenced out of further submits.
func TestBindingTakeoverByIdentity(t *testing.T) {
	mux := NewDecisionMux()
	drains := 0
	mux.Drain = func() error { drains++; return nil }
	var bufOld, bufNew bytes.Buffer
	old := NewBinding(mux, NewSink(&bufOld))
	old.SetIdentity("client-x")
	if err := bindTerminals(old, 1, 2, 3); err != nil {
		t.Fatal(err)
	}

	// A different identity still conflicts.
	other := NewBinding(mux, NewSink(&bytes.Buffer{}))
	other.SetIdentity("client-y")
	var oe *OwnershipError
	if err := bindTerminals(other, 1); !errors.As(err, &oe) {
		t.Fatalf("cross-identity claim: %v", err)
	}
	// An anonymous binding conflicts too.
	if err := bindTerminals(NewBinding(mux, NewSink(&bytes.Buffer{})), 1); !errors.As(err, &oe) {
		t.Fatalf("anonymous claim: %v", err)
	}

	// The same identity takes over ALL of the old binding's claims.
	reborn := NewBinding(mux, NewSink(&bufNew))
	reborn.SetIdentity("client-x")
	if err := bindTerminals(reborn, 1); err != nil {
		t.Fatalf("same-identity takeover: %v", err)
	}
	if drains != 1 {
		t.Fatalf("takeover ran %d drains, want 1", drains)
	}
	if !old.Superseded() {
		t.Fatal("old binding not revoked by takeover")
	}
	if err := bindTerminals(old, 4); !errors.Is(err, ErrSuperseded) {
		t.Fatalf("old binding submit after takeover: %v", err)
	}
	// Claims 2 and 3 moved with 1: outcomes route to the new sink.
	mux.Route(Outcome{Terminal: 2})
	mux.Route(Outcome{Terminal: 3})
	reborn.sink.Flush()
	old.sink.Flush()
	if bufOld.Len() != 0 {
		t.Errorf("old sink got post-takeover outcomes: %q", bufOld.String())
	}
	if got := bufNew.String(); !strings.Contains(got, `"terminal":2`) || !strings.Contains(got, `"terminal":3`) {
		t.Errorf("new sink missing transferred terminals: %q", got)
	}
	// The old binding's release must not free the transferred claims.
	old.Release()
	stranger := NewBinding(mux, NewSink(&bytes.Buffer{}))
	if err := bindTerminals(stranger, 2); !errors.As(err, &oe) {
		t.Fatalf("transferred claim freed by old release: %v", err)
	}
}

// TestBindingMutualTakeoverNoDeadlock pins the takeover fence's escape
// hatch: two live connections with the same identity trying to take each
// other over must both back out with ErrSuperseded, not deadlock.
func TestBindingMutualTakeoverNoDeadlock(t *testing.T) {
	for round := 0; round < 50; round++ {
		mux := NewDecisionMux()
		a := NewBinding(mux, NewSink(&bytes.Buffer{}))
		b := NewBinding(mux, NewSink(&bytes.Buffer{}))
		a.SetIdentity("same")
		b.SetIdentity("same")
		if err := bindTerminals(a, 1); err != nil {
			t.Fatal(err)
		}
		if err := bindTerminals(b, 2); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		errs := make([]error, 2)
		wg.Add(2)
		go func() { defer wg.Done(); errs[0] = bindTerminals(a, 2) }()
		go func() { defer wg.Done(); errs[1] = bindTerminals(b, 1) }()
		wg.Wait() // deadlock here fails the test by timeout
		// At most one side can win; a loser reports ErrSuperseded.
		if errs[0] == nil && errs[1] == nil {
			t.Fatalf("round %d: both mutual takeovers succeeded", round)
		}
		for i, err := range errs {
			if err != nil && !errors.Is(err, ErrSuperseded) {
				t.Fatalf("round %d: loser %d failed with %v", round, i, err)
			}
		}
	}
}

// TestIngestLongLines: ingest starts with a 64 KiB line buffer, so a
// batch line longer than that and a full restore chunk must still
// arrive whole.  A line past the 16 MiB cap ends the input and counts as
// rejected, so a daemon fed one exits non-zero.
func TestIngestLongLines(t *testing.T) {
	mux := NewDecisionMux()
	const n = 1000
	rs := make([]Report, n)
	for i := range rs {
		rs[i] = Report{Terminal: TerminalID(i), Meas: wireMeas(0, 0, 1, 0, -88.5, -84, -2.5, 1.1, 3.2, 30)}
	}
	batch := AppendBatchJSON(nil, rs)
	snaps := make([]TerminalSnapshot, snapshotChunk)
	for i := range snaps {
		snaps[i] = TerminalSnapshot{Terminal: TerminalID(i), Seq: 3, PrevDB: -88.5, HavePrev: true}
	}
	restore := AppendControlJSON(nil, WireControl{Op: "restore", Snapshots: snaps})
	if len(batch) <= 1<<16 || len(restore) <= 1<<16 {
		t.Fatalf("lines of %d and %d bytes do not exceed the initial buffer", len(batch), len(restore))
	}
	var submitted, restored int
	var rejects []error
	lines, bad := IngestLines(bytes.NewReader(append(batch, restore...)), NewBinding(mux, NewSink(io.Discard)),
		func(rs []Report) error { submitted += len(rs); return nil },
		func(c WireControl) error { restored += len(c.Snapshots); return nil },
		func(_ int, err error) { rejects = append(rejects, err) })
	if lines != 2 || bad != 0 || len(rejects) != 0 {
		t.Fatalf("lines=%d bad=%d rejects=%v", lines, bad, rejects)
	}
	if submitted != n || restored != snapshotChunk {
		t.Errorf("submitted %d reports and %d snapshots, want %d and %d", submitted, restored, n, snapshotChunk)
	}

	huge := append(bytes.Repeat([]byte(" "), 1<<24), '\n')
	submitted, rejects = 0, nil
	lines, bad = IngestLines(io.MultiReader(bytes.NewReader(huge), bytes.NewReader(AppendBatchJSON(nil, rs[:1]))),
		NewBinding(mux, NewSink(io.Discard)),
		func(rs []Report) error { submitted += len(rs); return nil }, nil,
		func(_ int, err error) { rejects = append(rejects, err) })
	if lines != 1 || bad != 1 || len(rejects) != 1 || !errors.Is(rejects[0], bufio.ErrTooLong) || submitted != 0 {
		t.Fatalf("over-cap line: lines=%d bad=%d rejects=%v submitted=%d, want 1, 1, one too-long read error, 0",
			lines, bad, rejects, submitted)
	}
}

// TestIngestReusesReportStorage: consecutive lines decode into one
// report slice, so Daemon.Submit must not retain it.
func TestIngestReusesReportStorage(t *testing.T) {
	mux := NewDecisionMux()
	line := func(id int) string {
		return `[{"terminal":` + fmt.Sprint(id) + `,"serving":[0,0],"neighbor":[1,0]}]` + "\n"
	}
	var firsts []*Report
	lines, bad := IngestLines(strings.NewReader(line(1)+line(2)), NewBinding(mux, NewSink(io.Discard)),
		func(rs []Report) error {
			firsts = append(firsts, &rs[0])
			return nil
		}, nil, func(_ int, err error) { t.Error(err) })
	if lines != 2 || bad != 0 || len(firsts) != 2 {
		t.Fatalf("lines=%d bad=%d submits=%d", lines, bad, len(firsts))
	}
	if firsts[0] != firsts[1] {
		t.Error("the second line did not reuse the first line's report storage")
	}
}
