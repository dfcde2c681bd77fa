package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
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

// TestDecisionMuxBindAllocs: submitting reports for terminals the
// binding already claims, and routing their outcomes, allocate nothing.
// The IDs lie past 255, which a table keyed by interface values would
// box on every lookup.
func TestDecisionMuxBindAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the regression runs in the non-race job")
	}
	mux := NewDecisionMux()
	b := NewBinding(mux, NewSink(io.Discard))
	rs := make([]Report, 64)
	for i := range rs {
		rs[i] = Report{Terminal: TerminalID(1000 + 7*i)}
	}
	submit := func([]Report) error { return nil }
	if err := b.Submit(rs, submit); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := b.Submit(rs, submit); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Submit of %d claimed terminals makes %v allocs, want 0", len(rs), n)
	}
	o := Outcome{Terminal: rs[5].Terminal, Seq: 3}
	if n := testing.AllocsPerRun(100, func() { mux.Route(o) }); n != 0 {
		t.Errorf("Route makes %v allocs, want 0", n)
	}
}

// TestDecisionMuxBytesPerClaim bounds the heap of a mux and its claim
// table per claimed terminal, at a node's share of a wire-cluster run
// (4,096 claims) and at a large population, and checks that releasing
// every claim returns the table.
func TestDecisionMuxBytesPerClaim(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the regression runs in the non-race job")
	}
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, n := range []int{1 << 12, 1 << 16} {
		rs := make([]Report, 64)
		submit := func([]Report) error { return nil }
		before := heap()
		mux := NewDecisionMux()
		b := NewBinding(mux, nil)
		for i := 0; i < n; i += len(rs) {
			for k := range rs {
				rs[k] = Report{Terminal: TerminalID(1000 + i + k)}
			}
			if err := b.Submit(rs, submit); err != nil {
				t.Fatal(err)
			}
		}
		claimed := heap()
		if got := mux.Claims().Terminals; got != n {
			t.Fatalf("%d terminals claimed, want %d", got, n)
		}
		perClaim := float64(claimed-before) / float64(n)
		t.Logf("%d claims cost %.1f B each", n, perClaim)
		if perClaim > 64 {
			t.Errorf("%d claims cost %.1f B each, want ≤ 64", n, perClaim)
		}
		b.Release()
		if left := heap() - before; left > 256 {
			t.Errorf("a fully released mux still holds %d B of %d former claims", left, n)
		}
		runtime.KeepAlive(b)
	}
}

// TestDecisionMuxConcurrentClaims drives the claim table from several
// connections at once while shard-side goroutines route outcomes:
// bindings of distinct identities submit overlapping and disjoint
// terminal ranges, a same-identity pair takes claims from each other,
// and one binding releases part-way.  After the superseded bindings
// release, as their connections would on ErrSuperseded, every claim
// belongs to a live binding, no terminal was won by two distinct live
// identities, and each of those identities still owns every terminal it
// won.  Meant to run under -race.
func TestDecisionMuxConcurrentClaims(t *testing.T) {
	mux := NewDecisionMux()
	mux.Drain = func() error { return nil }
	type worker struct {
		b       *Binding
		lo, hi  TerminalID
		release bool
		won     []TerminalID
	}
	newWorker := func(ident string, lo, hi TerminalID, release bool) *worker {
		b := NewBinding(mux, NewSink(io.Discard))
		b.SetIdentity(ident)
		return &worker{b: b, lo: 1000 + lo, hi: 1000 + hi, release: release}
	}
	// a and b share [256, 384), b and c [512, 640), c and the s pair
	// [768, 896), s1 and s2 [896, 1024); each also has a range of its own.
	a, b := newWorker("a", 0, 384, false), newWorker("b", 256, 768, false)
	ws := []*worker{a, b, newWorker("c", 512, 896, true), newWorker("s", 768, 1024, false), newWorker("s", 896, 1152, false)}

	var done sync.WaitGroup
	var stop atomic.Bool
	for r := 0; r < 2; r++ {
		done.Add(1)
		go func() {
			defer done.Done()
			for !stop.Load() {
				for id := TerminalID(1000); id < 1000+1152; id += 7 {
					mux.Route(Outcome{Terminal: id})
				}
			}
		}()
	}
	var submitters sync.WaitGroup
	start := make(chan struct{})
	for _, w := range ws {
		submitters.Add(1)
		go func() {
			defer submitters.Done()
			<-start
			for round := 0; round < 4; round++ {
				if w.release && round == 2 {
					w.b.Release()
					return
				}
				// Odd rounds walk the range backwards, so claim races
				// meet from both ends.
				for k := TerminalID(0); k < w.hi-w.lo; k++ {
					id := w.lo + k
					if round%2 == 1 {
						id = w.hi - 1 - k
					}
					err := bindTerminals(w.b, id)
					if errors.Is(err, ErrSuperseded) {
						return
					}
					if err == nil {
						w.won = append(w.won, id)
					}
				}
			}
		}()
	}
	close(start)
	submitters.Wait()
	stop.Store(true)
	done.Wait()
	for _, w := range ws {
		if w.b.Superseded() {
			w.b.Release()
		}
	}

	for id, owner := range mux.claims {
		if owner.Superseded() {
			t.Errorf("terminal %d is still claimed by a released or superseded binding", id)
		}
	}
	if got := mux.Claims().Terminals; got != len(mux.claims) {
		t.Errorf("Claims counts %d terminals, the table holds %d", got, len(mux.claims))
	}
	wonByA := make(map[TerminalID]bool)
	for _, id := range a.won {
		wonByA[id] = true
	}
	for _, w := range []*worker{a, b} {
		for _, id := range w.won {
			if w == b && wonByA[id] {
				t.Fatalf("terminal %d was won by both identity a and identity b", id)
			}
			if owner := mux.owner(id); owner != w.b {
				t.Fatalf("terminal %d, won by identity %s, is owned by %v", id, w.b.identityString(), owner)
			}
		}
	}
}
