package serve

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
	"repro/internal/sim"
)

// TestTerminalLayout pins the per-terminal footprint — 264 B, of which the
// ring is eight 24-B events — and keeps every field pointer-free, so the
// store's slabs are allocated noscan and the garbage collector never
// walks terminal state.
func TestTerminalLayout(t *testing.T) {
	if got := unsafe.Sizeof(terminal{}); got != 264 {
		t.Errorf("terminal is %d B, want 264", got)
	}
	if got := unsafe.Sizeof(hoEvent{}); got != 24 {
		t.Errorf("hoEvent is %d B, want 24", got)
	}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Interface, reflect.Slice,
			reflect.Map, reflect.Chan, reflect.Func, reflect.String:
			t.Errorf("%s is a %s: a pointer-bearing field makes every terminal slab scanned by the GC", path, typ.Kind())
		}
	}
	walk("terminal", reflect.TypeOf(terminal{}))
}

// TestReportLayout pins the per-report footprint: every queued report
// is one Report, so a new field costs each queue slot its size.
func TestReportLayout(t *testing.T) {
	if got := unsafe.Sizeof(Report{}); got != 112 {
		t.Errorf("Report is %d B, want 112", got)
	}
}

// outOfRange returns r with its serving (even k) or neighbor (odd k)
// label one past the int32 range, and its powers moved: had the engine
// stored anything of it, the terminal's later decisions would move too.
func outOfRange(r Report, k int) Report {
	r.Meas.ServingDB -= 7
	r.Meas.NeighborDB += 5
	if k%2 == 0 {
		r.Meas.Serving.I = math.MaxInt32 + 1
	} else {
		r.Meas.Neighbor.J = math.MinInt32 - 1
	}
	return r
}

// TestEngineRejectsOutOfRangeCells: a report whose serving or neighbor
// label does not fit the engine's int32 cell storage completes as an
// ErrCellOutOfRange outcome, counted in Errors, in every sub-batch shape
// and decision mode.  It writes no terminal state but the sequence
// number: with the rejected reports' outcomes removed and the rest
// renumbered, every terminal's decisions are the simulator's.
func TestEngineRejectsOutOfRangeCells(t *testing.T) {
	trend, err := handover.AlgorithmFactoryFor("trendfuzzy", true)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range []struct {
		name string
		cfgs []sim.Config
		cfg  Config
	}{
		{"paper", paperFleetConfigs(), Config{}},
		{"trendfuzzy", trendFleetConfigs(trend), Config{AlgorithmFactory: trend}},
		{"hysteresis", hysteresisFleetConfigs(), Config{AlgorithmFactory: zeroHysteresis}},
	} {
		streams, results := simStreams(t, a.cfgs)
		if a.name == "hysteresis" {
			checkPingPongDomain(t, results, sim.DefaultPingPongWindowKm)
		}
		// A rejected report before every third epoch, so some land right
		// before handovers and some between a handover and its return.
		aug := make([][]Report, len(streams))
		var sequential []Report
		for i, s := range streams {
			for j, r := range s {
				if j%3 == 1 {
					aug[i] = append(aug[i], outOfRange(r, j))
				}
				aug[i] = append(aug[i], r)
			}
			sequential = append(sequential, aug[i]...)
		}
		interleaved := InterleaveReports(aug)
		for _, mode := range []struct {
			name    string
			reports []Report
			submit  func(*Engine, []Report) error
		}{
			{"batch", interleaved, (*Engine).SubmitBatch},
			// One terminal's reports fill whole sub-batches: stateful
			// schemas split them into runs around the rejected rows.
			{"batch-sequential", sequential, (*Engine).SubmitBatch},
			{"submit", interleaved, submitModes[1].submit},
		} {
			t.Run(a.name+"/"+mode.name, func(t *testing.T) {
				rec := newRecorder(len(streams))
				cfg := a.cfg
				cfg.Shards, cfg.QueueDepth = 4, 64
				cfg.PingPongWindowKm, cfg.OnDecision = sim.DefaultPingPongWindowKm, rec.record
				e, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := e.Start(); err != nil {
					t.Fatal(err)
				}
				if err := mode.submit(e, mode.reports); err != nil {
					t.Fatal(err)
				}
				e.Flush()
				if err := e.Stop(); err != nil {
					t.Fatal(err)
				}
				kept := newRecorder(len(streams))
				rejected := 0
				for id, outs := range rec {
					for seq, o := range *outs {
						if o.Seq != uint64(seq) {
							t.Fatalf("terminal %d outcome %d has seq %d", id, seq, o.Seq)
						}
						bad := !measFits(&aug[id][seq].Meas)
						if bad != errors.Is(o.Err, ErrCellOutOfRange) {
							t.Fatalf("terminal %d seq %d: out of range %v, outcome error %v", id, seq, bad, o.Err)
						}
						if bad {
							if o.Decision != (handover.Decision{}) || o.Executed || o.PingPong {
								t.Errorf("terminal %d seq %d: rejected report decided %+v", id, seq, o)
							}
							rejected++
							continue
						}
						o.Seq = uint64(len(*kept[id]))
						*kept[id] = append(*kept[id], o)
					}
				}
				want := len(mode.reports) - len(InterleaveReports(streams))
				if rejected != want || e.Stats().Totals().Errors != uint64(want) {
					t.Errorf("%d rejected outcomes and %d errors counted, want %d", rejected, e.Stats().Totals().Errors, want)
				}
				checkAgainstSim(t, kept, results, 4)
			})
		}
	}
}

// TestEngineStoresInt32LimitCells: labels at math.MaxInt32 and
// math.MinInt32 are accepted, close a ping-pong pair, and round-trip
// through a snapshot — encoded, decoded and restored into another engine,
// whose ring flags the next return.
func TestEngineStoresInt32LimitCells(t *testing.T) {
	a := hexgrid.Cell{I: math.MaxInt32, J: math.MinInt32}
	b := hexgrid.Cell{I: math.MinInt32, J: math.MaxInt32}
	hop := func(from, to hexgrid.Cell, km float64) Report {
		return Report{Terminal: 5, Meas: cell.Measurement{
			Serving: from, Neighbor: to, ServingDB: -95, NeighborDB: -80, WalkedKm: km,
		}}
	}
	start := func(outs *[]Outcome) *Engine {
		e, err := New(Config{
			Shards:           1,
			AlgorithmFactory: func() handover.Algorithm { return handover.Hysteresis{MarginDB: 3} },
			OnDecision:       func(o Outcome) { *outs = append(*outs, o) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	var outs []Outcome
	e := start(&outs)
	defer e.Stop()
	if err := e.SubmitBatch([]Report{hop(a, b, 0.1), hop(b, a, 0.3)}); err != nil {
		t.Fatal(err)
	}
	snaps, err := e.SnapshotTerminals()
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 || !outs[0].Executed || outs[0].PingPong || !outs[1].Executed || !outs[1].PingPong {
		t.Fatalf("outcomes %+v, want two executed hops, the return flagged", outs)
	}
	want := TerminalSnapshot{
		Terminal: 5, Seq: 2, Serving: a, HaveServing: true, Handovers: 2, PingPongs: 1, TotalEvents: 2,
		Events: []SnapshotEvent{{From: a, To: b, WalkedKm: 0.1}, {From: b, To: a, WalkedKm: 0.3}},
	}
	if len(snaps) != 1 || !reflect.DeepEqual(snaps[0], want) {
		t.Fatalf("snapshot %+v, want %+v", snaps, want)
	}
	line := AppendSnapshotJSON(nil, snaps[0])
	dec, err := ParseSnapshotLine(line)
	if err != nil || !reflect.DeepEqual(dec, want) {
		t.Fatalf("decoded %+v (%v) from %s", dec, err, line)
	}

	var outs2 []Outcome
	e2 := start(&outs2)
	defer e2.Stop()
	if err := e2.RestoreSnapshots([]TerminalSnapshot{dec}); err != nil {
		t.Fatal(err)
	}
	again, err := e2.SnapshotTerminals()
	if err != nil {
		t.Fatal(err)
	}
	if len(again) != 1 || !bytes.Equal(AppendSnapshotJSON(nil, again[0]), line) {
		t.Fatalf("restored snapshot %+v, want the bytes %s", again, line)
	}
	if err := e2.SubmitBatch([]Report{hop(a, b, 0.5)}); err != nil {
		t.Fatal(err)
	}
	e2.Flush()
	if len(outs2) != 1 || outs2[0].Seq != 2 || !outs2[0].PingPong {
		t.Errorf("restored terminal's return %+v, want seq 2 flagged as ping-pong", outs2)
	}
}

// TestSnapshotRejectsOutOfRangeCells: Validate, ParseSnapshotLine and
// RestoreSnapshots refuse a snapshot whose serving label, or an event's
// from or to label, lies outside the int32 range, and restore nothing.
func TestSnapshotRejectsOutOfRangeCells(t *testing.T) {
	e, err := New(Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for name, mutate := range map[string]func(*TerminalSnapshot){
		"serving":    func(s *TerminalSnapshot) { s.Serving.I = math.MaxInt32 + 1 },
		"event-from": func(s *TerminalSnapshot) { s.Events[1].From.J = math.MinInt32 - 1 },
		"event-to":   func(s *TerminalSnapshot) { s.Events[2].To.I = math.MinInt32 - 1 },
	} {
		s := sampleSnapshot()
		mutate(&s)
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("%s: Validate = %v, want an int32 range error", name, err)
		}
		if _, err := ParseSnapshotLine(AppendSnapshotJSON(nil, s)); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("%s: ParseSnapshotLine = %v, want an int32 range error", name, err)
		}
		if err := e.RestoreSnapshots([]TerminalSnapshot{s}); err == nil || !strings.Contains(err.Error(), "int32") {
			t.Errorf("%s: RestoreSnapshots = %v, want an int32 range error", name, err)
		}
	}
	if n := e.Stats().Totals().Terminals; n != 0 {
		t.Errorf("%d terminals restored from rejected snapshots", n)
	}
}
