package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/handover"
	"repro/internal/hexgrid"
)

// FuzzParseBatchLine drives the ingest parser with arbitrary lines.  It
// is differential: ParseBatchLine, and parseBatchInto into a reused
// destination, must agree with the encoding/json oracle on accept/reject,
// the decoded reports bit for bit, and a reject's failing index and
// validated-prefix count.  It also checks the structural invariants: no
// panics, the validated-prefix contract (returned reports always
// validate, an error always names a report index on partial returns),
// and encode→parse idempotence on whatever was accepted.
func FuzzParseBatchLine(f *testing.F) {
	single := `{"terminal":7,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`
	f.Add([]byte(single))
	f.Add([]byte("[" + single + "," + strings.Replace(single, `"terminal":7`, `"terminal":8`, 1) + "]"))
	f.Add([]byte("  \t "))
	f.Add([]byte(`{"terminal":1,"serving":[0,0],"neighbor":[0,0]}`)) // serving == neighbor
	f.Add([]byte(`[{"terminal":1,"serving":[0,0],"neighbor":[1,0],"dmb":-2},` + single + `]`))
	f.Add([]byte(`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"serving_db":1e999}`))
	f.Add([]byte(`"just a string"`))
	// Unknown top-level fields: "x" objects of several shapes, and a
	// plain unknown key.
	f.Add([]byte(strings.Replace(single, `"speed_kmh":30`, `"speed_kmh":30,"x":{"ssn_trend":-1.25}`, 1)))
	f.Add([]byte(strings.Replace(single, `"speed_kmh":30`, `"speed_kmh":30,"x":{"b":2,"a":0}`, 1)))
	f.Add([]byte(`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"x":[1]}`))
	f.Add([]byte(`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"x":{"t":"fast"}}`))
	f.Add([]byte(`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"x":{"t":1,"t":2}}`))
	f.Add([]byte(`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"rsrp":-90}`))
	for _, line := range fuzzSeeds(batchQuirkLines()) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if msg := batchMismatch(line); msg != "" {
			t.Fatalf("%q: %s", line, msg)
		}
		reports, err := ParseBatchLine(line)
		if err == nil && reports == nil && len(trimSpace(line)) != 0 {
			// Non-blank lines either parse to reports or error; a silent
			// nil/nil is only the blank-line contract.  (A parsed empty
			// batch "[]" is also fine: len 0 but non-nil is not required.)
			_ = reports
		}
		for i := range reports {
			// Everything returned — full parse or validated prefix — must
			// itself survive the wire validator.
			if verr := reports[i].Wire().Validate(); verr != nil {
				t.Fatalf("returned report %d fails validation: %v (line %q)", i, verr, line)
			}
		}
		if err != nil && len(reports) > 0 && !strings.Contains(err.Error(), "report ") {
			t.Fatalf("partial return without an index-bearing error: %v", err)
		}
		if err == nil && len(reports) > 0 {
			// Round trip: encoding the accepted reports and re-parsing
			// must reproduce them exactly.
			enc := AppendBatchJSON(nil, reports)
			again, err2 := ParseBatchLine(enc)
			if err2 != nil {
				t.Fatalf("re-parse of encoded batch failed: %v (%s)", err2, enc)
			}
			if !reflect.DeepEqual(reports, again) {
				t.Fatalf("round trip drifted:\n in  %+v\n out %+v", reports, again)
			}
		}
	})
}

// FuzzSnapshotRoundTrip drives the terminal-snapshot codec with
// arbitrary decision states: a structurally valid snapshot must encode →
// ParseSnapshotLine → re-encode byte-identically.  The byte identity is
// what migration and crash-recovery lean on — shipped state can be
// compared for equality as bytes, and a restore-then-extract returns
// exactly what arrived.
func FuzzSnapshotRoundTrip(f *testing.F) {
	f.Add(uint64(7), uint64(12), -88.5, true, -2, 3, true, uint64(3), uint64(1), uint64(3), 1.25, 0.0, 0.0, false)
	f.Add(uint64(0), uint64(0), 0.0, false, 0, 0, false, uint64(0), uint64(0), uint64(0), 0.0, 0.0, 0.0, false)
	f.Add(uint64(1<<40), uint64(1<<50), 1e-300, true, 1000, -1000, true, uint64(99), uint64(98), uint64(97), -0.0, 0.0, 0.0, false)
	// Trend-state seeds: the v2 shape (EWMA slope mid-walk) and the
	// anchored-only first observation.
	f.Add(uint64(3), uint64(5), -90.0, true, 1, 0, true, uint64(1), uint64(0), uint64(1), 0.5, -91.25, -0.5, true)
	f.Add(uint64(4), uint64(1), 0.0, false, 0, 0, false, uint64(0), uint64(0), uint64(0), 0.0, -84.0, 0.0, true)
	// Cells are stored as int32 pairs: a full ring that reaches both
	// limits round-trips; one past either limit is rejected.
	f.Add(uint64(5), uint64(9), -70.0, true, math.MaxInt32-pingPongHistory, math.MinInt32+pingPongHistory-1, true, uint64(9), uint64(2), uint64(9), 0.1, 0.0, 0.0, false)
	f.Add(uint64(6), uint64(1), 0.0, false, math.MaxInt32, 0, true, uint64(1), uint64(0), uint64(1), 0.0, 0.0, 0.0, false)
	f.Add(uint64(7), uint64(1), 0.0, false, 0, math.MinInt32-1, true, uint64(0), uint64(0), uint64(0), 0.0, 0.0, 0.0, false)
	// Tallies are stored as uint32: both at the limit round-trip.
	f.Add(uint64(8), uint64(2), -75.0, true, 1, 1, true, uint64(math.MaxUint32), uint64(math.MaxUint32), uint64(2), 0.5, 0.0, 0.0, false)
	f.Fuzz(func(t *testing.T, terminal, seq uint64, prevDB float64, havePrev bool,
		si, sj int, haveServing bool, handovers, pingpongs, totalEvents uint64, walked float64,
		trendPrevSSN, trendSlope float64, trendHave bool) {
		if math.IsNaN(prevDB) || math.IsInf(prevDB, 0) || math.IsNaN(walked) || math.IsInf(walked, 0) {
			t.Skip("power and distance values are finite by construction")
		}
		if math.IsNaN(trendPrevSSN) || math.IsInf(trendPrevSSN, 0) ||
			math.IsNaN(trendSlope) || math.IsInf(trendSlope, 0) {
			t.Skip("trend state is finite by construction")
		}
		totalEvents %= maxSnapshotTotalEvents + 1
		handovers %= maxSnapshotTally + 1
		pingpongs %= maxSnapshotTally + 1
		s := TerminalSnapshot{
			Terminal:    TerminalID(terminal),
			Seq:         seq,
			PrevDB:      prevDB,
			HavePrev:    havePrev,
			Serving:     hexgrid.Cell{I: si, J: sj},
			HaveServing: haveServing,
			Handovers:   handovers,
			PingPongs:   pingpongs,
			TotalEvents: totalEvents,
			Trend:       handover.TrendState{PrevSSN: trendPrevSSN, Slope: trendSlope, Have: trendHave},
		}
		n := int(totalEvents)
		if n > pingPongHistory {
			n = pingPongHistory
		}
		inInt32 := func(c hexgrid.Cell) bool {
			return c.I >= math.MinInt32 && c.I <= math.MaxInt32 && c.J >= math.MinInt32 && c.J <= math.MaxInt32
		}
		fits := inInt32(s.Serving)
		for i := 0; i < n; i++ {
			e := SnapshotEvent{
				From:     hexgrid.Cell{I: si + i, J: sj - i},
				To:       hexgrid.Cell{I: si + i + 1, J: sj - i},
				WalkedKm: walked + float64(i),
			}
			fits = fits && inInt32(e.From) && inInt32(e.To)
			s.Events = append(s.Events, e)
		}
		if !fits {
			// A label outside the int32 range cannot be stored: both the
			// struct and its encoding must be refused.
			if err := s.Validate(); err == nil {
				t.Fatalf("snapshot with an out-of-range cell validated: %+v", s)
			}
			if _, err := ParseSnapshotLine(AppendSnapshotJSON(nil, s)); err == nil {
				t.Fatalf("snapshot line with an out-of-range cell parsed: %+v", s)
			}
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("constructed snapshot invalid: %v", err)
		}
		line1 := AppendSnapshotJSON(nil, s)
		got, err := ParseSnapshotLine(line1)
		if err != nil {
			t.Fatalf("decode: %v (line %s)", err, line1)
		}
		if !reflect.DeepEqual(s, got) {
			t.Fatalf("decode drifted:\n in  %+v\n out %+v\nline %s", s, got, line1)
		}
		line2 := AppendSnapshotJSON(nil, got)
		if string(line1) != string(line2) {
			t.Fatalf("re-encode drifted:\n first  %s second %s", line1, line2)
		}
	})
}

// FuzzParseControlLine drives the control-plane codec with arbitrary lines:
// no panics, and anything ParseControlLine accepts must reach a one-round
// encode fixed point — AppendControlJSON(parse(AppendControlJSON(c))) is
// byte-identical to AppendControlJSON(c), and the encoding satisfies the
// isControlLine prefix contract the wire dispatcher leans on.  (The
// fixed point is one round, not input-identity: omitted zero fields and
// empty snapshot arrays normalize on the first encode.)
func FuzzParseControlLine(f *testing.F) {
	snap := `{"terminal":7,"seq":3,"prev_db":-88.5,"serving":[1,0],"handovers":2,"pingpongs":1,"total_events":2}`
	for _, seed := range []string{
		`{"ctl":"hello","client":"loadgen-1"}`,
		`{"ctl":"extract","members":[0,1,2],"vnodes":128,"self":0,"keep":true}`,
		`{"ctl":"extracted","count":37}`,
		`{"ctl":"restore","snapshots":[` + snap + `],"skip_live":true}`,
		`{"ctl":"restore-done"}`,
		`{"ctl":"restored","count":37}`,
		`{"ctl":"release","members":[1,2],"vnodes":128,"self":1}`,
		`{"ctl":"released","count":12}`,
		`{"ctl":"addnode","addr":"127.0.0.1:7293"}`,
		`{"ctl":"node-added","node":2}`,
		`{"ctl":"removenode","node":0}`,
		`{"ctl":"node-removed","node":0,"error":"cluster: node 0 is not a member"}`,
		`{"ctl":"stats"}`,
		`{"ctl":"drain"}`,
		`{"ctl":"snapshots","snapshots":[` + snap + `]}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		c1, err := ParseControlLine(line)
		if err != nil {
			return
		}
		enc1 := AppendControlJSON(nil, c1)
		if !isControlLine(enc1) {
			t.Fatalf("encoded control line fails the prefix contract: %s", enc1)
		}
		c2, err := ParseControlLine(enc1)
		if err != nil {
			t.Fatalf("re-parse of encoded control line failed: %v (%s)", err, enc1)
		}
		enc2 := AppendControlJSON(nil, c2)
		if string(enc1) != string(enc2) {
			t.Fatalf("encode fixed point drifted:\n first  %s second %s(input %q)", enc1, enc2, line)
		}
	})
}

// FuzzOutcomeRoundTrip drives the outcome codec with arbitrary decision
// shapes: encode → ParseOutcomeLine → re-encode must be the identity on
// bytes, and the decoded outcome must preserve every field — including
// the scored/score-0 distinction the omitempty encoding used to lose.
func FuzzOutcomeRoundTrip(f *testing.F) {
	f.Add(uint64(42), uint64(9), true, 0.7321, true, "execute-handover", true, true, "")
	f.Add(uint64(3), uint64(7), false, 0.0, true, "below threshold", false, false, "")
	f.Add(uint64(1), uint64(0), false, 0.0, false, "POTLC-gate", false, false, "")
	f.Add(uint64(6), uint64(2), false, 0.0, false, "", false, false, "algorithm: inference failed")
	f.Fuzz(func(t *testing.T, terminal, seq uint64, handover bool, score float64, scored bool,
		reason string, executed, pingpong bool, errMsg string) {
		if math.IsNaN(score) || math.IsInf(score, 0) {
			t.Skip("scores come from the FLC and are finite by construction")
		}
		if !scored {
			// Score is meaningful (and wire-carried) only when Scored:
			// an unscored decision's score is not part of the contract.
			score = 0
		}
		if !utf8.ValidString(reason) || !utf8.ValidString(errMsg) {
			// encoding/json replaces invalid UTF-8 on decode; reasons and
			// error texts are ASCII in practice.
			t.Skip("non-UTF-8 strings are out of codec scope")
		}
		o := Outcome{
			Terminal: TerminalID(terminal),
			Seq:      seq,
			Executed: executed,
			PingPong: pingpong,
			Shard:    -1,
		}
		o.Decision.Handover = handover
		o.Decision.Score = score
		o.Decision.Scored = scored
		o.Decision.Reason = reason
		if errMsg != "" {
			o.Err = &WireError{Msg: errMsg}
		}

		line1 := AppendOutcomeJSON(nil, o)
		w, err := ParseOutcomeLine(line1)
		if err != nil {
			t.Fatalf("decode: %v (line %s)", err, line1)
		}
		got := w.Outcome()
		if got.Terminal != o.Terminal || got.Seq != o.Seq ||
			got.Decision.Handover != o.Decision.Handover ||
			got.Decision.Scored != o.Decision.Scored ||
			got.Decision.Score != o.Decision.Score ||
			got.Decision.Reason != o.Decision.Reason ||
			got.Executed != o.Executed || got.PingPong != o.PingPong {
			t.Fatalf("decode drifted:\n in  %+v\n out %+v\nline %s", o, got, line1)
		}
		if (o.Err == nil) != (got.Err == nil) || (o.Err != nil && got.Err.Error() != o.Err.Error()) {
			t.Fatalf("error drifted: %v vs %v", o.Err, got.Err)
		}
		line2 := AppendOutcomeJSON(nil, got)
		if string(line1) != string(line2) {
			t.Fatalf("re-encode drifted:\n first  %s second %s", line1, line2)
		}
	})
}

// FuzzParseOutcomeLine drives the outcome decoder with arbitrary raw
// lines, differentially: ParseOutcomeLine must agree with the
// encoding/json oracle on the error kind (none, a *WireError and its
// text, or malformed) and, on success, on every field bit for bit.
// FuzzOutcomeRoundTrip only ever feeds it lines the encoder built.
func FuzzParseOutcomeLine(f *testing.F) {
	for _, line := range fuzzSeeds(outcomeQuirkLines()) {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		if msg := outcomeMismatch(line); msg != "" {
			t.Fatalf("%q: %s", line, msg)
		}
	})
}

// fuzzSeeds returns the quirk lines short enough to seed a fuzzer: the
// nesting-limit lines run ~20 KB, which stalls the fuzzer's minimizer,
// and the MatchesOracle tests check them on every run instead.
func fuzzSeeds(lines []string) [][]byte {
	var seeds [][]byte
	for _, l := range lines {
		if len(l) <= 1<<12 {
			seeds = append(seeds, []byte(l))
		}
	}
	return seeds
}
