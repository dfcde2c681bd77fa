package serve

import (
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cell"
	"repro/internal/handover"
	"repro/internal/hexgrid"
)

func TestParseBatchLineSingleAndArray(t *testing.T) {
	single := `{"terminal":7,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`
	rs, err := ParseBatchLine([]byte(single))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Terminal != 7 || rs[0].Meas.ServingDB != -88.5 ||
		rs[0].Meas.Neighbor.I != 1 || rs[0].Meas.SpeedKmh != 30 {
		t.Fatalf("parsed %+v", rs)
	}

	batch := "[" + single + "," + strings.Replace(single, `"terminal":7`, `"terminal":8`, 1) + "]"
	rs, err = ParseBatchLine([]byte(batch))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || rs[1].Terminal != 8 {
		t.Fatalf("parsed %+v", rs)
	}

	if rs, err := ParseBatchLine([]byte("   \t")); err != nil || rs != nil {
		t.Errorf("blank line: %v, %v", rs, err)
	}
}

func TestParseBatchLineRejectsMalformed(t *testing.T) {
	bad := []string{
		`{`,
		`[{"terminal":1},`,
		`{"terminal":1,"serving":[0,0],"neighbor":[0,0],"serving_db":-88}`, // serving == neighbor
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"dmb":-2}`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"walked_km":-1}`,
		`{"terminal":1,"serving":[0,0],"neighbor":[1,0],"speed_kmh":-5}`,
		`"just a string"`,
	}
	for _, src := range bad {
		if _, err := ParseBatchLine([]byte(src)); err == nil {
			t.Errorf("accepted %q", src)
		}
	}
}

// TestParseBatchLineMixedBatchPrefix pins the partial-batch contract: a
// batch with an invalid report in the middle yields exactly the validated
// prefix plus an error naming the failing index; everything after the
// first invalid report is dropped even if it would validate.
func TestParseBatchLineMixedBatchPrefix(t *testing.T) {
	good := func(id int) string {
		return `{"terminal":` + string(rune('0'+id)) + `,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`
	}
	bad := `{"terminal":9,"serving":[0,0],"neighbor":[1,0],"dmb":-2}`

	line := "[" + good(1) + "," + good(2) + "," + bad + "," + good(3) + "]"
	rs, err := ParseBatchLine([]byte(line))
	if err == nil {
		t.Fatal("mixed batch accepted")
	}
	if !strings.Contains(err.Error(), "report 2") {
		t.Errorf("error does not name the failing index: %v", err)
	}
	if len(rs) != 2 || rs[0].Terminal != 1 || rs[1].Terminal != 2 {
		t.Fatalf("validated prefix %+v, want terminals 1, 2", rs)
	}

	// A leading invalid report yields an empty (but non-poisoned) prefix.
	rs, err = ParseBatchLine([]byte("[" + bad + "," + good(1) + "]"))
	if err == nil || len(rs) != 0 {
		t.Fatalf("leading-bad batch: prefix %+v, err %v", rs, err)
	}

	// Broken JSON still yields no reports at all.
	rs, err = ParseBatchLine([]byte("[" + good(1) + ","))
	if err == nil || rs != nil {
		t.Fatalf("broken JSON: prefix %+v, err %v", rs, err)
	}
}

// TestParseBatchLineRejectContract pins the strict-ingest contract chosen
// for the wire codec: unknown top-level report fields ("x" among them,
// whatever its value) are rejected — with the failing report's index and
// the validated prefix — rather than silently dropped.
func TestParseBatchLineRejectContract(t *testing.T) {
	good := `{"terminal":1,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`
	for name, bad := range parseRejectContractCases {
		t.Run(name, func(t *testing.T) {
			// Alone: rejected outright.
			if _, err := ParseBatchLine([]byte(bad)); err == nil {
				t.Fatalf("accepted %s", bad)
			}
			// In a batch: validated prefix plus an error naming the index.
			rs, err := ParseBatchLine([]byte("[" + good + "," + bad + "]"))
			if err == nil {
				t.Fatalf("batch accepted %s", bad)
			}
			if !strings.Contains(err.Error(), "report 1") {
				t.Errorf("error does not name the failing index: %v", err)
			}
			if len(rs) != 1 || rs[0].Terminal != 1 {
				t.Errorf("validated prefix %+v, want the leading good report", rs)
			}
		})
	}
}

// parseRejectContractCases are reports the strict-ingest contract
// rejects; the differential fuzzers seed from them too.
var parseRejectContractCases = map[string]string{
	"unknown-field":  `{"terminal":2,"serving":[0,0],"neighbor":[1,0],"rsrp":-90}`,
	"x-not-object":   `{"terminal":2,"serving":[0,0],"neighbor":[1,0],"x":[1]}`,
	"x-value-string": `{"terminal":2,"serving":[0,0],"neighbor":[1,0],"x":{"t":"fast"}}`,
	"x-value-null":   `{"terminal":2,"serving":[0,0],"neighbor":[1,0],"x":{"t":null}}`,
	"x-dup-name":     `{"terminal":2,"serving":[0,0],"neighbor":[1,0],"x":{"t":1,"t":2}}`,
	"serving-int32":  `{"terminal":2,"serving":[2147483648,0],"neighbor":[1,0]}`,
	"neighbor-int32": `{"terminal":2,"serving":[0,0],"neighbor":[1,-2147483649]}`,
}

// wireMeas builds a measurement for wire-codec tests.
func wireMeas(si, sj, ni, nj int, serving, ssn, cssp, dmb, walked, speed float64) cell.Measurement {
	return cell.Measurement{
		Serving:    hexgrid.Cell{I: si, J: sj},
		Neighbor:   hexgrid.Cell{I: ni, J: nj},
		ServingDB:  serving,
		NeighborDB: ssn,
		CSSPdB:     cssp,
		DMBNorm:    dmb,
		WalkedKm:   walked,
		SpeedKmh:   speed,
	}
}

// TestReportJSONRoundTrip pins AppendBatchJSON ∘ ParseBatchLine as the
// identity on reports, including negative axial labels, labels at the
// int32 limits and zero fields.
func TestReportJSONRoundTrip(t *testing.T) {
	in := []Report{
		{Terminal: 0, Meas: wireMeas(-2, 1, 0, 0, -88.5, -84.25, -2.5, 1.1, 3.2, 30)},
		{Terminal: 1 << 40, Meas: wireMeas(0, 0, -1, 3, 0, 0, 0, 0, 0, 0)},
		{Terminal: 42, Meas: wireMeas(5, -7, 2, 2, -120.125, -60.5, 12.75, 0.333333333333, 123.456, 250)},
		{Terminal: 43, Meas: wireMeas(math.MaxInt32, math.MinInt32, math.MinInt32, math.MaxInt32, -90, -85, 1, 0.5, 2, 10)},
	}
	line := AppendBatchJSON(nil, in)
	if line[len(line)-1] != '\n' {
		t.Fatal("no trailing newline")
	}
	out, err := ParseBatchLine(line)
	if err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip\n in  %+v\n out %+v\nline %s", in, out, line)
	}

	// Single-report form parses too.
	one := AppendReportJSON(nil, in[0])
	out, err = ParseBatchLine(one)
	if err != nil || len(out) != 1 || !reflect.DeepEqual(in[0], out[0]) {
		t.Errorf("single round trip %+v, %v from %s", out, err, one)
	}
}

func TestAppendOutcomeJSONRoundTrip(t *testing.T) {
	o := Outcome{
		Terminal: 42,
		Seq:      9,
		Decision: handover.Decision{Handover: true, Score: 0.7321, Scored: true, Reason: `execute "now"`},
		Executed: true,
		PingPong: true,
	}
	line := AppendOutcomeJSON(nil, o)
	if line[len(line)-1] != '\n' {
		t.Fatal("no trailing newline")
	}
	var w WireOutcome
	if err := json.Unmarshal(line, &w); err != nil {
		t.Fatalf("%v in %s", err, line)
	}
	if w.Terminal != 42 || w.Seq != 9 || !w.Handover || w.Score != 0.7321 || !w.Scored ||
		w.Reason != `execute "now"` || !w.Executed || !w.PingPong {
		t.Errorf("round trip %+v from %s", w, line)
	}
}

// TestOutcomeRoundTripAllShapes is the wire-parity pin: for every outcome
// shape — scored with a nonzero score, scored with score exactly 0 (the
// shape the old omitempty encoding conflated with "not scored"), unscored,
// executed, ping-pong, algorithm error — encode → decode → encode must be
// the identity on bytes, and the decoded outcome must preserve the Scored
// flag and score value exactly.
func TestOutcomeRoundTripAllShapes(t *testing.T) {
	for i, o := range outcomeShapes {
		line1 := AppendOutcomeJSON(nil, o)
		w, err := ParseOutcomeLine(line1)
		if err != nil {
			t.Fatalf("shape %d: decode: %v in %s", i, err, line1)
		}
		got := w.Outcome()
		if got.Decision.Scored != o.Decision.Scored || got.Decision.Score != o.Decision.Score {
			t.Errorf("shape %d: scored/score %v/%g, want %v/%g",
				i, got.Decision.Scored, got.Decision.Score, o.Decision.Scored, o.Decision.Score)
		}
		if got.Terminal != o.Terminal || got.Seq != o.Seq ||
			got.Decision.Handover != o.Decision.Handover || got.Decision.Reason != o.Decision.Reason ||
			got.Executed != o.Executed || got.PingPong != o.PingPong {
			t.Errorf("shape %d: decoded %+v, want %+v", i, got, o)
		}
		if (o.Err == nil) != (got.Err == nil) || (o.Err != nil && got.Err.Error() != o.Err.Error()) {
			t.Errorf("shape %d: err %v, want %v", i, got.Err, o.Err)
		}
		line2 := AppendOutcomeJSON(nil, got)
		if string(line1) != string(line2) {
			t.Errorf("shape %d: re-encode drifted\n first  %s second %s", i, line1, line2)
		}
	}
}

// outcomeShapes is one outcome of every wire shape.
var outcomeShapes = []Outcome{
	{Terminal: 1, Seq: 0, Decision: handover.Decision{Reason: "POTLC-gate"}},
	{Terminal: 2, Seq: 3, Decision: handover.Decision{Score: 0.69, Scored: true, Reason: "below threshold"}},
	{Terminal: 3, Seq: 7, Decision: handover.Decision{Score: 0, Scored: true, Reason: "below threshold"}},
	{Terminal: 4, Seq: 1, Decision: handover.Decision{Handover: true, Score: 0.73, Scored: true, Reason: "execute-handover"}, Executed: true},
	{Terminal: 5, Seq: 9, Decision: handover.Decision{Handover: true, Score: 1, Scored: true, Reason: "execute"}, Executed: true, PingPong: true},
	{Terminal: 6, Seq: 2, Err: &WireError{Msg: "algorithm: inference failed"}},
	{Terminal: 0, Seq: 0, Decision: handover.Decision{Reason: ""}},
}

// TestScoreZeroSurvivesRoundTrip is the regression pin for the omitempty
// conflation: a scored decision whose score is exactly 0 must decode as
// scored, distinguishable from a gate decision that was never scored.
func TestScoreZeroSurvivesRoundTrip(t *testing.T) {
	scored := AppendOutcomeJSON(nil, Outcome{Terminal: 1, Decision: handover.Decision{Score: 0, Scored: true, Reason: "r"}})
	unscored := AppendOutcomeJSON(nil, Outcome{Terminal: 1, Decision: handover.Decision{Reason: "r"}})
	if string(scored) == string(unscored) {
		t.Fatalf("scored-0 and unscored encode identically: %s", scored)
	}
	ws, err := ParseOutcomeLine(scored)
	if err != nil || !ws.Scored || ws.Score != 0 {
		t.Errorf("scored-0 decoded %+v, %v", ws, err)
	}
	wu, err := ParseOutcomeLine(unscored)
	if err != nil || wu.Scored {
		t.Errorf("unscored decoded %+v, %v", wu, err)
	}
}

func TestParseOutcomeLineErrors(t *testing.T) {
	// A daemon's line-level reject decodes as *WireError.
	_, err := ParseOutcomeLine([]byte(`{"error":"line 3: malformed report line"}`))
	var we *WireError
	if !errors.As(err, &we) || we.Msg != "line 3: malformed report line" {
		t.Errorf("line-level error decoded as %v", err)
	}
	// Broken JSON and terminal-free non-error lines are malformed.
	if _, err := ParseOutcomeLine([]byte(`{"seq":`)); err == nil {
		t.Error("accepted broken JSON")
	}
	if _, err := ParseOutcomeLine([]byte(`{"seq":1}`)); err == nil {
		t.Error("accepted outcome without terminal")
	}
	// An algorithm-error outcome (terminal present, error set) is a
	// decision, not a line-level reject.
	w, err := ParseOutcomeLine([]byte(`{"terminal":3,"seq":0,"handover":false,"reason":"","executed":false,"error":"boom"}`))
	if err != nil || w.Error != "boom" {
		t.Errorf("algorithm-error outcome: %+v, %v", w, err)
	}
	if w.Outcome().Err == nil {
		t.Error("decoded algorithm error lost")
	}
}

// TestAppendOutcomeJSONNoAlloc: encoding into a preallocated buffer must
// not allocate — hoserve encodes every decision on the shard callback.
func TestAppendOutcomeJSONNoAlloc(t *testing.T) {
	o := Outcome{Terminal: 1, Seq: 2, Decision: handover.Decision{Reason: "FLC-threshold", Score: 0.5, Scored: true}}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendOutcomeJSON(buf[:0], o)
	})
	if allocs != 0 {
		t.Errorf("AppendOutcomeJSON allocates %v per call", allocs)
	}
}

// TestAppendBatchJSONNoAlloc: the report encoder must not allocate into a
// warm buffer — the cluster router encodes every forwarded sub-batch.
func TestAppendBatchJSONNoAlloc(t *testing.T) {
	rs := []Report{
		{Terminal: 1, Meas: wireMeas(0, 0, 1, 0, -88.5, -84, -2.5, 1.1, 3.2, 30)},
		{Terminal: 2, Meas: wireMeas(0, 0, 1, 0, -90.25, -83, -1.5, 0.9, 4.7, 50)},
	}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendBatchJSON(buf[:0], rs)
	})
	if allocs != 0 {
		t.Errorf("AppendBatchJSON allocates %v per call", allocs)
	}
}

// paperWireReports returns n paper reports with full-precision
// measurements, the shape a simulated terminal puts on the wire.
func paperWireReports(n int) []Report {
	rs := make([]Report, n)
	for i := range rs {
		f := float64(i)
		rs[i] = Report{Terminal: TerminalID(4096 + i),
			Meas: wireMeas(i, -i, i+1, 2-i, -88.5-f/3, -84.25+f/7, -2.5+f/11, 1.1+f/13, 3.2+f/17, 30+f)}
	}
	return rs
}

// TestParseBatchLineNoAlloc: decoding a paper batch line into a reused
// destination must not allocate — every ingest connection decodes every
// line this way.
func TestParseBatchLineNoAlloc(t *testing.T) {
	line := AppendBatchJSON(nil, paperWireReports(4))
	dst := make([]Report, 0, 4)
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		if dst, err = parseBatchInto(dst[:0], line); err != nil || len(dst) != 4 {
			t.Fatalf("decoded %d reports, err %v", len(dst), err)
		}
	})
	if allocs != 0 {
		t.Errorf("parseBatchInto allocates %v per 4-report line", allocs)
	}
}

// TestParseOutcomeLineAllocs: decoding an outcome line allocates at most
// its reason string — the cluster router decodes every decision.
func TestParseOutcomeLineAllocs(t *testing.T) {
	line := AppendOutcomeJSON(nil, Outcome{Terminal: 1, Seq: 2, Decision: handover.Decision{Reason: "FLC-threshold", Score: 0.5, Scored: true}})
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ParseOutcomeLine(line); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Errorf("ParseOutcomeLine allocates %v per line", allocs)
	}
}

func TestHashTerminalMatchesShardRouting(t *testing.T) {
	e, err := New(Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	for id := TerminalID(0); id < 1000; id++ {
		if got, want := int(HashTerminal(id)%8), e.ShardOf(id); got != want {
			t.Fatalf("terminal %d: HashTerminal-derived shard %d, ShardOf %d", id, got, want)
		}
	}
	if math.Abs(float64(HashTerminal(1))-float64(HashTerminal(2))) == 1 {
		t.Error("hash looks like identity; SplitMix64 finalizer not applied")
	}
}
