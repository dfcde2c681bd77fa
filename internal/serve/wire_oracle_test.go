package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"regexp"
	"strings"
	"testing"
)

// The encoding/json decoders that ParseBatchLine and ParseOutcomeLine
// replaced, kept as the differential oracle: the hand-rolled decoders
// must accept exactly what these accept, decode the same values, and
// reject a batch at the same report with the same validated prefix.
// The oracle* declarations are the replaced code, renamed, with their own
// copy of the validation rules, so no production code runs on the oracle
// side.

// oracleReport is the oracle's own copy of WireReport.
type oracleReport struct {
	Terminal   uint64  `json:"terminal"`
	Serving    [2]int  `json:"serving"`
	Neighbor   [2]int  `json:"neighbor"`
	ServingDB  float64 `json:"serving_db"`
	NeighborDB float64 `json:"ssn_db"`
	CSSPdB     float64 `json:"cssp_db"`
	DMBNorm    float64 `json:"dmb"`
	WalkedKm   float64 `json:"walked_km"`
	SpeedKmh   float64 `json:"speed_kmh"`
}

func (o oracleReport) wire() WireReport {
	return WireReport{
		Terminal: o.Terminal, Serving: o.Serving, Neighbor: o.Neighbor,
		ServingDB: o.ServingDB, NeighborDB: o.NeighborDB, CSSPdB: o.CSSPdB,
		DMBNorm: o.DMBNorm, WalkedKm: o.WalkedKm, SpeedKmh: o.SpeedKmh,
	}
}

// oracleValidate is the replaced WireReport.Validate.
func oracleValidate(w WireReport) error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"serving_db", w.ServingDB}, {"ssn_db", w.NeighborDB},
		{"cssp_db", w.CSSPdB}, {"dmb", w.DMBNorm},
		{"walked_km", w.WalkedKm}, {"speed_kmh", w.SpeedKmh},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: report field %s is not finite", f.name)
		}
	}
	if w.DMBNorm < 0 {
		return fmt.Errorf("serve: negative dmb %g", w.DMBNorm)
	}
	if w.WalkedKm < 0 {
		return fmt.Errorf("serve: negative walked_km %g", w.WalkedKm)
	}
	if w.SpeedKmh < 0 {
		return fmt.Errorf("serve: negative speed_kmh %g", w.SpeedKmh)
	}
	if w.Serving == w.Neighbor {
		return fmt.Errorf("serve: serving and neighbor are both BS(%d,%d)", w.Serving[0], w.Serving[1])
	}
	for _, c := range [...]struct {
		name string
		v    [2]int
	}{{"serving", w.Serving}, {"neighbor", w.Neighbor}} {
		for _, x := range c.v {
			if x < math.MinInt32 || x > math.MaxInt32 {
				return fmt.Errorf("serve: %s [%d,%d] outside the int32 range", c.name, c.v[0], c.v[1])
			}
		}
	}
	return nil
}

// oracleParseBatchLine is the replaced ParseBatchLine.
func oracleParseBatchLine(line []byte) ([]Report, error) {
	trimmed := trimSpace(line)
	if len(trimmed) == 0 {
		return nil, nil
	}
	var raws []json.RawMessage
	if trimmed[0] == '[' {
		if err := json.Unmarshal(trimmed, &raws); err != nil {
			return nil, fmt.Errorf("serve: malformed batch line: %w", err)
		}
	} else {
		var w oracleReport
		if err := oracleUnmarshalReportStrict(trimmed, &w); err != nil {
			return nil, fmt.Errorf("serve: malformed report line: %w", err)
		}
		if err := oracleValidate(w.wire()); err != nil {
			return nil, fmt.Errorf("report 0: %w (0 of 1 validated)", err)
		}
		return []Report{w.wire().Report()}, nil
	}
	out := make([]Report, 0, len(raws))
	for i, raw := range raws {
		var w oracleReport
		if err := oracleUnmarshalReportStrict(raw, &w); err != nil {
			return out, fmt.Errorf("report %d: %w (%d of %d validated)", i, err, len(out), len(raws))
		}
		if err := oracleValidate(w.wire()); err != nil {
			return out, fmt.Errorf("report %d: %w (%d of %d validated)", i, err, len(out), len(raws))
		}
		out = append(out, w.wire().Report())
	}
	return out, nil
}

// oracleUnmarshalReportStrict decodes one report object rejecting unknown
// top-level fields and trailing data.
func oracleUnmarshalReportStrict(data []byte, w *oracleReport) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(w); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after report object")
	}
	return nil
}

// oracleParseOutcomeLine is the replaced ParseOutcomeLine.
func oracleParseOutcomeLine(line []byte) (WireOutcome, error) {
	var aux struct {
		Terminal *uint64 `json:"terminal"` // pointer: presence distinguishes reject lines
		Seq      uint64  `json:"seq"`
		Handover bool    `json:"handover"`
		Score    float64 `json:"score"`
		Scored   bool    `json:"scored"`
		Reason   string  `json:"reason"`
		Executed bool    `json:"executed"`
		PingPong bool    `json:"pingpong"`
		Error    string  `json:"error"`
	}
	if err := json.Unmarshal(line, &aux); err != nil {
		return WireOutcome{}, fmt.Errorf("serve: malformed outcome line: %w", err)
	}
	if aux.Terminal == nil {
		if aux.Error != "" {
			return WireOutcome{}, &WireError{Msg: aux.Error}
		}
		return WireOutcome{}, fmt.Errorf("serve: outcome line carries no terminal: %.200s", line)
	}
	return WireOutcome{
		Terminal: *aux.Terminal,
		Seq:      aux.Seq,
		Handover: aux.Handover,
		Score:    aux.Score,
		Scored:   aux.Scored,
		Reason:   aux.Reason,
		Executed: aux.Executed,
		PingPong: aux.PingPong,
		Error:    aux.Error,
	}, nil
}

// rejectShape matches a report-level reject: the failing index, then
// the validated-prefix count of the line's report count.
var rejectShape = regexp.MustCompile(`(?s)^report (\d+): .* \((\d+) of (\d+) validated\)$`)

// batchMismatch describes how ParseBatchLine, and parseBatchInto into a
// dirty reused destination, disagree with the oracle on line ("" when
// they agree): accept/reject, the reports (bit for bit, nil-ness
// included), and a reject's failing index and validated-prefix count.
func batchMismatch(line []byte) string {
	want, werr := oracleParseBatchLine(line)
	got, gerr := ParseBatchLine(line)
	if msg := sameBatch(got, gerr, want, werr); msg != "" {
		return msg
	}
	dirty := []Report{{Terminal: 99, Meas: wireMeas(7, 7, 8, 8, 1, 2, 3, 4, 5, 6)}}
	reused, rerr := parseBatchInto(dirty[:0], line)
	if msg := sameBatch(reused, rerr, want, werr); msg != "" {
		return "into a reused destination: " + msg
	}
	return ""
}

func sameBatch(got []Report, gerr error, want []Report, werr error) string {
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("accept/reject differs: got err %v, oracle err %v", gerr, werr)
	}
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return fmt.Sprintf("reports differ: got %d (nil %v), oracle %d (nil %v); errs %v / %v",
			len(got), got == nil, len(want), want == nil, gerr, werr)
	}
	for i := range got {
		if !sameReport(got[i], want[i]) {
			return fmt.Sprintf("report %d differs:\n got    %+v\n oracle %+v", i, got[i], want[i])
		}
	}
	if gerr != nil {
		g, w := rejectShape.FindStringSubmatch(gerr.Error()), rejectShape.FindStringSubmatch(werr.Error())
		if (g == nil) != (w == nil) || g != nil && (g[1] != w[1] || g[2] != w[2] || g[3] != w[3]) {
			return fmt.Sprintf("reject shape differs:\n got    %v\n oracle %v", gerr, werr)
		}
	}
	return ""
}

// sameReport compares reports bit for bit (so -0 and 0 differ).
func sameReport(a, b Report) bool {
	ma, mb := a.Meas, b.Meas
	if a.Terminal != b.Terminal || ma.Serving != mb.Serving || ma.Neighbor != mb.Neighbor ||
		ma.Pos != mb.Pos || ma.DistanceKm != mb.DistanceKm {
		return false
	}
	for _, p := range [...][2]float64{{ma.ServingDB, mb.ServingDB}, {ma.NeighborDB, mb.NeighborDB},
		{ma.CSSPdB, mb.CSSPdB}, {ma.DMBNorm, mb.DMBNorm}, {ma.WalkedKm, mb.WalkedKm}, {ma.SpeedKmh, mb.SpeedKmh}} {
		if math.Float64bits(p[0]) != math.Float64bits(p[1]) {
			return false
		}
	}
	return true
}

// outcomeMismatch describes how ParseOutcomeLine disagrees with the
// oracle on line ("" when they agree): the error kind (none, *WireError
// with its text, other) and, on success, the outcome bit for bit.
func outcomeMismatch(line []byte) string {
	want, werr := oracleParseOutcomeLine(line)
	got, gerr := ParseOutcomeLine(line)
	if errKind(gerr) != errKind(werr) {
		return fmt.Sprintf("error kind differs: got %v, oracle %v", gerr, werr)
	}
	if got != want || math.Float64bits(got.Score) != math.Float64bits(want.Score) {
		return fmt.Sprintf("outcome differs:\n got    %+v\n oracle %+v", got, want)
	}
	return ""
}

func errKind(err error) string {
	var we *WireError
	switch {
	case err == nil:
		return "none"
	case errors.As(err, &we):
		return "reject " + we.Msg
	}
	return "malformed"
}

// goodReport is a paper report the quirks below are spliced into.
const goodReport = `{"terminal":1,"serving":[0,0],"neighbor":[1,0],"serving_db":-88.5,"ssn_db":-84,"cssp_db":-2.5,"dmb":1.1,"walked_km":3.2,"speed_kmh":30}`

// withField returns goodReport with extra key:value pairs appended.
func withField(kv string) string { return strings.TrimSuffix(goodReport, "}") + "," + kv + "}" }

// nested returns depth nested arrays around 0.
func nested(depth int) string { return strings.Repeat("[", depth) + "0" + strings.Repeat("]", depth) }

// batchQuirkLines are ingest lines on which a hand-rolled decoder most
// easily parts from encoding/json, each checked against the oracle.
func batchQuirkLines() []string {
	lines := []string{
		goodReport, "[" + goodReport + "," + goodReport + "]", "", " \t", "[]", "[ ]", "null", "[null]",
		`"just a string"`, "1", "true", "[1]", `["a"]`, "[[]]", "[{}]", "{}",
		// Keys: case folding (ſ and the Kelvin sign fold to s and k),
		// escapes, repeats (last wins), unknown keys of every spelling.
		`{"Terminal":5,"SERVING":[0,0],"Neighbor":[1,0]}`,
		withField(`"ſpeed_kmh":5`), withField(`"walked_Km":7`), withField(`"walked_\u212am":7`), withField(`"WALKED_KM":7`),
		withField(`"terminal":9`), withField(`"terminal":2,"terminal":3`),
		withField(`"rsrp":1`), withField(`"ÿ":1`), withField("\"\xff\":1"), withField(`"terminal ":1`),
		// null leaves a field unchanged; "x":null is an unknown key.
		withField(`"terminal":null`), withField(`"serving":null`), withField(`"dmb":null`), withField(`"x":null`),
		withField(`"serving":[3,4],"serving":[null]`), withField(`"neighbor":[null,5]`),
		// Cell arrays: short ones zero-fill, long ones drop extras.
		withField(`"serving":[5]`), withField(`"serving":[]`), withField(`"neighbor":[1,2,3,"x",{"a":[]}]`),
		withField(`"serving":[[1],0]`), withField(`"serving":["1",0]`), withField(`"serving":{"i":1}`),
		// Integers: no fraction, exponent, sign (unsigned) or overflow.
		withField(`"terminal":1.0`), withField(`"terminal":1e2`), withField(`"terminal":-1`), withField(`"terminal":-0`),
		withField(`"terminal":18446744073709551615`), withField(`"terminal":18446744073709551616`),
		withField(`"serving":[9223372036854775807,-9223372036854775808]`), withField(`"serving":[9223372036854775808,0]`),
		// Cells are stored as int32 pairs: the limits pass, one past rejects.
		withField(`"serving":[2147483647,-2147483648]`), withField(`"neighbor":[-2147483648,2147483647]`),
		withField(`"serving":[2147483648,0]`), withField(`"serving":[0,-2147483649]`),
		withField(`"neighbor":[-2147483649,0]`), withField(`"neighbor":[0,2147483648]`),
		withField(`"serving":[-0,1]`), withField(`"terminal":"1"`), withField(`"terminal":true`),
		// Floats: bit-identical through ParseFloat; overflow rejects.
		withField(`"serving_db":1e999`), withField(`"serving_db":-1e-400`), withField(`"dmb":-0`),
		withField(`"ssn_db":0.1000000000000000055511151231257827`), withField(`"cssp_db":4.9e-324`),
		withField(`"speed_kmh":1E+2`), withField(`"serving_db":true`), withField(`"serving_db":"1"`),
		// "x" is an unknown key in every spelling, whatever its value.
		withField(`"x":{"a":1},"x":{"b":2}`), withField(`"x":{"a":1},"x":{}`), withField(`"x":{"ab":-0}`),
		withField("\"x\":{\"\xff\":1}"), withField(`"x":{"a":1,"a":2}`), withField(`"x":{"a":1e400}`),
		withField(`"x":{"a":[1]}`), withField(`"x":{"a":{}}`), withField(`"x":{"a":true}`), withField(`"X":{"a":1}`),
		// Syntax anywhere rejects the whole line, even past a report that
		// failed only its own decode or validation.
		"[" + goodReport + "," + withField(`"rsrp":1`) + "," + goodReport,
		"[" + withField(`"dmb":-2`) + ", tru]", "[" + goodReport + "]]", "[" + goodReport + "] x",
		goodReport + " " + goodReport, goodReport + "x", "[" + goodReport + ",]", `{"terminal":1,}`,
		withField(`"a":"\x01"`), withField(`"a":"\q"`), withField(`"a":"\u12G4"`), withField(`"a":01`),
		withField(`"a":1.`), withField(`"a":-`), withField(`"a":.5`), withField(`"a":+1`), withField(`"a":nul`),
		"\t[ " + goodReport + " ,\r\n" + goodReport + " ]\n",
		// The nesting limit: 10000 open arrays and objects, line included.
		withField(`"serving":[0,0,` + nested(9998) + `]`), withField(`"serving":[0,0,` + nested(9999) + `]`),
		"[" + withField(`"rsrp":`+nested(9998)) + "]", "[" + withField(`"rsrp":`+nested(9999)) + "]",
	}
	for _, bad := range parseRejectContractCases {
		lines = append(lines, bad, "["+goodReport+","+bad+"]", "["+bad+","+goodReport+"]")
	}
	return lines
}

// outcomeQuirkLines are decision lines on which a hand-rolled decoder
// most easily parts from encoding/json, each checked against the oracle.
func outcomeQuirkLines() []string {
	var lines []string
	for _, o := range outcomeShapes {
		lines = append(lines, string(AppendOutcomeJSON(nil, o)))
	}
	return append(lines,
		`{"error":"line 3: malformed report line"}`, `{"error":""}`, `{"error":5}`, `{"terminal":null}`,
		`{"terminal":1,"terminal":null,"error":"x"}`, `{"terminal":null,"terminal":2}`, `{"terminal":1,"error":"boom"}`,
		`{"Terminal":5,"SEQ":2,"Reason":"r","pingPong":true,"ſcored":true}`, `{"terminal":4}`,
		`{"terminal":1,"extra":{"a":[1,2,{"b":null}],"c":"d"},"more":[true,false,-1.5e3]}`,
		`{"terminal":1,"extra":`+nested(9998)+`}`, `{"terminal":1,"extra":`+nested(9999)+`}`,
		`{"terminal":1,"reason":"a\"b\\c\/d\b\f\n\r\té😀"}`,
		`{"terminal":1,"reason":"\ud800"}`, `{"terminal":1,"reason":"\udc00x"}`, `{"terminal":1,"reason":"\ud800A"}`,
		`{"terminal":1,"reason":"\ud800𐀀"}`, "{\"terminal\":1,\"reason\":\"\xff\xfe\"}",
		"{\"terminal\":1,\"reason\":\"\xe2\x82\"}", "{\"terminal\":1,\"reason\":\"\xed\xa0\x80\xef\xbf\xbd\"}",
		`{"terminal":1,"seq":"1"}`, `{"terminal":1,"handover":1}`, `{"terminal":1,"score":"x"}`, `{"terminal":1,"reason":5}`,
		`{"terminal":1,"seq":1.5}`, `{"terminal":1,"score":1e999}`, `{"terminal":-1}`, `{"terminal":1,"seq":null,"reason":null}`,
		"  {\"terminal\":1}  \n", "", " ", "null", "[]", "1", `"s"`, `{"terminal":1}x`, `{"terminal":1}{}`,
		`{"terminal":1,"reason":"a`, `{"terminal":1,"reason":"\x01"}`, `{"terminal":1,}`, `{"terminal" 1}`,
	)
}

// TestParseBatchLineMatchesOracle pins the batch decoder to encoding/json
// on every quirk line, deterministically (FuzzParseBatchLine explores
// from the same seeds).
func TestParseBatchLineMatchesOracle(t *testing.T) {
	for _, line := range batchQuirkLines() {
		if msg := batchMismatch([]byte(line)); msg != "" {
			t.Errorf("%.120q: %s", line, msg)
		}
	}
}

// TestParseOutcomeLineMatchesOracle is the outcome decoder's counterpart.
func TestParseOutcomeLineMatchesOracle(t *testing.T) {
	for _, line := range outcomeQuirkLines() {
		if msg := outcomeMismatch([]byte(line)); msg != "" {
			t.Errorf("%.120q: %s", line, msg)
		}
	}
}
