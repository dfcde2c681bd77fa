package serve

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/cell"
	"repro/internal/hexgrid"
)

// WireReport is the newline-JSON ingest format of one measurement report —
// the over-the-wire shape of Report consumed by cmd/hoserve.  Cells are
// [i, j] axial labels; power fields are dB.
type WireReport struct {
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

// WireOutcome is the newline-JSON decision format cmd/hoserve emits.
// Score is meaningful only when Scored is set: the pair distinguishes a
// legitimate score of exactly 0 from "the algorithm produced no score",
// which a bare omitempty float cannot.
type WireOutcome struct {
	Terminal uint64  `json:"terminal"`
	Seq      uint64  `json:"seq"`
	Handover bool    `json:"handover"`
	Score    float64 `json:"score,omitempty"`
	Scored   bool    `json:"scored,omitempty"`
	Reason   string  `json:"reason"`
	Executed bool    `json:"executed"`
	PingPong bool    `json:"pingpong,omitempty"`
	Error    string  `json:"error,omitempty"`
}

// Wire converts a report to its wire shape — the inverse of
// WireReport.Report.
func (r Report) Wire() WireReport {
	return WireReport{
		Terminal:   uint64(r.Terminal),
		Serving:    [2]int{r.Meas.Serving.I, r.Meas.Serving.J},
		Neighbor:   [2]int{r.Meas.Neighbor.I, r.Meas.Neighbor.J},
		ServingDB:  r.Meas.ServingDB,
		NeighborDB: r.Meas.NeighborDB,
		CSSPdB:     r.Meas.CSSPdB,
		DMBNorm:    r.Meas.DMBNorm,
		WalkedKm:   r.Meas.WalkedKm,
		SpeedKmh:   r.Meas.SpeedKmh,
	}
}

// Report converts the wire shape to the engine's ingest type.
func (w WireReport) Report() Report {
	return Report{
		Terminal: TerminalID(w.Terminal),
		Meas: cell.Measurement{
			Serving:    hexgrid.Cell{I: w.Serving[0], J: w.Serving[1]},
			Neighbor:   hexgrid.Cell{I: w.Neighbor[0], J: w.Neighbor[1]},
			ServingDB:  w.ServingDB,
			NeighborDB: w.NeighborDB,
			CSSPdB:     w.CSSPdB,
			DMBNorm:    w.DMBNorm,
			WalkedKm:   w.WalkedKm,
			SpeedKmh:   w.SpeedKmh,
		},
	}
}

// Validate rejects reports no decision algorithm can sanely consume.
func (w WireReport) Validate() error {
	r := w.Report()
	return validateReport(&r)
}

// The wire validity rules validateReport checks, in order.
const (
	ruleFinite = iota
	ruleNonNegative
	ruleDistinctCells
	ruleCellRange
)

// validateReport is Validate on the engine's type.  It allocates only to
// format a rejection, so the decoders run it on every report.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func validateReport(r *Report) error {
	m := &r.Meas
	vals := [...]float64{m.ServingDB, m.NeighborDB, m.CSSPdB, m.DMBNorm, m.WalkedKm, m.SpeedKmh}
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			//fuzzyho:allow cold: formats the rejection of an invalid report
			return rejectReport(r, ruleFinite, k)
		}
	}
	for k := 3; k < len(vals); k++ { // dmb, walked_km, speed_kmh
		if vals[k] < 0 {
			//fuzzyho:allow cold: formats the rejection of an invalid report
			return rejectReport(r, ruleNonNegative, k)
		}
	}
	if m.Serving == m.Neighbor {
		//fuzzyho:allow cold: formats the rejection of an invalid report
		return rejectReport(r, ruleDistinctCells, 0)
	}
	if !cellFits(m.Serving) {
		//fuzzyho:allow cold: formats the rejection of an invalid report
		return rejectReport(r, ruleCellRange, 0)
	}
	if !cellFits(m.Neighbor) {
		//fuzzyho:allow cold: formats the rejection of an invalid report
		return rejectReport(r, ruleCellRange, 1)
	}
	return nil
}

// wireFloatNames are the wire keys of validateReport's float fields.
var wireFloatNames = [...]string{"serving_db", "ssn_db", "cssp_db", "dmb", "walked_km", "speed_kmh"}

// rejectReport formats validateReport's rejection of r for the broken
// rule; i is the float field's index, or 0 for serving and 1 for
// neighbor.
func rejectReport(r *Report, rule, i int) error {
	m := &r.Meas
	switch rule {
	case ruleFinite:
		return fmt.Errorf("serve: report field %s is not finite", wireFloatNames[i])
	case ruleNonNegative:
		v := [...]float64{m.DMBNorm, m.WalkedKm, m.SpeedKmh}[i-3]
		return fmt.Errorf("serve: negative %s %g", wireFloatNames[i], v)
	case ruleDistinctCells:
		return fmt.Errorf("serve: serving and neighbor are both BS(%d,%d)", m.Serving.I, m.Serving.J)
	}
	c, name := m.Serving, "serving" // ruleCellRange
	if i == 1 {
		c, name = m.Neighbor, "neighbor"
	}
	return fmt.Errorf("serve: %s [%d,%d] outside the int32 range", name, c.I, c.J)
}

// ParseBatchLine decodes one ingest line: either a single JSON report
// object or a JSON array of them (one batch).  A malformed line (broken
// JSON) yields a descriptive error and no reports.  Reports decode
// strictly: a key that names no WireReport field rejects that report —
// this codec's pinned contract, since a silently dropped field would
// desynchronize a mixed-version cluster's decisions without any error
// surfacing.  A line whose report i fails to decode or validate yields
// the validated prefix — every report before the offending one, in
// order — alongside an error naming the failing index, so callers can
// serve the prefix (or drop it) without re-parsing; reports after the
// first invalid one are never returned.
//
// The decoder is hand-rolled (see wireScan), but the language it accepts
// and the values it decodes are encoding/json's for WireReport with
// unknown fields disallowed: FuzzParseBatchLine holds it to that decoder.
func ParseBatchLine(line []byte) ([]Report, error) {
	// A paper report takes over 100 bytes on the wire, so this sizes the
	// result for the whole line in one allocation.
	return parseBatchInto(make([]Report, 0, len(line)/100+1), line)
}

// parseBatchInto is ParseBatchLine decoding into dst's storage: reports
// are appended to dst[:0], so a caller that reuses its slice decodes a
// paper line without allocating.  It returns nil instead of dst when no
// reports come back for a blank, malformed or rejected single-report
// line.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func parseBatchInto(dst []Report, line []byte) ([]Report, error) {
	s := wireScan{b: trimSpace(line)}
	if len(s.b) == 0 {
		return nil, nil
	}
	dst = dst[:0]
	if s.b[0] != '[' {
		dst = append(dst, Report{})
		if !s.report(&dst[0]) || !s.end() || s.fault != "" {
			//fuzzyho:allow cold: formats the rejection of a malformed line
			return nil, s.failure("report line")
		}
		if err := validateReport(&dst[0]); err != nil {
			//fuzzyho:allow cold: formats the rejection of an invalid report
			return nil, s.rejection(0, 1, err)
		}
		return dst, nil
	}
	// Decode up to the first report that fails, then only check the
	// syntax of the rest: a syntax error anywhere rejects the whole line.
	var verr error
	failed, n := -1, 0
	more, ok := s.enter(']')
	for ok && more {
		if failed < 0 {
			dst = append(dst, Report{})
			r := &dst[len(dst)-1]
			if ok = s.report(r); ok && s.fault == "" {
				verr = validateReport(r)
			}
			if s.fault != "" || verr != nil {
				failed, dst = n, dst[:len(dst)-1]
			}
		} else {
			ok = s.skip()
		}
		n++
		if ok {
			more, ok = s.next(']')
		}
	}
	if !ok || !s.end() {
		//fuzzyho:allow cold: formats the rejection of a malformed line
		return nil, s.failure("batch line")
	}
	if failed >= 0 {
		//fuzzyho:allow cold: formats the rejection of an invalid report
		return dst, s.rejection(failed, n, verr)
	}
	return dst, nil
}

// trimSpace strips ASCII whitespace without allocating.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func trimSpace(b []byte) []byte {
	lo, hi := 0, len(b)
	for lo < hi && (b[lo] == ' ' || b[lo] == '\t' || b[lo] == '\r' || b[lo] == '\n') {
		lo++
	}
	for hi > lo && (b[hi-1] == ' ' || b[hi-1] == '\t' || b[hi-1] == '\r' || b[hi-1] == '\n') {
		hi--
	}
	return b[lo:hi]
}

// AppendReportJSON appends one report in the WireReport shape (no trailing
// newline — reports usually travel inside batch arrays) to dst and returns
// the extended slice.  Hand-rolled like AppendOutcomeJSON so a cluster
// router forwarding millions of reports does not allocate per report.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:wirepair parse=ParseBatchLine fuzz=FuzzParseBatchLine
func AppendReportJSON(dst []byte, r Report) []byte {
	dst = append(dst, `{"terminal":`...)
	dst = strconv.AppendUint(dst, uint64(r.Terminal), 10)
	dst = append(dst, `,"serving":[`...)
	dst = strconv.AppendInt(dst, int64(r.Meas.Serving.I), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.Meas.Serving.J), 10)
	dst = append(dst, `],"neighbor":[`...)
	dst = strconv.AppendInt(dst, int64(r.Meas.Neighbor.I), 10)
	dst = append(dst, ',')
	dst = strconv.AppendInt(dst, int64(r.Meas.Neighbor.J), 10)
	dst = append(dst, `],"serving_db":`...)
	dst = strconv.AppendFloat(dst, r.Meas.ServingDB, 'g', -1, 64)
	dst = append(dst, `,"ssn_db":`...)
	dst = strconv.AppendFloat(dst, r.Meas.NeighborDB, 'g', -1, 64)
	dst = append(dst, `,"cssp_db":`...)
	dst = strconv.AppendFloat(dst, r.Meas.CSSPdB, 'g', -1, 64)
	dst = append(dst, `,"dmb":`...)
	dst = strconv.AppendFloat(dst, r.Meas.DMBNorm, 'g', -1, 64)
	dst = append(dst, `,"walked_km":`...)
	dst = strconv.AppendFloat(dst, r.Meas.WalkedKm, 'g', -1, 64)
	dst = append(dst, `,"speed_kmh":`...)
	dst = strconv.AppendFloat(dst, r.Meas.SpeedKmh, 'g', -1, 64)
	return append(dst, '}')
}

// AppendBatchJSON appends a batch of reports as one JSON-array ingest line
// (with trailing newline) to dst and returns the extended slice.  The
// output round-trips through ParseBatchLine report for report.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func AppendBatchJSON(dst []byte, rs []Report) []byte {
	dst = append(dst, '[')
	for i := range rs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendReportJSON(dst, rs[i])
	}
	return append(dst, ']', '\n')
}

// AppendOutcomeJSON appends the outcome as one JSON line (with trailing
// newline) to dst and returns the extended slice.  It is hand-rolled so a
// busy decision stream does not allocate per outcome.  The score is
// emitted together with an explicit "scored" flag whenever the decision
// carries one, so a score of exactly 0 survives the round trip.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
//fuzzyho:wirepair parse=ParseOutcomeLine fuzz=FuzzOutcomeRoundTrip
func AppendOutcomeJSON(dst []byte, o Outcome) []byte {
	dst = append(dst, `{"terminal":`...)
	dst = strconv.AppendUint(dst, uint64(o.Terminal), 10)
	dst = append(dst, `,"seq":`...)
	dst = strconv.AppendUint(dst, o.Seq, 10)
	dst = append(dst, `,"handover":`...)
	dst = strconv.AppendBool(dst, o.Decision.Handover)
	if o.Decision.Scored {
		dst = append(dst, `,"score":`...)
		dst = strconv.AppendFloat(dst, o.Decision.Score, 'g', -1, 64)
		dst = append(dst, `,"scored":true`...)
	}
	dst = append(dst, `,"reason":`...)
	dst = appendJSONString(dst, o.Decision.Reason)
	dst = append(dst, `,"executed":`...)
	dst = strconv.AppendBool(dst, o.Executed)
	if o.PingPong {
		dst = append(dst, `,"pingpong":true`...)
	}
	if o.Err != nil {
		dst = append(dst, `,"error":`...)
		dst = appendJSONString(dst, o.Err.Error())
	}
	dst = append(dst, '}', '\n')
	return dst
}

// WireError is the decode of a line-level `{"error":...}` message: the
// shape a daemon emits when it rejects a whole ingest line (malformed
// JSON, ownership conflict) rather than deciding a report.  It is also
// the Err type of decoded outcomes, carrying the remote error text
// verbatim — re-encoding a decoded outcome reproduces the original line
// byte for byte.
type WireError struct{ Msg string }

func (e *WireError) Error() string { return e.Msg }

// ParseOutcomeLine decodes one decision line a daemon emitted.  Lines
// carrying a terminal decode into a WireOutcome; line-level error messages
// (no "terminal" key) decode into a *WireError so clients can tell "a
// report was decided, possibly with an algorithm error" from "an ingest
// line was rejected and its reports will never be decided".  Unknown keys
// are skipped.  One pass per line, allocating only the reason text — this
// sits on the cluster read hot path.  The accepted language and decoded
// values are encoding/json's, which FuzzParseOutcomeLine holds it to.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func ParseOutcomeLine(line []byte) (WireOutcome, error) {
	s := wireScan{b: line}
	var w WireOutcome
	if terminal, ok := s.outcome(&w); !ok || !s.end() || s.fault != "" || !terminal {
		//fuzzyho:allow cold: a malformed line, or a line-level reject, is no decision
		return WireOutcome{}, s.noOutcome(w.Error)
	}
	return w, nil
}

// Outcome converts the wire shape back to the engine's outcome type.  The
// Shard field is not carried on the wire (a remote consumer has no use for
// another process's shard index) and decodes as -1.
func (w WireOutcome) Outcome() Outcome {
	o := Outcome{
		Terminal: TerminalID(w.Terminal),
		Seq:      w.Seq,
		Executed: w.Executed,
		PingPong: w.PingPong,
		Shard:    -1,
	}
	o.Decision.Handover = w.Handover
	o.Decision.Score = w.Score
	o.Decision.Scored = w.Scored
	o.Decision.Reason = w.Reason
	if w.Error != "" {
		o.Err = &WireError{Msg: w.Error}
	}
	return o
}

// appendJSONString appends s as a JSON string.  Reasons and error texts
// are ASCII; anything outside the safe set is escaped numerically.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func appendJSONString(dst []byte, s string) []byte {
	const hexDigits = "0123456789abcdef"
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			// Control bytes escape as \u00XX, hand-rolled: a fmt.Sprintf
			// here would put an allocation on the outcome encode path for
			// every reason string containing one.
			dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

// maxWireDepth is encoding/json's nesting limit: a line that nests more
// arrays and objects than this is malformed.
const maxWireDepth = 10000

// wireScan is the strict one-pass JSON decoder behind ParseBatchLine and
// ParseOutcomeLine.  It accepts exactly encoding/json's grammar (its
// whitespace, string escapes, number syntax and nesting limit) and
// decodes fields by encoding/json's rules:
//
//   - a key selects a field by exact name or, failing that,
//     case-insensitively (strings.EqualFold); a key with escapes is
//     unquoted first, and a repeated key's last value wins;
//   - null leaves a field unchanged;
//   - a cell array shorter than 2 is zero-filled, a longer one drops its
//     extras;
//   - numbers go through strconv.ParseUint, ParseInt or ParseFloat on the
//     literal's bytes, so integer fields reject fractions, exponents and
//     overflow, and floats are bit-identical.
//
// A syntax error records syn and unwinds: every method then returns
// false, and the whole line is rejected.  A well-formed value that cannot
// decode (a mistyped field, an unknown report key) records fault and the
// scan goes on, so a syntax error later in the line still rejects all of
// it.
type wireScan struct {
	b     []byte
	i     int // read offset
	depth int // open arrays and objects

	syn   string // first syntax error, "" while the line is well-formed
	synAt int    // its offset

	fault    string // first decode fault, "" while every value decoded
	faultKey [2]int // byte range of the key fault was found under
	keyAt    [2]int // byte range of the key being decoded
}

// bstr views b as a string without copying.  The view must not outlive
// b's contents; strconv, its only keeper, clones it into *NumError.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func bstr(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// peek skips whitespace and returns the next byte, 0 at the end.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) peek() byte {
	b, i := s.b, s.i
	for ; i < len(b); i++ {
		if c := b[i]; c > ' ' || c != ' ' && c != '\t' && c != '\r' && c != '\n' {
			s.i = i
			return c
		}
	}
	s.i = i
	return 0
}

// end checks that only whitespace follows the value.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) end() bool {
	if s.peek(); s.i < len(s.b) {
		return s.syntax("after top-level value")
	}
	return true
}

// syntax records a syntax error at the read offset and returns false.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) syntax(what string) bool {
	if s.syn == "" {
		s.syn, s.synAt = what, s.i
	}
	return false
}

// mistyped records a decode fault against the current key and steps over
// its value.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) mistyped(what string) bool {
	s.setFault(what)
	return s.skip()
}

// setFault records a decode fault against the current key.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) setFault(what string) {
	if s.fault == "" {
		s.fault, s.faultKey = what, s.keyAt
	}
}

// failure formats why the line, naming it what, was rejected: the syntax
// error if there was one, else the decode fault ("" for what returns the
// fault alone, for the caller to wrap).
func (s *wireScan) failure(what string) error {
	if s.syn != "" {
		if s.synAt >= len(s.b) {
			return fmt.Errorf("serve: malformed %s: unexpected end of JSON input", what)
		}
		return fmt.Errorf("serve: malformed %s: invalid character %q %s (offset %d)", what, s.b[s.synAt], s.syn, s.synAt)
	}
	subject := "value"
	if k := s.faultKey; k[1] > k[0] {
		subject = "field " + string(s.b[k[0]:k[1]])
	}
	if what == "" {
		return fmt.Errorf("%s %s", subject, s.fault)
	}
	return fmt.Errorf("serve: malformed %s: %s %s", what, subject, s.fault)
}

// rejection formats the error of the report at index i of an n-report
// line, which failed validation with verr or, when verr is nil, its
// decode: the reports before it form the validated prefix.
func (s *wireScan) rejection(i, n int, verr error) error {
	if verr == nil {
		verr = s.failure("")
	}
	return fmt.Errorf("report %d: %w (%d of %d validated)", i, verr, i, n)
}

// noOutcome formats why an outcome line decoded to no decision: it was
// malformed, or it carried no terminal — the daemon's line-level reject
// when it carries error text msg.
func (s *wireScan) noOutcome(msg string) error {
	switch {
	case s.syn != "" || s.fault != "":
		return s.failure("outcome line")
	case msg != "":
		return &WireError{Msg: msg}
	}
	return fmt.Errorf("serve: outcome line carries no terminal: %.200s", s.b)
}

// enter steps into the array or object that closes with closer; more
// reports whether it holds an element.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) enter(closer byte) (more, ok bool) {
	if s.depth++; s.depth > maxWireDepth {
		return false, s.syntax("exceeded max depth")
	}
	s.i++
	if s.peek() == closer {
		s.i++
		s.depth--
		return false, true
	}
	return true, true
}

// next steps past the comma after an element (more: another follows) or
// past the closer of its array or object.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) next(closer byte) (more, ok bool) {
	switch s.peek() {
	case ',':
		s.i++
		return true, true
	case closer:
		s.i++
		s.depth--
		return false, true
	}
	return false, s.syntax("after array element or object key:value pair")
}

// key scans an object key and its colon, returning the key's raw
// content; esc reports that it needs unquoting.  Fault messages name the
// key.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) key() (raw []byte, esc, ok bool) {
	if s.peek() != '"' {
		return nil, false, s.syntax("looking for beginning of object key string")
	}
	at := s.i
	if raw, esc, ok = s.str(); ok {
		s.keyAt = [2]int{at, s.i}
		if s.peek() != ':' {
			return nil, false, s.syntax("after object key")
		}
		s.i++
	}
	return raw, esc, ok
}

// field scans an object key and its colon and returns the index of the
// name in names the key selects, len(names) for none: encoding/json's
// exact match, else its case-insensitive one, after unquoting.  It tries
// names[next] first, as the encoders emit keys in names order.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) field(names []string, next int) (int, bool) {
	if next < len(names) && s.peek() == '"' {
		// names hold no byte a string escapes, so the key is names[next]
		// exactly when the quoted name is next on the line.
		at, name := s.i, names[next]
		if end := at + 1 + len(name); end < len(s.b) && s.b[end] == '"' && bstr(s.b[at+1:end]) == name {
			s.i, s.keyAt = end+1, [2]int{at, end + 1}
			if s.peek() != ':' {
				return 0, s.syntax("after object key")
			}
			s.i++
			return next, true
		}
	}
	raw, esc, ok := s.key()
	if !ok {
		return 0, false
	}
	k := bstr(raw)
	if esc {
		//fuzzyho:allow cold: the encoders never emit keys with escapes or non-ASCII bytes
		k = wireString(raw, true)
	}
	for f, name := range names {
		if k == name {
			return f, true
		}
	}
	for f, name := range names {
		if strings.EqualFold(k, name) {
			return f, true
		}
	}
	return len(names), true
}

// str scans the string at the read offset and returns its raw content;
// esc reports a backslash or a non-ASCII byte in it, either of which
// needs unquoting.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) str() (raw []byte, esc, ok bool) {
	b := s.b
	lo := s.i + 1 // past the opening quote
	for i := lo; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			s.i = i + 1
			return b[lo:i], esc, true
		case c == '\\':
			s.i = i
			if !s.escape() {
				return nil, false, false
			}
			i, esc = s.i, true
		case c < 0x20:
			s.i = i
			return nil, false, s.syntax("in string literal")
		default:
			esc = esc || c >= utf8.RuneSelf
			i++
		}
	}
	s.i = len(b)
	return nil, false, s.syntax("in string literal")
}

// escape checks the backslash escape at the read offset and steps past
// it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) escape() bool {
	s.i++
	if s.i >= len(s.b) {
		return s.syntax("in string escape code")
	}
	switch s.b[s.i] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		s.i++
		return true
	case 'u':
		for k := 0; k < 4; k++ {
			s.i++
			if s.i >= len(s.b) || hexVal(s.b[s.i]) < 0 {
				return s.syntax(`in \u hexadecimal character escape`)
			}
		}
		s.i++
		return true
	}
	return s.syntax("in string escape code")
}

// hexVal is the value of a hexadecimal digit, -1 for any other byte.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func hexVal(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10)
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10)
	}
	return -1
}

// digits returns the offset past the run of decimal digits at b[i:].
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// lit steps over the literal word at the read offset.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) lit(word string) bool {
	if len(s.b)-s.i < len(word) || bstr(s.b[s.i:s.i+len(word)]) != word {
		return s.syntax("in literal")
	}
	s.i += len(word)
	return true
}

// skip checks the syntax of the value at the read offset and steps over
// it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) skip() bool {
	switch c := s.peek(); {
	case c == '{':
		more, ok := s.enter('}')
		for ok && more {
			if _, _, ok = s.key(); ok {
				if ok = s.skip(); ok {
					more, ok = s.next('}')
				}
			}
		}
		return ok
	case c == '[':
		more, ok := s.enter(']')
		for ok && more {
			if ok = s.skip(); ok {
				more, ok = s.next(']')
			}
		}
		return ok
	case c == '"':
		_, _, ok := s.str()
		return ok
	case c == 't':
		return s.lit("true")
	case c == 'f':
		return s.lit("false")
	case c == 'n':
		return s.lit("null")
	case c == '-' || '0' <= c && c <= '9':
		_, ok := s.number()
		return ok
	}
	return s.syntax("looking for beginning of value")
}

// number scans a numeric value and returns its literal: nil for null,
// which leaves a numeric field unchanged, and for a value of another
// kind, which is a fault.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) number() ([]byte, bool) {
	switch c := s.peek(); {
	case c == 'n':
		return nil, s.lit("null")
	case c != '-' && (c < '0' || c > '9'):
		return nil, s.mistyped("is not a number")
	}
	b, lo := s.b, s.i
	i := lo
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		s.i = i
		return nil, s.syntax("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			s.i = j
			return nil, s.syntax("after decimal point in numeric literal")
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			s.i = j
			return nil, s.syntax("in exponent of numeric literal")
		}
		i = j
	}
	s.i = i
	return b[lo:i], true
}

// uintField decodes an unsigned integer field.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) uintField(dst *uint64) bool {
	lit, ok := s.number()
	if lit != nil {
		if v, err := strconv.ParseUint(bstr(lit), 10, 64); err == nil {
			*dst = v
		} else {
			s.setFault("is not an unsigned 64-bit integer")
		}
	}
	return ok
}

// intField decodes a signed integer field.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) intField(dst *int) bool {
	lit, ok := s.number()
	if lit != nil {
		if v, err := strconv.ParseInt(bstr(lit), 10, 64); err == nil {
			*dst = int(v)
		} else {
			s.setFault("is not a 64-bit integer")
		}
	}
	return ok
}

// floatField decodes a float field.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) floatField(dst *float64) bool {
	lit, ok := s.number()
	if lit != nil {
		if v, err := strconv.ParseFloat(bstr(lit), 64); err == nil {
			*dst = v
		} else {
			s.setFault("overflows float64")
		}
	}
	return ok
}

// boolField decodes a bool field; null leaves it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) boolField(dst *bool) bool {
	switch s.peek() {
	case 't':
		*dst = true
		return s.lit("true")
	case 'f':
		*dst = false
		return s.lit("false")
	case 'n':
		return s.lit("null")
	}
	return s.mistyped("is not a bool")
}

// stringField decodes a string field; null leaves it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) stringField(dst *string) bool {
	switch s.peek() {
	case '"':
		raw, esc, ok := s.str()
		if ok {
			//fuzzyho:allow the decoded text is the value's own storage: the outcome decoder's one allocation
			*dst = wireString(raw, esc)
		}
		return ok
	case 'n':
		return s.lit("null")
	}
	return s.mistyped("is not a string")
}

// cellField decodes an [i, j] cell label; null leaves it.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) cellField(c *hexgrid.Cell) bool {
	switch s.peek() {
	case '[':
	case 'n':
		return s.lit("null")
	default:
		return s.mistyped("is not an [i, j] array")
	}
	n := 0
	more, ok := s.enter(']')
	for ; ok && more; n++ {
		switch n {
		case 0:
			ok = s.intField(&c.I)
		case 1:
			ok = s.intField(&c.J)
		default:
			ok = s.skip()
		}
		if ok {
			more, ok = s.next(']')
		}
	}
	if n < 1 {
		c.I = 0
	}
	if n < 2 {
		c.J = 0
	}
	return ok
}

// reportKeys are WireReport's keys, indexed as report decodes them.
var reportKeys = [...]string{"terminal", "serving", "neighbor", "serving_db", "ssn_db", "cssp_db", "dmb", "walked_km", "speed_kmh"}

// report decodes one report into r, which the caller zeroed: an object,
// or null, which leaves r zero.  An unknown key is a fault.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) report(r *Report) bool {
	s.keyAt = [2]int{}
	switch s.peek() {
	case '{':
	case 'n':
		return s.lit("null")
	default:
		return s.mistyped("is not an object")
	}
	m := &r.Meas
	f := -1
	more, ok := s.enter('}')
	for ok && more {
		if f, ok = s.field(reportKeys[:], f+1); !ok {
			break
		}
		switch f {
		case 0:
			ok = s.uintField((*uint64)(&r.Terminal))
		case 1:
			ok = s.cellField(&m.Serving)
		case 2:
			ok = s.cellField(&m.Neighbor)
		case 3:
			ok = s.floatField(&m.ServingDB)
		case 4:
			ok = s.floatField(&m.NeighborDB)
		case 5:
			ok = s.floatField(&m.CSSPdB)
		case 6:
			ok = s.floatField(&m.DMBNorm)
		case 7:
			ok = s.floatField(&m.WalkedKm)
		case 8:
			ok = s.floatField(&m.SpeedKmh)
		default:
			ok = s.mistyped("is unknown")
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return ok
}

// outcomeKeys are WireOutcome's keys, indexed as outcome decodes them.
var outcomeKeys = [...]string{"terminal", "seq", "handover", "score", "scored", "reason", "executed", "pingpong", "error"}

// outcome decodes one outcome line's value into w, skipping unknown keys.
// terminal reports whether a "terminal" key set one: a later null unsets
// it, as encoding/json resets a *uint64 field.
//
//fuzzyho:hotpath
//fuzzyho:deterministic
func (s *wireScan) outcome(w *WireOutcome) (terminal, ok bool) {
	switch s.peek() {
	case '{':
	case 'n':
		return false, s.lit("null")
	default:
		return false, s.mistyped("is not an object")
	}
	f := -1
	more, ok := s.enter('}')
	for ok && more {
		if f, ok = s.field(outcomeKeys[:], f+1); !ok {
			break
		}
		switch f {
		case 0:
			terminal = s.peek() != 'n'
			ok = s.uintField(&w.Terminal)
		case 1:
			ok = s.uintField(&w.Seq)
		case 2:
			ok = s.boolField(&w.Handover)
		case 3:
			ok = s.floatField(&w.Score)
		case 4:
			ok = s.boolField(&w.Scored)
		case 5:
			ok = s.stringField(&w.Reason)
		case 6:
			ok = s.boolField(&w.Executed)
		case 7:
			ok = s.boolField(&w.PingPong)
		case 8:
			ok = s.stringField(&w.Error)
		default:
			ok = s.skip()
		}
		if ok {
			more, ok = s.next('}')
		}
	}
	return terminal, ok
}

// wireString returns a string's raw content, which str checked, as a Go
// string.  When esc says it needs it, the content is unquoted by
// encoding/json's rules: escapes decode, and a UTF-16 surrogate that
// does not pair and each byte of invalid UTF-8 become U+FFFD.
//
//fuzzyho:deterministic
func wireString(raw []byte, esc bool) string {
	if !esc {
		return string(raw)
	}
	dst := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		c := raw[i]
		switch {
		case c == '\\':
			c = raw[i+1]
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			case 'u':
				r := u4(raw[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					r = utf16.DecodeRune(r, u4(raw[i:]))
					if r != unicode.ReplacementChar {
						i += 6
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			}
			dst = append(dst, c)
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			dst = utf8.AppendRune(dst, r)
			i += n
		}
	}
	return string(dst)
}

// u4 decodes the \uXXXX escape that b starts with, -1 if it starts with
// none.
//
//fuzzyho:deterministic
func u4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		v := hexVal(c)
		if v < 0 {
			return -1
		}
		r = r<<4 | v
	}
	return r
}
