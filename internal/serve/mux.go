package serve

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
)

// Sink serializes decision lines onto one writer — one per ingest
// connection (or one for stdout).  After a write error the sink goes dead
// and drops further output: a vanished client must not stall the shard
// callbacks that feed it.
type Sink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	buf []byte
	err error
}

// NewSink wraps w in a buffered decision sink.
func NewSink(w io.Writer) *Sink {
	return &Sink{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, 0, 256)}
}

// WriteOutcome encodes and writes one decision line.
func (s *Sink) WriteOutcome(o Outcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = AppendOutcomeJSON(s.buf[:0], o)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// WriteControl encodes and writes one control line.
func (s *Sink) WriteControl(c WireControl) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = AppendControlJSON(s.buf[:0], c)
	if _, err := s.w.Write(s.buf); err != nil {
		s.err = err
	}
}

// WriteError writes one line-level `{"error":...}` message (the shape
// ParseOutcomeLine decodes as *WireError).
func (s *Sink) WriteError(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.buf = append(s.buf[:0], `{"error":`...)
	s.buf = appendJSONString(s.buf, err.Error())
	s.buf = append(s.buf, '}', '\n')
	if _, werr := s.w.Write(s.buf); werr != nil {
		s.err = werr
	}
}

// Flush pushes buffered lines to the underlying writer and returns the
// sink's sticky error, if any.
func (s *Sink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = s.w.Flush()
	}
	return s.err
}

// OwnershipError reports a terminal-ownership conflict: a connection
// submitted reports for a terminal another live connection already owns.
type OwnershipError struct{ Terminal TerminalID }

func (e *OwnershipError) Error() string {
	return fmt.Sprintf("serve: terminal %d is owned by another connection", e.Terminal)
}

// ErrSuperseded means the connection's claims were taken over by a newer
// connection carrying the same identity; the superseded connection must
// stop submitting.
var ErrSuperseded = errors.New("serve: connection superseded by a newer connection with the same identity")

// DecisionMux routes engine outcomes back to the ingest connection that
// owns each terminal, with exclusive ownership:
//
//   - A terminal is claimed by the first connection that submits a report
//     for it and stays claimed until that connection releases (closes).
//   - A second connection submitting the same terminal is rejected with an
//     *OwnershipError — accepting it would interleave one terminal's state
//     stream across connections and route decisions to whichever sink
//     happened to bind last.
//   - Exception: a connection that announced the same identity (hello)
//     as the current owner TAKES OVER the owner's claims.  This is the
//     reconnect path — the old connection is a dead incarnation of the
//     same client, but its socket may not have errored yet, so waiting
//     for its release would strand the client.  Takeover is safe, not
//     just permitted: the old binding is revoked first (its in-flight
//     submit fences out), then the mux drains so every already-submitted
//     outcome reaches the old sink, and only then do claims transfer.
//     No terminal's decision stream is lost or interleaved across the
//     boundary.
//   - A claim made by a line that is later rejected (validation error
//     further into the batch) is kept: ownership is a property of the
//     connection, not of any one line's fate.
//
// Route runs on shard goroutines; Binding methods on connection
// goroutines.
//
// The claim table is one plain map from terminal to owning binding
// under one read-write lock: a claim costs its map slot (~36 B at
// 65,536 claims), and routing an outcome or re-binding a claimed
// terminal is one read-locked lookup that allocates nothing.  The lock
// is a leaf lock: it is never held across Drain, a sink write or a
// Binding's mutex.  The zero DecisionMux is ready to use.
type DecisionMux struct {
	// Drain blocks until every outcome for reports submitted so far has
	// been routed.  Takeover uses it as the barrier between routing a
	// terminal's decisions to the old sink and to the new one; nil skips
	// the barrier (outcomes may race the transfer).
	Drain func() error

	// mu guards claims, which is made on the first claim and dropped
	// when a release empties it.
	mu     sync.RWMutex
	claims map[TerminalID]*Binding
}

// NewDecisionMux returns an empty mux.
func NewDecisionMux() *DecisionMux { return &DecisionMux{} }

// owner returns the binding claiming id, or nil.
//
//fuzzyho:nolockio
func (m *DecisionMux) owner(id TerminalID) *Binding {
	m.mu.RLock()
	b := m.claims[id]
	m.mu.RUnlock()
	return b
}

// claim returns id's owner, first making b the owner if no binding holds
// id.
//
//fuzzyho:nolockio
func (m *DecisionMux) claim(id TerminalID, b *Binding) *Binding {
	if cur := m.owner(id); cur != nil {
		return cur
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if cur := m.claims[id]; cur != nil {
		return cur
	}
	if m.claims == nil {
		m.claims = make(map[TerminalID]*Binding)
	}
	m.claims[id] = b
	return b
}

// reassign hands every claim of from to to, or drops it when to is nil.
// A table it leaves empty is dropped, so a fully released mux holds no
// claim storage.
//
//fuzzyho:nolockio
func (m *DecisionMux) reassign(from, to *Binding) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, cur := range m.claims {
		if cur != from {
			continue
		}
		if to == nil {
			delete(m.claims, id)
		} else {
			m.claims[id] = to
		}
	}
	if len(m.claims) == 0 {
		m.claims = nil
	}
}

// Route delivers one outcome to the owning connection's sink (drops it
// if the owner already released).  Use as the engine's OnDecision
// callback.
func (m *DecisionMux) Route(o Outcome) {
	if b := m.owner(o.Terminal); b != nil {
		b.sink.WriteOutcome(o)
	}
}

// ClaimSummary is the mux's live claim table grouped by connection
// identity — the /statusz view of which connections own which share of
// the terminal population.
type ClaimSummary struct {
	// Terminals is the total number of claimed terminals.
	Terminals int `json:"terminals"`
	// Owners maps connection identity ("anonymous" when the connection
	// never sent a hello) to its claim count.
	Owners map[string]int `json:"owners,omitempty"`
}

// Claims summarizes the live claim table.
//
//fuzzyho:nolockio
func (m *DecisionMux) Claims() ClaimSummary {
	sum := ClaimSummary{Owners: make(map[string]int)}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, b := range m.claims {
		sum.Terminals++
		id := b.identityString()
		if id == "" {
			id = "anonymous"
		}
		sum.Owners[id]++
	}
	return sum
}

// Binding is one connection's claim-holding handle on a mux.  It pairs
// the connection's sink with an optional client identity and carries the
// revocation state takeover needs.
type Binding struct {
	mux  *DecisionMux
	sink *Sink

	// identity is the client-announced connection identity ("" until a
	// hello arrives).  Claims held under an identity can be taken over
	// by a new connection announcing the same one.
	identity atomic.Value // string

	// revoked flips when a newer same-identity connection takes this
	// binding's claims (or the binding releases); Submit then refuses
	// with ErrSuperseded.
	revoked atomic.Bool

	// mu serializes Submit/Release and is the takeover fence: a taker
	// must hold it before moving claims, so no submit is mid-flight
	// across the transfer.
	mu sync.Mutex
}

// NewBinding returns a binding routing the mux's outcomes to sink.
func NewBinding(m *DecisionMux, sink *Sink) *Binding {
	return &Binding{mux: m, sink: sink}
}

// SetIdentity records the client-announced connection identity, enabling
// same-identity claim takeover on reconnect.
func (b *Binding) SetIdentity(id string) { b.identity.Store(id) }

func (b *Binding) identityString() string {
	s, _ := b.identity.Load().(string)
	return s
}

// Superseded reports whether a newer connection took this binding's
// claims.
func (b *Binding) Superseded() bool { return b.revoked.Load() }

// Submit claims every report's terminal for this binding and forwards
// the batch through submit.  Claims made before the first conflict are
// kept (see DecisionMux).  Returns ErrSuperseded once a newer connection
// with the same identity has taken over.
func (b *Binding) Submit(rs []Report, submit func([]Report) error) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.revoked.Load() {
		return ErrSuperseded
	}
	for i := range rs {
		if err := b.bind(rs[i].Terminal); err != nil {
			return err
		}
	}
	return submit(rs)
}

// bind claims one terminal, taking over a dead same-identity owner if
// needed.  Called with b.mu held.
func (b *Binding) bind(id TerminalID) error {
	for {
		owner := b.mux.claim(id, b)
		if owner == b {
			return nil
		}
		ident := b.identityString()
		if ident == "" || owner.identityString() != ident {
			return &OwnershipError{Terminal: id}
		}
		if err := b.takeover(owner); err != nil {
			return err
		}
		// Claims transferred (or the owner released concurrently);
		// retry the claim.
	}
}

// takeover moves every claim held by owner to b: revoke, fence out the
// owner's in-flight submit, drain routed outcomes to the old sink, then
// transfer.  Called with b.mu held.
func (b *Binding) takeover(owner *Binding) error {
	owner.revoked.Store(true)
	// Fence: wait until no submit is running on the owner.  TryLock-spin
	// instead of Lock so that two live same-identity connections taking
	// each other over cannot deadlock — each sees itself revoked by the
	// other and backs out.
	for !owner.mu.TryLock() {
		if b.revoked.Load() {
			return ErrSuperseded
		}
		runtime.Gosched()
	}
	defer owner.mu.Unlock()
	// Barrier: everything the owner submitted must route to the owner's
	// sink before claims move, or the tail of its decision stream would
	// appear on the new connection.
	if b.mux.Drain != nil {
		if err := b.mux.Drain(); err != nil {
			return fmt.Errorf("serve: drain before takeover: %w", err)
		}
	}
	b.mux.reassign(owner, b)
	return nil
}

// Release revokes the binding and drops every claim it still holds, so
// its terminals can be re-claimed by a later connection.  Claims already
// taken over are left with their new owner.
func (b *Binding) Release() {
	b.revoked.Store(true)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mux.reassign(b, nil)
}

// maxReusedBatch bounds the report slice an ingest connection keeps
// between lines.
const maxReusedBatch = 4096

// IngestLines reads newline-JSON lines from rd until EOF.  Report lines
// claim their terminals for b and are forwarded through submit; control
// lines (leading `{"ctl"`) are parsed and handed to ctl, which answers
// on the connection's sink itself (a nil ctl rejects them).  Rejected
// lines are reported through reject (with their 1-based line number) and
// skipped; the reader keeps going.  A line whose batch fails validation
// part-way is served up to the failing report: the validated prefix is
// bound and submitted, and the error names the index where the rest was
// dropped.  A read failure (a line past the 16 MiB cap, or a broken
// connection) ends the input: the line it cut counts as read and
// rejected.  Returns lines read and lines (fully or partially) rejected.
//
// Every line decodes into the same report slice, so submit must not
// retain it (Daemon.Submit's contract); a slice grown past
// maxReusedBatch reports is not kept, so one huge line does not pin its
// storage for the connection's life.  The line buffer starts at 64 KiB
// and grows to 16 MiB for the longest line seen.
func IngestLines(rd io.Reader, b *Binding, submit func([]Report) error, ctl func(WireControl) error, reject func(line int, err error)) (lines, bad int) {
	scanner := bufio.NewScanner(rd)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var batch []Report
	for scanner.Scan() {
		lines++
		rejected := false
		fail := func(err error) {
			if !rejected {
				rejected = true
				bad++
			}
			reject(lines, err)
		}
		if isControlLine(scanner.Bytes()) {
			c, err := ParseControlLine(scanner.Bytes())
			if err == nil && ctl == nil {
				err = fmt.Errorf("serve: control op %q not supported here", c.Op)
			}
			if err == nil {
				err = ctl(c)
			}
			if err != nil {
				fail(err)
			}
			continue
		}
		reports, err := parseBatchInto(batch, scanner.Bytes())
		if err != nil {
			fail(err)
		}
		if reports != nil && cap(reports) <= maxReusedBatch {
			batch = reports
		}
		if len(reports) == 0 {
			continue
		}
		if err := b.Submit(reports, submit); err != nil {
			fail(err)
		}
	}
	if err := scanner.Err(); err != nil {
		lines++
		bad++
		reject(lines, fmt.Errorf("read: %w", err))
	}
	return lines, bad
}
