package serve

import (
	"bufio"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Node-client defaults.
const (
	// DefaultNodeQueueDepth bounds a node client's send queue, in encoded
	// batch lines.
	DefaultNodeQueueDepth = 256
	// DefaultRedialWait is the base pause before the first reconnect
	// attempt; later attempts back off exponentially from it.
	DefaultRedialWait = 200 * time.Millisecond
	// DefaultRedialMaxWait caps the exponential reconnect backoff.
	DefaultRedialMaxWait = 3 * time.Second
	// DefaultMaxRedials bounds consecutive failed reconnect attempts
	// before the client goes fatally down.
	DefaultMaxRedials = 25
	// DefaultCloseGrace bounds how long Close waits for the node to
	// answer the drained tail (and for a blocked write to clear) before
	// the connection is cut and the remainder accounted lost.
	DefaultCloseGrace = 10 * time.Second
)

// ErrClientClosed is returned by NodeClient sends after Close.
var ErrClientClosed = errors.New("serve: node client closed")

// NodeClientConfig configures a NodeClient.
type NodeClientConfig struct {
	// QueueDepth bounds the send queue in encoded batch lines (0:
	// DefaultNodeQueueDepth).  A full queue is per-node backpressure:
	// TrySend fails fast with ErrBacklogged, Send blocks.
	QueueDepth int
	// OnOutcome receives every decoded decision, in the node's emission
	// order (per-terminal order is the engine's submission order).  It
	// runs on the client's reader goroutine.
	OnOutcome func(Outcome)
	// OnError receives line-level remote rejects, lost-report notices and
	// connection errors.  Nil discards them — set it: the client's
	// no-silent-drop guarantee is only as good as the listener.
	OnError func(error)
	// RedialWait is the base pause before the first reconnect attempt
	// (0: default); attempt n waits about RedialWait·2ⁿ, jittered.
	RedialWait time.Duration
	// RedialMaxWait caps the exponential backoff between reconnect
	// attempts (0: default; clamped up to RedialWait).
	RedialMaxWait time.Duration
	// MaxRedials bounds consecutive failed reconnects before the client
	// goes fatally down (0: default; negative: no reconnection at all).
	MaxRedials int
	// CloseGrace bounds Close's wait for the tail of decisions (0:
	// DefaultCloseGrace).  Flush before Close to not race the grace.
	CloseGrace time.Duration
	// ClientID is the connection identity announced to the node in the
	// hello control line; a reconnection with the same identity takes
	// over the dead connection's terminal claims instead of bouncing off
	// them (0: a fresh random identity).
	ClientID string
	// SchemaHash is the feature-schema hash announced in the hello
	// control line (0: not announced, and the node checks the paper
	// schema).  A node whose engine scores a different schema rejects
	// the connection outright — mixed-schema report routing would
	// mis-gather feature columns silently.
	SchemaHash uint64
	// Dial overrides how connections are established (nil: net.Dial
	// "tcp").  The fault-injection harness hooks here.
	Dial func(addr string) (net.Conn, error)
}

// NodeCounters is a snapshot of a NodeClient's report ledger.
type NodeCounters struct {
	// Submitted counts reports accepted into the send queue; Delivered
	// the outcomes received back; Lost the reports the client has given
	// up on (connection died with them in flight, or the client went
	// fatally down with them queued).  Submitted − Delivered − Lost is
	// the in-flight balance Flush waits on.
	Submitted, Delivered, Lost uint64
	// Handovers/PingPongs tally executed handovers and flagged returns
	// among the delivered outcomes; RemoteErrors counts line-level
	// rejects the node sent back.
	Handovers, PingPongs, RemoteErrors uint64
	// Reconnects counts successful re-establishments of the connection;
	// Redials every reconnect attempt, successful or not — the gap
	// between them is the node's flappiness, which /metrics exports as
	// serve_client_redials_total.
	Reconnects, Redials uint64
	// QueuedLines is the instantaneous send-queue depth in lines.
	QueuedLines int
}

// pendingLine is one encoded batch line in the send queue.
type pendingLine struct {
	line []byte
	n    uint64 // reports in the line
}

// NodeClient speaks the newline-JSON wire protocol to one remote engine
// node (a hoserve daemon): report batches out on a single ordered
// connection, decision lines back.  It is the per-node building block of
// the cluster's TCP router.
//
// Delivery contract: every submitted report is either decided (OnOutcome)
// or loudly lost — when the connection dies, in-flight reports are counted
// in Lost and surfaced through OnError; the client then reconnects (up to
// MaxRedials) and keeps serving the queue.  Reports are never silently
// dropped and never retried (a retry after a partial write could replay a
// decision and fork the terminal's state stream — re-submission policy
// belongs to the caller, which knows whether its stream is idempotent).
type NodeClient struct {
	addr string
	cfg  NodeClientConfig

	queue chan pendingLine

	// mu guards the closing flag against sends.
	mu      sync.RWMutex
	closing bool
	// connMu guards conn, the live connection, so Close can bound a
	// blocked read or write with a deadline.
	connMu sync.Mutex
	conn   net.Conn
	// down closes when the client goes fatally down; fatalErr carries the
	// error.  Kept apart from mu so a sender blocked on a full queue can
	// observe the transition without anyone needing the write lock.
	down     chan struct{}
	fatalErr atomic.Pointer[error]

	wg sync.WaitGroup

	// ctlMu admits one control operation (Extract/Restore) at a time;
	// pendMu guards the pending op the reader completes.
	ctlMu  sync.Mutex
	pendMu sync.Mutex
	pend   *ctlOp

	submitted  atomic.Uint64
	written    atomic.Uint64
	delivered  atomic.Uint64
	lost       atomic.Uint64
	handovers  atomic.Uint64
	pingpongs  atomic.Uint64
	remoteErrs atomic.Uint64
	reconnects atomic.Uint64
	redials    atomic.Uint64
}

// ctlOp is one in-flight control operation: the reader goroutine
// accumulates shipped snapshots (or the stats payload, or an ack's
// count/node) into it and completes done exactly once.
type ctlOp struct {
	snaps []TerminalSnapshot
	stats WireStats
	count int
	node  int
	done  chan error // buffered; completion never blocks the reader
}

// DialNode connects to a node daemon and starts the writer/reader loops.
// The initial dial is synchronous: a node that is down at construction is
// reported immediately, not after a queue fills.
func DialNode(addr string, cfg NodeClientConfig) (*NodeClient, error) {
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultNodeQueueDepth
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("serve: node queue depth %d must be positive", cfg.QueueDepth)
	}
	if cfg.RedialWait == 0 {
		cfg.RedialWait = DefaultRedialWait
	}
	if cfg.RedialMaxWait == 0 {
		cfg.RedialMaxWait = DefaultRedialMaxWait
	}
	if cfg.RedialMaxWait < cfg.RedialWait {
		cfg.RedialMaxWait = cfg.RedialWait
	}
	if cfg.MaxRedials == 0 {
		cfg.MaxRedials = DefaultMaxRedials
	}
	if cfg.CloseGrace == 0 {
		cfg.CloseGrace = DefaultCloseGrace
	}
	if cfg.ClientID == "" {
		cfg.ClientID = newClientID()
	}
	c := &NodeClient{
		addr:  addr,
		cfg:   cfg,
		queue: make(chan pendingLine, cfg.QueueDepth),
		down:  make(chan struct{}),
	}
	conn, err := c.dial()
	if err != nil {
		return nil, fmt.Errorf("serve: node %s: %w", addr, err)
	}
	c.wg.Add(1)
	go c.run(conn)
	return c, nil
}

// Addr returns the node address the client dials.
func (c *NodeClient) Addr() string { return c.addr }

// Err returns the sticky fatal error, if the client has gone down.
func (c *NodeClient) Err() error {
	if p := c.fatalErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Send encodes the reports as one batch line and enqueues it, blocking
// while the node's queue is full (backpressure).  It fails with
// ErrClientClosed after Close and with the fatal error once the client
// has given up on the node.
func (c *NodeClient) Send(rs []Report) error { return c.send(rs, true) }

// TrySend is Send without blocking: a full queue fails fast with
// ErrBacklogged so the caller can shed or retry on its own terms.
func (c *NodeClient) TrySend(rs []Report) error { return c.send(rs, false) }

func (c *NodeClient) send(rs []Report, block bool) error {
	if len(rs) == 0 {
		return nil
	}
	// Enforce wire validity before anything is enqueued: one invalid
	// report (non-finite float, negative distance, serving == neighbor)
	// would make the remote daemon reject part or all of the coalesced
	// line — dropping other reports on it and opening a ledger gap the
	// client cannot account.  The in-process backends accept what the
	// engine accepts; the wire must be held to the wire's rules here.
	for i := range rs {
		if err := rs[i].Wire().Validate(); err != nil {
			return fmt.Errorf("serve: node %s: report %d: %w", c.addr, i, err)
		}
	}
	p := pendingLine{line: AppendBatchJSON(make([]byte, 0, 160*len(rs)), rs), n: uint64(len(rs))}
	return c.enqueue(p, block, time.Time{})
}

// enqueue adds one encoded line to the send queue.  block=false fails
// fast on a full queue; a non-zero deadline bounds the blocking wait.
func (c *NodeClient) enqueue(p pendingLine, block bool, deadline time.Time) error {
	var wait *time.Timer
	defer func() {
		if wait != nil {
			wait.Stop()
		}
	}()
	for {
		// The enqueue itself is non-blocking and happens under the read
		// lock, after the closing/fatal checks: a line is only ever added
		// while the writer is still guaranteed to drain it (Close flips
		// the flag under the write lock, goDown drains under it).
		// Critically, no sender blocks while holding the lock — that
		// would deadlock Close/goDown against a stalled peer.
		c.mu.RLock()
		if c.closing {
			c.mu.RUnlock()
			return ErrClientClosed
		}
		if err := c.Err(); err != nil {
			c.mu.RUnlock()
			return err
		}
		select {
		case c.queue <- p:
			c.submitted.Add(p.n)
			c.mu.RUnlock()
			return nil
		default:
		}
		c.mu.RUnlock()
		if !block {
			return ErrBacklogged
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return fmt.Errorf("serve: node %s: send queue full past deadline", c.addr)
		}
		// Queue full: wait for drain (or client death) without the lock.
		// One reusable timer — a saturated sender must not allocate a
		// fresh timer every spin.
		if wait == nil {
			wait = time.NewTimer(100 * time.Microsecond)
		} else {
			wait.Reset(100 * time.Microsecond)
		}
		select {
		case <-c.down:
			return c.Err()
		case <-wait.C:
		}
	}
}

// Flush blocks until every report submitted before the call is either
// delivered or accounted lost, or the timeout elapses.  The target is
// snapshotted once — concurrent submitters cannot turn Flush into a
// moving-target wait.  It returns the client's fatal error if it went
// down, and a descriptive error on timeout.
func (c *NodeClient) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	sub := c.submitted.Load()
	for {
		if c.delivered.Load()+c.lost.Load() >= sub {
			return c.Err()
		}
		if err := c.Err(); err != nil {
			// Down for good: the outstanding balance will never clear.
			return err
		}
		if n := c.remoteErrs.Load(); n > 0 {
			// The node rejected n whole ingest lines: their reports will
			// never be decided and the client cannot know how many there
			// were, so the balance can never provably clear.  Fail fast
			// instead of burning the whole timeout on every Flush.
			return fmt.Errorf("serve: node %s: %d ingest line(s) rejected by the node; the ledger cannot balance (see OnError for the rejects)", c.addr, n)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("serve: node %s: flush timed out with %d of %d reports outstanding",
				c.addr, sub-c.delivered.Load()-c.lost.Load(), sub)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// Close stops accepting sends, drains the queued lines to the node, reads
// the remaining decisions and tears the connection down.  The whole
// teardown is bounded by CloseGrace: a node that stops answering cannot
// wedge Close — the tail is cut and accounted lost instead.  Safe to call
// once; concurrent with sends.
func (c *NodeClient) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return ErrClientClosed
	}
	c.closing = true
	c.mu.Unlock()
	// Bound a write blocked against a stalled peer (and the read drain).
	c.connMu.Lock()
	if c.conn != nil {
		c.conn.SetDeadline(time.Now().Add(c.cfg.CloseGrace))
	}
	c.connMu.Unlock()
	c.wg.Wait()
	return c.Err()
}

// setConn records the live connection for Close to bound.  (Lock order:
// connMu may take mu's read side; Close releases mu before taking connMu,
// so there is no inversion.)
func (c *NodeClient) setConn(conn net.Conn) {
	c.connMu.Lock()
	c.conn = conn
	if c.isClosing() {
		conn.SetDeadline(time.Now().Add(c.cfg.CloseGrace))
	}
	c.connMu.Unlock()
}

// Counters snapshots the report ledger.
func (c *NodeClient) Counters() NodeCounters {
	return NodeCounters{
		Submitted:    c.submitted.Load(),
		Delivered:    c.delivered.Load(),
		Lost:         c.lost.Load(),
		Handovers:    c.handovers.Load(),
		PingPongs:    c.pingpongs.Load(),
		RemoteErrors: c.remoteErrs.Load(),
		Reconnects:   c.reconnects.Load(),
		Redials:      c.redials.Load(),
		QueuedLines:  len(c.queue),
	}
}

// surfaces err through OnError, if set.
func (c *NodeClient) surface(err error) {
	if c.cfg.OnError != nil {
		c.cfg.OnError(err)
	}
}

// isClosing reports whether Close has been requested.
func (c *NodeClient) isClosing() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.closing
}

// run owns the connection lifecycle: write the queue to the connection,
// read decisions back, reconnect on failure, account in-flight reports as
// lost whenever a connection dies.
func (c *NodeClient) run(conn net.Conn) {
	defer c.wg.Done()
	// carry is a report line whose write failed before its first byte
	// left (a connection already cut under the writer): it never reached
	// the node, so the next connection writes it right after the hello,
	// and its reports count as lost only if no connection comes.
	var carry pendingLine
	for {
		c.setConn(conn)
		// Announce the connection identity before anything else: the
		// node keys claim takeover on it, so a reconnection must say who
		// it is before its first report line bounces off stale claims.
		if _, err := conn.Write(AppendControlJSON(nil, WireControl{Op: "hello", Client: c.cfg.ClientID, Schema: c.cfg.SchemaHash})); err != nil {
			conn.Close()
			c.surface(fmt.Errorf("serve: node %s: hello: %w", c.addr, err))
			next, rerr := c.redial()
			if rerr != nil {
				c.failPendingCtl(rerr)
				c.goDown(rerr, carry.n)
				return
			}
			conn = next
			continue
		}
		var rerr error
		readerDone := make(chan struct{})
		go c.readLoop(conn, readerDone, &rerr)
		finished, unsent, werr := c.writeLoop(conn, carry, readerDone, &rerr)
		carry = unsent
		if finished {
			// Clean shutdown: everything queued was written; half-close
			// so the node sees EOF, decides the tail and closes — the
			// reader drains those decisions before we return, bounded by
			// the close grace so a mute peer cannot wedge us.
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
			} else {
				conn.Close()
			}
			conn.SetReadDeadline(time.Now().Add(c.cfg.CloseGrace))
			<-readerDone
			conn.Close()
			c.accountLost("connection closed")
			c.failPendingCtl(ErrClientClosed)
			return
		}
		conn.Close()
		<-readerDone
		c.accountLost("connection lost")
		// A control op spanning the dead connection cannot resume — its
		// partial snapshot stream is gone.  Fail it; the caller retries.
		c.failPendingCtl(fmt.Errorf("serve: node %s: connection lost during control op", c.addr))
		if werr != nil {
			c.surface(fmt.Errorf("serve: node %s: %w", c.addr, werr))
		}
		next, err := c.redial()
		if err != nil {
			c.goDown(err, carry.n)
			return
		}
		conn = next
	}
}

// writeLoop writes carry (when it holds a line) and then drains the send
// queue onto the connection.  It returns finished=true when Close was
// requested and the queue is empty, false (with the error) when the
// connection failed — including a connection the peer closed or that
// failed a read, which only the reader notices (readerDone, after which
// *rerr holds its read error).  unsent is the report line, if any, whose
// failed write sent no byte: the next connection's carry.
func (c *NodeClient) writeLoop(conn net.Conn, carry pendingLine, readerDone <-chan struct{}, rerr *error) (finished bool, unsent pendingLine, err error) {
	write := func(p pendingLine) error {
		n, werr := conn.Write(p.line)
		if werr != nil && n == 0 && p.n > 0 {
			unsent = p // no byte reached the node: carry, do not lose
			return werr
		}
		// The line may partially reach the node on failure, where the
		// fragment cannot parse as a complete report line; its reports
		// are this connection's in-flight loss either way.  A control
		// line that fails is not carried: its caller's op fails with the
		// connection, and a replayed extract would remove terminals no
		// one receives.
		c.written.Add(p.n)
		return werr
	}
	if carry.line != nil {
		if err := write(carry); err != nil {
			return false, unsent, err
		}
	}
	idle := time.NewTimer(10 * time.Millisecond)
	defer idle.Stop()
	for {
		select {
		case p := <-c.queue:
			if err := write(p); err != nil {
				return false, unsent, err
			}
		default:
			if c.isClosing() {
				// Queue empty and no new sends can start: done.  (A send
				// that raced the closing flag enqueued before we read it
				// here — the inner drain below catches it.)
				select {
				case p := <-c.queue:
					if err := write(p); err != nil {
						return false, unsent, err
					}
					continue
				default:
					return true, unsent, nil
				}
			}
			// Idle: block until work, peer death or closing (reusable
			// timer — this arm runs for the life of the connection).
			if !idle.Stop() {
				select {
				case <-idle.C:
				default:
				}
			}
			idle.Reset(10 * time.Millisecond)
			select {
			case p := <-c.queue:
				if err := write(p); err != nil {
					return false, unsent, err
				}
			case <-readerDone:
				if *rerr != nil {
					return false, unsent, fmt.Errorf("read: %w", *rerr)
				}
				return false, unsent, errors.New("connection closed by peer")
			case <-idle.C:
			}
		}
	}
}

// readLoop decodes decision lines until the connection fails or closes,
// then stores the read error (nil at a clean EOF) in *rerr and closes
// done.
func (c *NodeClient) readLoop(conn net.Conn, done chan<- struct{}, rerr *error) {
	defer close(done)
	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 1<<16), 1<<24)
	defer func() { *rerr = scanner.Err() }()
	for scanner.Scan() {
		if isControlLine(scanner.Bytes()) {
			c.handleCtlLine(scanner.Bytes())
			continue
		}
		w, err := ParseOutcomeLine(scanner.Bytes())
		if err != nil {
			var we *WireError
			if errors.As(err, &we) {
				// The node rejected a whole ingest line: its reports will
				// never be decided.  The client cannot know the count from
				// here, so it surfaces loudly and lets Flush's timeout
				// catch the ledger gap.
				c.remoteErrs.Add(1)
				c.surface(fmt.Errorf("serve: node %s rejected a line: %w", c.addr, err))
			} else {
				c.surface(fmt.Errorf("serve: node %s: %w", c.addr, err))
			}
			continue
		}
		o := w.Outcome()
		if o.Executed {
			c.handovers.Add(1)
		}
		if o.PingPong {
			c.pingpongs.Add(1)
		}
		if c.cfg.OnOutcome != nil {
			c.cfg.OnOutcome(o)
		}
		// Counted only after the callback returns: Flush observing
		// delivered == submitted must mean every outcome has fully reached
		// the caller, so post-Flush reads of callback state are ordered.
		c.delivered.Add(1)
	}
}

// accountLost moves the written-but-undelivered balance into the lost
// ledger and surfaces it.  Called only from run, with no reader active.
func (c *NodeClient) accountLost(cause string) {
	inflight := c.written.Load() - c.delivered.Load() - c.lost.Load()
	if inflight == 0 {
		return
	}
	c.lost.Add(inflight)
	c.surface(fmt.Errorf("serve: node %s: %s with %d reports in flight; they are lost (resubmit if idempotent)",
		c.addr, cause, inflight))
}

// redialDelay computes the pause before reconnect attempt (0-based):
// exponential from base, capped at max, plus up to half a step of jitter
// (jitter ∈ [0,1)).  Pure, so the schedule is testable; jitter keeps a
// fleet of clients that lost the same node from redialing in lockstep.
func redialDelay(base, max time.Duration, attempt int, jitter float64) time.Duration {
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d + time.Duration(jitter*float64(d)/2)
}

// redial re-establishes the connection with bounded retries and
// exponential backoff.  Every attempt — the first included — waits
// beforehand: the node needs a beat to notice the dead connection before
// the replacement arrives (same-identity takeover covers the race, but
// an orderly release is cheaper than a takeover drain).
func (c *NodeClient) redial() (net.Conn, error) {
	if c.cfg.MaxRedials < 0 {
		return nil, fmt.Errorf("serve: node %s: connection lost and reconnection disabled", c.addr)
	}
	var last error
	for i := 0; i < c.cfg.MaxRedials; i++ {
		time.Sleep(redialDelay(c.cfg.RedialWait, c.cfg.RedialMaxWait, i, rand.Float64()))
		if c.isClosing() {
			return nil, fmt.Errorf("serve: node %s: closed while reconnecting", c.addr)
		}
		c.redials.Add(1)
		conn, err := c.dial()
		if err == nil {
			c.reconnects.Add(1)
			return conn, nil
		}
		last = err
	}
	return nil, fmt.Errorf("serve: node %s: gave up after %d reconnect attempts: %w", c.addr, c.cfg.MaxRedials, last)
}

// dial opens one connection to the node via the configured dialer.
func (c *NodeClient) dial() (net.Conn, error) {
	if c.cfg.Dial != nil {
		return c.cfg.Dial(c.addr)
	}
	return net.Dial("tcp", c.addr)
}

// newClientID returns a random connection identity.
func newClientID() string {
	var b [8]byte
	crand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// goDown marks the client fatally down: the carried reports (those of a
// line no connection took) and every queued line are drained into the
// lost ledger (loudly), and future sends fail with err.  The fatal error
// is published before down closes, so a sender woken by down always
// reads a non-nil Err.  The drain runs under the write lock, which a
// sender never holds while enqueueing-or-waiting: any enqueue that raced
// the transition completed before the lock was granted and is caught by
// the drain, so no report is ever stranded un-accounted.
func (c *NodeClient) goDown(err error, carried uint64) {
	c.fatalErr.Store(&err)
	close(c.down)
	c.mu.Lock()
	dropped := carried
	for {
		select {
		case p := <-c.queue:
			dropped += p.n
		default:
			c.mu.Unlock()
			if dropped > 0 {
				c.lost.Add(dropped)
				c.surface(fmt.Errorf("serve: node %s: dropped %d queued reports: %w", c.addr, dropped, err))
			}
			c.surface(err)
			return
		}
	}
}

// Extract asks the node to drain and ship back every terminal that the
// consistent-hash ring over members (vnodes virtual nodes each) no
// longer assigns to member self — removing them, or only copying when
// keep is true (the source then stays authoritative until Release
// commits the move).  The control line rides the ordered send queue, so
// it lands behind every report already submitted; the node drains before
// extracting, so the snapshots carry every decision.  One control op
// runs at a time; timeout bounds the whole exchange.
func (c *NodeClient) Extract(members []int, vnodes, self int, keep bool, timeout time.Duration) ([]TerminalSnapshot, error) {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	deadline := time.Now().Add(timeout)
	op := c.armCtl()
	defer c.disarmCtl()
	line := AppendControlJSON(nil, WireControl{Op: "extract", Members: members, VNodes: vnodes, Self: self, Keep: keep})
	if err := c.enqueue(pendingLine{line: line}, true, deadline); err != nil {
		return nil, err
	}
	if err := c.waitCtl(op, deadline); err != nil {
		return nil, err
	}
	return op.snaps, nil
}

// Release asks the node to drop — without shipping — every terminal the
// ring over members no longer assigns to member self: the commit of an
// earlier keep-Extract, issued only after the copies landed on their new
// owner.  Returns how many terminals the node dropped.
func (c *NodeClient) Release(members []int, vnodes, self int, timeout time.Duration) (int, error) {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	deadline := time.Now().Add(timeout)
	op := c.armCtl()
	defer c.disarmCtl()
	line := AppendControlJSON(nil, WireControl{Op: "release", Members: members, VNodes: vnodes, Self: self})
	if err := c.enqueue(pendingLine{line: line}, true, deadline); err != nil {
		return 0, err
	}
	if err := c.waitCtl(op, deadline); err != nil {
		return 0, err
	}
	return op.count, nil
}

// Restore ships terminal snapshots to the node in bounded chunks and
// waits for the restored ack.  skipLive makes already-live terminals a
// silent skip instead of an error — the idempotent replay form crash
// recovery uses.  Snapshot validation failures (and, without skipLive,
// already-live terminals) are reported in the returned error.
func (c *NodeClient) Restore(snaps []TerminalSnapshot, skipLive bool, timeout time.Duration) error {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	deadline := time.Now().Add(timeout)
	op := c.armCtl()
	defer c.disarmCtl()
	for rest := snaps; len(rest) > 0; {
		n := min(len(rest), snapshotChunk)
		line := AppendControlJSON(nil, WireControl{Op: "restore", Snapshots: rest[:n], SkipLive: skipLive})
		if err := c.enqueue(pendingLine{line: line}, true, deadline); err != nil {
			return err
		}
		rest = rest[n:]
	}
	done := AppendControlJSON(nil, WireControl{Op: "restore-done"})
	if err := c.enqueue(pendingLine{line: done}, true, deadline); err != nil {
		return err
	}
	return c.waitCtl(op, deadline)
}

// AddNode asks a cluster front-door daemon (hocluster) to grow the
// membership by dialing addr as a fresh member, returning the new
// member's ID.  Engine nodes answer with an unsupported-op error.
func (c *NodeClient) AddNode(addr string, timeout time.Duration) (int, error) {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	deadline := time.Now().Add(timeout)
	op := c.armCtl()
	defer c.disarmCtl()
	line := AppendControlJSON(nil, WireControl{Op: "addnode", Addr: addr})
	if err := c.enqueue(pendingLine{line: line}, true, deadline); err != nil {
		return 0, err
	}
	if err := c.waitCtl(op, deadline); err != nil {
		return 0, err
	}
	return op.node, nil
}

// RemoveNode asks a cluster front-door daemon to retire member node,
// migrating its terminals to the remaining members first.
func (c *NodeClient) RemoveNode(node int, timeout time.Duration) error {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	deadline := time.Now().Add(timeout)
	op := c.armCtl()
	defer c.disarmCtl()
	line := AppendControlJSON(nil, WireControl{Op: "removenode", Node: node})
	if err := c.enqueue(pendingLine{line: line}, true, deadline); err != nil {
		return err
	}
	return c.waitCtl(op, deadline)
}

// Stats asks the node for its telemetry snapshot: shard counters plus
// the exported points of its metrics registry.  Like every control op it
// rides the ordered send queue (so it observes every report already
// submitted on this connection), runs one at a time, and is bounded by
// timeout.
func (c *NodeClient) Stats(timeout time.Duration) (WireStats, error) {
	c.ctlMu.Lock()
	defer c.ctlMu.Unlock()
	deadline := time.Now().Add(timeout)
	op := c.armCtl()
	defer c.disarmCtl()
	line := AppendControlJSON(nil, WireControl{Op: "stats"})
	if err := c.enqueue(pendingLine{line: line}, true, deadline); err != nil {
		return WireStats{}, err
	}
	if err := c.waitCtl(op, deadline); err != nil {
		return WireStats{}, err
	}
	return op.stats, nil
}

// armCtl installs a fresh pending op for the reader to complete.
func (c *NodeClient) armCtl() *ctlOp {
	op := &ctlOp{done: make(chan error, 1)}
	c.pendMu.Lock()
	c.pend = op
	c.pendMu.Unlock()
	return op
}

func (c *NodeClient) disarmCtl() {
	c.pendMu.Lock()
	c.pend = nil
	c.pendMu.Unlock()
}

// waitCtl blocks until the pending op completes, the client goes down,
// or the deadline passes.
func (c *NodeClient) waitCtl(op *ctlOp, deadline time.Time) error {
	wait := time.NewTimer(time.Until(deadline))
	defer wait.Stop()
	select {
	case err := <-op.done:
		return err
	case <-c.down:
		return c.Err()
	case <-wait.C:
		return fmt.Errorf("serve: node %s: control op timed out", c.addr)
	}
}

// failPendingCtl completes the pending control op with err, if one is
// armed.  Called from run when a connection dies or the client stops.
func (c *NodeClient) failPendingCtl(err error) {
	c.pendMu.Lock()
	op := c.pend
	c.pendMu.Unlock()
	if op != nil {
		select {
		case op.done <- err:
		default:
		}
	}
}

// handleCtlLine processes one node→client control line on the reader
// goroutine: snapshot chunks accumulate into the pending op, acks
// complete it.  The op's channel hand-off orders the accumulation before
// the waiter's read.
func (c *NodeClient) handleCtlLine(line []byte) {
	ctl, err := ParseControlLine(line)
	if err != nil {
		c.surface(fmt.Errorf("serve: node %s: %w", c.addr, err))
		return
	}
	c.pendMu.Lock()
	op := c.pend
	if op != nil && ctl.Op != "snapshots" {
		// A completing reply finishes the op exactly once; disarming here
		// keeps a stale duplicate (e.g. a retransmitted request answered
		// after the waiter timed out) from mutating an op that has already
		// been handed back to its waiter.
		c.pend = nil
	}
	c.pendMu.Unlock()
	if op == nil {
		c.surface(fmt.Errorf("serve: node %s: control %q with no operation pending", c.addr, ctl.Op))
		return
	}
	switch ctl.Op {
	case "snapshots":
		op.snaps = append(op.snaps, ctl.Snapshots...)
	case "stats":
		var res error
		if ctl.Error != "" {
			res = fmt.Errorf("serve: node %s: %s", c.addr, ctl.Error)
		} else if ctl.Stats != nil {
			op.stats = *ctl.Stats
		}
		select {
		case op.done <- res:
		default:
		}
	case "extracted", "restored", "released", "node-added", "node-removed":
		var res error
		if ctl.Error != "" {
			res = fmt.Errorf("serve: node %s: %s", c.addr, ctl.Error)
		} else if ctl.Op == "extracted" && ctl.Count != len(op.snaps) {
			res = fmt.Errorf("serve: node %s: extracted ack counts %d snapshots, %d received", c.addr, ctl.Count, len(op.snaps))
		}
		op.count = ctl.Count
		op.node = ctl.Node
		select {
		case op.done <- res:
		default:
		}
	default:
		c.surface(fmt.Errorf("serve: node %s: unexpected control op %q", c.addr, ctl.Op))
	}
}
