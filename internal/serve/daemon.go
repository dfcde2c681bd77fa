package serve

import (
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/handover"
)

// Daemon is the shared front-door scaffolding of the serving binaries
// (hoserve above one engine, hocluster above a node router): newline-JSON
// report ingest from stdin or TCP, one decision line back per report
// through a DecisionMux, periodic sink flushing, and exclusive
// per-connection terminal ownership with release on disconnect.  Keeping
// the connection lifecycle here means both daemons share one teardown
// ordering (drain, then release) instead of diverging copies.
//
// Connections may interleave control lines (see WireControl) with their
// report stream: hello announces a connection identity so a reconnection
// can take over its own terminal claims, and extract/restore move
// terminal state in and out for cluster membership changes.  Control
// failures are answered inside the op's ack (Error field), never as
// `{"error":...}` reject lines — a reject line would poison the client's
// data-plane error accounting for an op the data plane never issued.
//
// Half-open clients cannot hold their terminals forever: accepted TCP
// connections carry the runtime's default keepalive, so a vanished peer
// errors the ingest read within the OS probe window and the handler
// releases its claims.
type Daemon struct {
	// Name prefixes stderr log lines ("hoserve", "hocluster").
	Name string
	// Mux routes outcomes to the owning connection's sink; the caller
	// wires Mux.Route as the engine's/router's decision callback.
	Mux *DecisionMux
	// Submit routes one parsed report batch (Engine.SubmitBatch or a
	// cluster router's SubmitBatch).  It must not retain the slice: the
	// connection decodes its next line into the same storage.  Both
	// named targets copy the reports before they return.
	Submit func([]Report) error
	// Drain blocks until every report submitted so far is decided
	// (Engine.Flush, or a router Flush with timeout).  Its error is a
	// serving failure, reported separately from rejected input lines.
	// Also installed as Mux.Drain (the takeover barrier) if that is
	// still nil.
	Drain func() error
	// Extract, if set, returns snapshots of every terminal that the
	// consistent-hash ring over members (with vnodes virtual nodes each)
	// no longer assigns to member self — removing them, or only copying
	// when keep is true (the first phase of a two-phase move, committed
	// by a later Release).  Serving the "extract" control op requires it.
	Extract func(members []int, vnodes, self int, keep bool) ([]TerminalSnapshot, error)
	// Restore, if set, installs terminal snapshots into the engine.
	// skipLive skips terminals already live instead of failing them (the
	// idempotent crash-recovery replay).  Serving the "restore" control
	// op requires it; it is also the recovery path when extracted state
	// cannot reach the requester.
	Restore func(snaps []TerminalSnapshot, skipLive bool) error
	// Release, if set, drops every terminal the ring over members no
	// longer assigns to member self without shipping it — the commit of
	// a keep-extract, after the copies landed on their new owner.
	// Serving the "release" control op requires it.
	Release func(members []int, vnodes, self int) (int, error)
	// AddNode/RemoveNode, if set, serve the runtime membership control
	// ops — only meaningful on a daemon fronting a cluster router
	// (hocluster); engine nodes leave them nil and the ops fail in their
	// acks.
	AddNode    func(addr string) (int, error)
	RemoveNode func(node int) error
	// Stats, if set, snapshots the node's telemetry (shard counters plus
	// exported metric points) for the "stats" control op — how a cluster
	// router scrapes member nodes over their existing connections.
	Stats func() WireStats
	// SchemaHash, if non-zero, is the serving engine's feature-schema
	// hash (Engine.SchemaHash).  A hello announcing a different schema —
	// absent meaning the paper schema — is answered with an error line
	// and the connection closed: a mixed-schema cluster must fail fast
	// at connection time, not mis-gather feature columns report by
	// report.  Zero disables the check.
	SchemaHash uint64

	initOnce sync.Once
}

// init wires the mux's takeover drain barrier to the daemon's drain.
func (d *Daemon) init() {
	d.initOnce.Do(func() {
		if d.Mux.Drain == nil {
			d.Mux.Drain = d.Drain
		}
	})
}

// flushLoop periodically flushes a sink until stop closes.
func flushLoop(s *Sink, stop <-chan struct{}) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Flush()
		case <-stop:
			return
		}
	}
}

// RunStdio ingests os.Stdin to completion, emits decisions on os.Stdout,
// and drains.  It returns the lines read, the lines (fully or partially)
// rejected, and the drain error, so the caller can report input problems
// and serving problems as what they are.  Control ops are not served on
// stdio — there is no reconnection or migration without a network.
func (d *Daemon) RunStdio() (lines, bad int, drainErr error) {
	d.init()
	out := NewSink(os.Stdout)
	bnd := NewBinding(d.Mux, out)
	stop := make(chan struct{})
	go flushLoop(out, stop)
	lines, bad = IngestLines(os.Stdin, bnd, d.Submit, nil, func(line int, err error) {
		fmt.Fprintf(os.Stderr, "%s: line %d: %v\n", d.Name, line, err)
	})
	drainErr = d.Drain()
	close(stop)
	out.Flush()
	bnd.Release()
	return lines, bad, drainErr
}

// RunTCP accepts ingest connections forever.  Each connection owns the
// terminals it submits first (see DecisionMux) until it disconnects; its
// rejects come back as {"error":...} lines on its own sink.
func (d *Daemon) RunTCP(ln net.Listener) {
	d.init()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				// Closing the listener is the clean-shutdown signal.
				return
			}
			// Transient accept failures (aborted handshakes, fd
			// exhaustion) must not tear down the daemon and every
			// connected client: log, back off briefly, keep accepting.
			fmt.Fprintf(os.Stderr, "%s: accept: %v\n", d.Name, err)
			time.Sleep(100 * time.Millisecond)
			continue
		}
		go d.serveConn(conn)
	}
}

// serveConn runs one ingest connection to completion: ingest, drain the
// in-flight decisions so the client's tail reaches its sink, then release
// the connection's terminal claims.
func (d *Daemon) serveConn(conn net.Conn) {
	d.init()
	defer conn.Close()
	out := NewSink(conn)
	bnd := NewBinding(d.Mux, out)
	stop := make(chan struct{})
	go flushLoop(out, stop)

	// Restore arrives as a chunk stream; failures park here until the
	// restore-done ack reports them.
	var restoreCount int
	var restoreErr error
	ctl := func(c WireControl) error {
		switch c.Op {
		case "hello":
			if c.Client != "" {
				bnd.SetIdentity(c.Client)
			}
			if d.SchemaHash != 0 {
				peer := c.Schema
				if peer == 0 {
					// A peer that predates schemas speaks the paper wire
					// shape, which is exactly the paper feature set.
					peer = handover.PaperFeatureSchema().Hash()
				}
				if peer != d.SchemaHash {
					out.WriteError(fmt.Errorf("%s: feature-schema mismatch: connection announces schema %#x, node serves %#x; closing", d.Name, peer, d.SchemaHash))
					out.Flush()
					conn.Close()
					return nil
				}
			}
			return nil
		case "extract":
			d.handleExtract(out, c)
			return nil
		case "restore":
			if restoreErr != nil {
				return nil // op already failed; swallow remaining chunks
			}
			if d.Restore == nil {
				restoreErr = fmt.Errorf("%s: restore not supported", d.Name)
				return nil
			}
			if err := d.Restore(c.Snapshots, c.SkipLive); err != nil {
				restoreErr = err
			} else {
				restoreCount += len(c.Snapshots)
			}
			return nil
		case "release":
			if d.Release == nil {
				out.WriteControl(WireControl{Op: "released", Error: d.Name + ": release not supported"})
				return nil
			}
			// Settle in-flight reports first: a report decided after its
			// terminal was released would resurrect the terminal from
			// zero and fork its stream from the migrated copy.
			if err := d.Drain(); err != nil {
				out.WriteControl(WireControl{Op: "released", Error: err.Error()})
				return nil
			}
			n, err := d.Release(c.Members, c.VNodes, c.Self)
			if err != nil {
				out.WriteControl(WireControl{Op: "released", Error: err.Error()})
				return nil
			}
			out.WriteControl(WireControl{Op: "released", Count: n})
			return nil
		case "addnode":
			if d.AddNode == nil {
				out.WriteControl(WireControl{Op: "node-added", Error: d.Name + ": addnode not supported"})
				return nil
			}
			id, err := d.AddNode(c.Addr)
			if err != nil {
				out.WriteControl(WireControl{Op: "node-added", Error: err.Error()})
				return nil
			}
			out.WriteControl(WireControl{Op: "node-added", Node: id})
			return nil
		case "removenode":
			if d.RemoveNode == nil {
				out.WriteControl(WireControl{Op: "node-removed", Error: d.Name + ": removenode not supported"})
				return nil
			}
			if err := d.RemoveNode(c.Node); err != nil {
				out.WriteControl(WireControl{Op: "node-removed", Error: err.Error()})
				return nil
			}
			out.WriteControl(WireControl{Op: "node-removed", Node: c.Node})
			return nil
		case "restore-done":
			ack := WireControl{Op: "restored", Count: restoreCount}
			if restoreErr != nil {
				ack = WireControl{Op: "restored", Error: restoreErr.Error()}
			}
			restoreCount, restoreErr = 0, nil
			out.WriteControl(ack)
			return nil
		case "stats":
			if d.Stats == nil {
				out.WriteControl(WireControl{Op: "stats", Error: d.Name + ": stats not supported"})
				return nil
			}
			st := d.Stats()
			out.WriteControl(WireControl{Op: "stats", Stats: &st})
			return nil
		default:
			return fmt.Errorf("%s: unknown control op %q", d.Name, c.Op)
		}
	}

	IngestLines(conn, bnd, d.Submit, ctl, func(line int, err error) {
		out.WriteError(fmt.Errorf("line %d: %w", line, err))
	})
	if err := d.Drain(); err != nil {
		out.WriteError(fmt.Errorf("drain: %w", err))
	}
	close(stop)
	out.Flush()
	bnd.Release()
}

// handleExtract serves one "extract" control op: drain, extract the
// terminals the new ring assigns elsewhere, stream their snapshots back
// in bounded chunks, and ack with the count.  Failures answer inside the
// "extracted" ack.  If the extracted state cannot reach the requester
// (the connection died mid-stream), it is restored locally rather than
// lost.
func (d *Daemon) handleExtract(out *Sink, c WireControl) {
	if d.Extract == nil {
		out.WriteControl(WireControl{Op: "extracted", Error: d.Name + ": extract not supported"})
		return
	}
	// The extract control line was parsed in ingest order, but reports
	// already submitted may still be in flight; settle them so the
	// snapshots carry every decision the client has sent.
	if err := d.Drain(); err != nil {
		out.WriteControl(WireControl{Op: "extracted", Error: err.Error()})
		return
	}
	snaps, err := d.Extract(c.Members, c.VNodes, c.Self, c.Keep)
	if err != nil {
		out.WriteControl(WireControl{Op: "extracted", Error: err.Error()})
		return
	}
	for rest := snaps; len(rest) > 0; {
		n := min(len(rest), snapshotChunk)
		out.WriteControl(WireControl{Op: "snapshots", Snapshots: rest[:n]})
		rest = rest[n:]
	}
	out.WriteControl(WireControl{Op: "extracted", Count: len(snaps)})
	if out.Flush() != nil && len(snaps) > 0 && d.Restore != nil && !c.Keep {
		// The requester never got the state; losing it would erase the
		// terminals' histories.  Put it back and let the requester retry.
		// (A keep-copy removed nothing, so there is nothing to put back.)
		if rerr := d.Restore(snaps, false); rerr != nil {
			fmt.Fprintf(os.Stderr, "%s: restoring %d snapshots after failed extract delivery: %v\n",
				d.Name, len(snaps), rerr)
		}
	}
}

// ServeConn exposes the per-connection protocol for callers that manage
// their own listener (tests, embedding).
func (d *Daemon) ServeConn(conn net.Conn) { d.serveConn(conn) }
