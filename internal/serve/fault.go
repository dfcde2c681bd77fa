package serve

import (
	"errors"
	"net"
	"sync"
	"time"
)

// ErrInjectedPartition is the dial/write failure surfaced while a
// FaultInjector's partition is active.
var ErrInjectedPartition = errors.New("serve: injected network partition")

// FaultInjector is a test harness that sits on a NodeClient's wire path
// (wire it as NodeClientConfig.Dial) and injects the failures a real
// network produces: write delays, dropped and duplicated writes, cut
// connections and full partitions.  All knobs are safe for concurrent
// use and act on live connections as well as future dials.
//
// Drops and duplicates act on whole queued lines (one Write per line),
// so they model lost and replayed wire messages, not byte corruption.
type FaultInjector struct {
	mu          sync.Mutex
	delay       time.Duration
	drop        int
	dup         int
	partitioned bool
	conns       []*faultConn
	dials       int
}

// NewFaultInjector returns a transparent injector; arm knobs as needed.
func NewFaultInjector() *FaultInjector { return &FaultInjector{} }

// Dial opens a TCP connection through the injector.  Use as the
// client's Dial hook.
func (f *FaultInjector) Dial(addr string) (net.Conn, error) {
	f.mu.Lock()
	cut := f.partitioned
	f.mu.Unlock()
	if cut {
		return nil, ErrInjectedPartition
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	fc := &faultConn{Conn: conn, f: f}
	f.mu.Lock()
	f.dials++
	f.conns = append(f.conns, fc)
	f.mu.Unlock()
	return fc, nil
}

// Dials returns how many connections the injector has opened.
func (f *FaultInjector) Dials() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dials
}

// SetDelay makes every subsequent write sleep d first (0 clears).
func (f *FaultInjector) SetDelay(d time.Duration) {
	f.mu.Lock()
	f.delay = d
	f.mu.Unlock()
}

// DropWrites silently discards the next n writes: the sender believes
// they reached the node.
func (f *FaultInjector) DropWrites(n int) {
	f.mu.Lock()
	f.drop += n
	f.mu.Unlock()
}

// DuplicateWrites sends the next n writes twice.
func (f *FaultInjector) DuplicateWrites(n int) {
	f.mu.Lock()
	f.dup += n
	f.mu.Unlock()
}

// CutAll severs every live connection (the client sees a connection
// loss and redials).  New dials still succeed.
func (f *FaultInjector) CutAll() {
	f.mu.Lock()
	conns := f.conns
	f.conns = nil
	f.mu.Unlock()
	for _, fc := range conns {
		fc.Conn.Close()
	}
}

// Partition cuts every live connection AND fails subsequent dials until
// Heal — the node is unreachable, not just momentarily gone.
func (f *FaultInjector) Partition() {
	f.mu.Lock()
	f.partitioned = true
	f.mu.Unlock()
	f.CutAll()
}

// Heal lifts the partition; the client's next redial succeeds.
func (f *FaultInjector) Heal() {
	f.mu.Lock()
	f.partitioned = false
	f.mu.Unlock()
}

// faultConn applies the injector's knobs to one connection's writes.
type faultConn struct {
	net.Conn
	f *FaultInjector
}

func (c *faultConn) Write(b []byte) (int, error) {
	c.f.mu.Lock()
	delay := c.f.delay
	cut := c.f.partitioned
	drop := c.f.drop > 0
	if drop {
		c.f.drop--
	}
	dup := !drop && c.f.dup > 0
	if dup {
		c.f.dup--
	}
	c.f.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if cut {
		return 0, ErrInjectedPartition
	}
	if drop {
		return len(b), nil
	}
	if dup {
		if _, err := c.Conn.Write(b); err != nil {
			return 0, err
		}
		// The line already reached the node once: a failed replay must
		// not read as a write that sent nothing, which the client would
		// carry to its next connection and have decided again.
		if _, err := c.Conn.Write(b); err != nil {
			return len(b), err
		}
		return len(b), nil
	}
	return c.Conn.Write(b)
}
