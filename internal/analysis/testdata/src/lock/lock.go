// Package lock is the lockcheck analyzer fixture.
package lock

import (
	"bufio"
	"net"
	"time"
)

// Blocking is unannotated but carries a blocking fact for importers
// (see the lockdep fixture).
func Blocking(c net.Conn, b []byte) {
	c.Write(b)
}

func sleepy() { time.Sleep(time.Millisecond) }

//fuzzyho:nolockio
func DirectWrite(c net.Conn, b []byte) {
	c.Write(b) // want:lockcheck
}

//fuzzyho:nolockio
func Transitive() {
	sleepy() // want:lockcheck
}

// BufferedWrite writes through a bufio.Writer, which may flush to the
// connection behind it.
//
//fuzzyho:nolockio
func BufferedWrite(w *bufio.Writer, b []byte) {
	w.Write(b) // want:lockcheck
}

//fuzzyho:nolockio
func Sender(ch chan int) {
	ch <- 1 // want:lockcheck
}

// BoundedSender is clean: a send inside a select has alternatives.
//
//fuzzyho:nolockio
func BoundedSender(ch chan int) {
	select {
	case ch <- 1:
	default:
	}
}

// Waived shows //fuzzyho:allow on a send that is safe by design.
//
//fuzzyho:nolockio
func Waived(ch chan int) {
	//fuzzyho:allow fixture: the consumer drains independently of the lock
	ch <- 1
}
