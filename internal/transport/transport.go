// Package transport defines the message-system interface used by the
// goroutine-based live engine (internal/livenet) and provides the in-memory
// implementation: per-process unbounded mailboxes with sender
// authentication, mirroring the paper's model where the message system
// "maintains for each process a message buffer of messages sent to it but
// not yet received" (Section 2.1).
package transport

import (
	"errors"
	"fmt"
	"sync"

	"resilient/internal/msg"
)

// ErrClosed is returned by operations on a closed endpoint.
var ErrClosed = errors.New("transport: endpoint closed")

// Conn is one process's endpoint onto the message system.
//
// Send places a message in the destination's buffer; the From field is
// stamped by the transport, so a process cannot impersonate another (the
// Section 3.1 authentication requirement). Recv blocks until a message is
// available or the endpoint is closed.
type Conn interface {
	ID() msg.ID
	Send(to msg.ID, m msg.Message) error
	Recv() (msg.Message, error)
	Close() error
}

// mailbox is an unbounded FIFO with blocking Pop.
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []msg.Message
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(m msg.Message) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.closed {
		return ErrClosed
	}
	mb.queue = append(mb.queue, m)
	mb.cond.Signal()
	return nil
}

func (mb *mailbox) pop() (msg.Message, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return msg.Message{}, ErrClosed
	}
	m := mb.queue[0]
	// Zero the vacated slot: the backing array outlives the re-slice and
	// would otherwise keep every delivered Payload reachable.
	mb.queue[0] = msg.Message{}
	mb.queue = mb.queue[1:]
	return m, nil
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.closed = true
	mb.cond.Broadcast()
}

// Mem is an in-memory message system connecting n processes.
type Mem struct {
	n     int
	boxes []*mailbox
}

// NewMem returns an in-memory message system for n processes.
func NewMem(n int) *Mem {
	boxes := make([]*mailbox, n)
	for i := range boxes {
		boxes[i] = newMailbox()
	}
	return &Mem{n: n, boxes: boxes}
}

// Conn returns the endpoint for process id.
func (t *Mem) Conn(id msg.ID) (Conn, error) {
	if id < 0 || int(id) >= t.n {
		return nil, fmt.Errorf("transport: id %d outside 0..%d", id, t.n-1)
	}
	return &memConn{net: t, id: id}, nil
}

// Close closes every mailbox, releasing all blocked receivers.
func (t *Mem) Close() {
	for _, b := range t.boxes {
		b.close()
	}
}

type memConn struct {
	net *Mem
	id  msg.ID
}

var _ Conn = (*memConn)(nil)

func (c *memConn) ID() msg.ID { return c.id }

func (c *memConn) Send(to msg.ID, m msg.Message) error {
	if to < 0 || int(to) >= c.net.n {
		return fmt.Errorf("transport: destination %d outside 0..%d", to, c.net.n-1)
	}
	m.From = c.id // authenticated sender
	return c.net.boxes[to].push(m)
}

func (c *memConn) Recv() (msg.Message, error) {
	return c.net.boxes[c.id].pop()
}

func (c *memConn) Close() error {
	c.net.boxes[c.id].close()
	return nil
}
