package livenet

import (
	"math"
	"math/rand/v2"
	"sync"
	"time"

	"resilient/internal/msg"
	"resilient/internal/policy"
	"resilient/internal/transport"
)

// DefaultUnit is the wall-clock length of one abstract time unit when a
// LinkPolicy runs under a live engine. The default Uniform[0.1, 1] policy
// then yields 0.1ms--1ms delays, comfortably above goroutine-scheduling
// noise yet fast enough for tests.
const DefaultUnit = time.Millisecond

// policyConn applies a LinkPolicy to outbound sends in wall-clock time: a
// dropped message vanishes (indistinguishable from an arbitrarily slow one,
// per the model) and a delayed message is delivered by a timer after
// Delay×unit. It is the live-engine counterpart of the discrete-event
// engine's scheduled delivery queue.
type policyConn struct {
	inner transport.Conn
	pol   policy.LinkPolicy
	unit  time.Duration
	epoch time.Time

	mu     sync.Mutex
	rng    *rand.Rand
	seq    uint64
	timers map[uint64]*time.Timer
	closed bool
}

var _ transport.Conn = (*policyConn)(nil)

func newPolicyConn(inner transport.Conn, pol policy.LinkPolicy, unit time.Duration, epoch time.Time, seed uint64) *policyConn {
	if unit <= 0 {
		unit = DefaultUnit
	}
	return &policyConn{
		inner:  inner,
		pol:    pol,
		unit:   unit,
		epoch:  epoch,
		rng:    rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
		timers: make(map[uint64]*time.Timer),
	}
}

func (c *policyConn) ID() msg.ID { return c.inner.ID() }

// Send consults the policy and either drops the message, forwards it
// immediately, or schedules a delayed delivery. Delivery errors after the
// delay are deliberately dropped: a message to a closed endpoint is
// indistinguishable from a slow one.
func (c *policyConn) Send(to msg.ID, m msg.Message) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return transport.ErrClosed
	}
	now := float64(time.Since(c.epoch)) / float64(c.unit)
	v := c.pol.Link(c.inner.ID(), to, m, now, c.rng)
	if v.Drop {
		c.mu.Unlock()
		return nil // lost by the link; the sender cannot tell
	}
	// A clamped delay times the unit can pass the largest Duration; the
	// conversion would then wrap negative and deliver at once.
	d := time.Duration(math.MaxInt64)
	if f := policy.Clamp(v.Delay) * float64(c.unit); f < math.MaxInt64 {
		d = time.Duration(f)
	}
	c.seq++
	id := c.seq
	// The timer callback deletes its own entry; it cannot run before the
	// entry exists because it needs c.mu, held until after the insert.
	t := time.AfterFunc(d, func() {
		_ = c.inner.Send(to, m)
		c.mu.Lock()
		delete(c.timers, id)
		c.mu.Unlock()
	})
	c.timers[id] = t
	c.mu.Unlock()
	return nil
}

func (c *policyConn) Recv() (msg.Message, error) {
	return c.inner.Recv()
}

// Close stops every pending delayed delivery (in-flight messages at
// shutdown are lost, like any undelivered message) and closes the wrapped
// connection.
func (c *policyConn) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		for id, t := range c.timers {
			t.Stop()
			delete(c.timers, id)
		}
	}
	c.mu.Unlock()
	return c.inner.Close()
}
