// Package netxport is a TCP implementation of the transport.Conn interface:
// n processes connected in a full mesh over loopback (or any reachable
// addresses), with length-prefixed binary frames (internal/msg codec).
//
// The transport is throughput-grade: outbound messages are encoded with
// msg.AppendEncode into a per-peer pending buffer and drained by a per-peer
// writer goroutine that flushes many frames in one syscall (write
// coalescing), and inbound frames are parsed by a streaming msg.Decoder out
// of one reused read buffer -- the steady-state path allocates nothing per
// message. A small linger window (50 µs) lets a burst accumulate into
// one flush; the writer hard-flushes whatever is pending the moment it wakes
// with the queue non-empty, so latency stays bounded by linger + one write.
//
// Every frame carries a 4-byte instance id, multiplexing many consensus
// instances over ONE socket per peer pair: Instance(i) returns a
// transport.Conn view whose sends are tagged with i and whose receives see
// only instance-i traffic, so a replicated log running hundreds of Figure-2
// instances pays n^2 sockets once, not per instance. The endpoint itself is
// instance 0. Frames reach their instance through a table the read loops
// search without a lock and claims and releases update in place (demux.go).
// Each instance buffers undelivered messages in a small bounded ring
// (inbox.go) whose array and wake-up channels are handed to the next instance
// claimed after it closes, so a log opening one instance per slot allocates
// only the instance's conn once its pipeline is full.
//
// Each endpoint listens on its own address. Outbound connections are
// established lazily on first send, one per peer: a slow, unreachable, or
// retry-storming peer never blocks sends to the others. A connection whose
// write fails (or exceeds the write deadline) is evicted and redialed --
// with a backoff that grows with consecutive failures -- and the writer
// retries the interrupted batch once after redialing, so a transient
// eviction loses no frames. Close flushes every pending queue (bounded by
// the write deadline) before tearing sockets down.
//
// Connections are identified by a fixed-size hello frame carrying the
// dialer's process id. Inbound messages are stamped with the hello
// identity, never the message's claimed sender, so impersonation requires
// owning the peer's listening socket -- a stand-in for the paper's
// requirement that "the message system must provide a way for correct
// processes to verify the identity of the sender" (Section 3.1). A
// production deployment would pin identities with TLS; this package keeps
// the demo dependency-free.
package netxport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"resilient/internal/metrics"
	"resilient/internal/msg"
	"resilient/internal/transport"
)

// muxHeaderLen is the per-frame instance-id header (uint32, big-endian)
// between the length prefix and the msg encoding.
const muxHeaderLen = 4

// Dial and write policy: a freshly started cluster races listener startup
// against first sends, so transient dial failures are expected and retried
// with a short backoff before surfacing an error. Repeated failures across
// Send calls widen the backoff up to maxDialBackoff; a successful dial or
// write resets it. Writes carry a deadline so a peer that stops reading
// cannot wedge a sender forever.
const (
	dialAttempts   = 3
	dialBackoff    = 5 * time.Millisecond
	maxDialBackoff = 250 * time.Millisecond
	dialTimeout    = 10 * time.Second
	writeTimeout   = 10 * time.Second
)

// defaultLinger is the default coalescing window: how long a waking writer
// lets a burst accumulate before flushing it in one syscall. It bounds the
// extra latency coalescing can add to a lone message.
const defaultLinger = 50 * time.Microsecond

// defaultQueueCap is the default per-peer pending-buffer cap in bytes.
// Beyond it, Send blocks (backpressure) until the writer drains the queue.
const defaultQueueCap = 1 << 20

// netMetrics holds the endpoint's instrument handles; all fields are nil
// (free no-ops) when metrics are off.
type netMetrics struct {
	bytesSent    *metrics.Counter
	bytesRecv    *metrics.Counter
	framesSent   *metrics.Counter
	framesRecv   *metrics.Counter
	flushes      *metrics.Counter
	dials        *metrics.Counter
	dialRetries  *metrics.Counter
	dialErrors   *metrics.Counter
	decodeErrors *metrics.Counter
	localFrames  *metrics.Counter
	evictions    *metrics.Counter
	muxDrops     *metrics.Counter
	flushDrops   *metrics.Counter
}

func newNetMetrics(reg *metrics.Registry) *netMetrics {
	if reg == nil {
		return &netMetrics{}
	}
	m := reg.Scoped("net.")
	return &netMetrics{
		bytesSent:    m.Counter("bytes_sent"),
		bytesRecv:    m.Counter("bytes_received"),
		framesSent:   m.Counter("frames_sent"),
		framesRecv:   m.Counter("frames_received"),
		flushes:      m.Counter("flushes"),
		dials:        m.Counter("dials"),
		dialRetries:  m.Counter("dial_retries"),
		dialErrors:   m.Counter("dial_errors"),
		decodeErrors: m.Counter("decode_errors"),
		localFrames:  m.Counter("local_frames"),
		evictions:    m.Counter("conn_evictions"),
		muxDrops:     m.Counter("mux_drops"),
		flushDrops:   m.Counter("flush_frame_drops"),
	}
}

// peerLink is one peer's outbound state: the pending frame buffer its
// writer goroutine drains, and the connection the frames flush to. The
// mutex guards the queue and connection fields; the writer never holds it
// across a syscall, so senders keep enqueuing while a flush is in flight
// (natural batching).
type peerLink struct {
	mu      sync.Mutex
	cond    *sync.Cond // signaled on empty->nonempty and after each drain
	pending []byte     // encoded frames awaiting flush
	frames  int        // frame count in pending
	spare   []byte     // writer's drained batch, swapped back for reuse
	started bool       // writer goroutine running
	closed  bool       // endpoint closing: reject new frames, flush the rest
	conn    net.Conn   // nil when down; established lazily, evicted on failure
	fails   int        // consecutive dial/write failures, drives the backoff
}

// Endpoint is one process's TCP endpoint. It implements transport.Conn as
// instance 0; Instance returns further multiplexed conns.
type Endpoint struct {
	id    msg.ID
	addrs []string // addrs[i] is process i's listen address
	ln    net.Listener
	// links[i] is the outbound state for peer i: built once by Listen and
	// never resized, so the send path indexes it without the endpoint lock.
	links []peerLink

	mu       sync.Mutex
	accepted []net.Conn // inbound connections, closed on shutdown
	dialed   []net.Conn // every outbound conn, closed on shutdown
	closed   bool       // guards instance creation after Close

	inbox inbox // the endpoint's own stream, instance 0
	insts atomic.Pointer[demux]
	free  []inboxParts // closed instances' inboxes, under mu
	done  chan struct{}

	// dialCtx is canceled by Close after the flush phase so a straggling
	// connect aborts instead of running out its own timeout. Flush-phase
	// dials themselves are bounded by dialTimeout, not the OS connect
	// timeout — a blackholed peer address would otherwise stall Close for
	// minutes.
	dialCtx    context.Context
	dialCancel context.CancelFunc
	wg         sync.WaitGroup // accept loop + read loops
	wwg        sync.WaitGroup // per-peer writer goroutines

	// met is swapped atomically so SetMetrics races cleanly with the
	// accept/read goroutines; the pointer is never nil.
	met atomic.Pointer[netMetrics]

	// linger is the coalescing window (0 flushes immediately) and queueCap
	// the per-peer pending cap in bytes. Listen sets the defaults; the
	// package's tests change them before the first send.
	linger   time.Duration
	queueCap int

	closeOnce sync.Once
}

var _ transport.Conn = (*Endpoint)(nil)

// Listen creates the endpoint for process id, listening on addrs[id]. The
// address may use port 0; the actual address is available via Addr.
func Listen(id msg.ID, addrs []string) (*Endpoint, error) {
	if id < 0 || int(id) >= len(addrs) {
		return nil, fmt.Errorf("netxport: id %d outside address table of %d", id, len(addrs))
	}
	ln, err := net.Listen("tcp", addrs[id])
	if err != nil {
		return nil, fmt.Errorf("netxport: listen %s: %w", addrs[id], err)
	}
	e := &Endpoint{
		id:       id,
		addrs:    append([]string(nil), addrs...),
		ln:       ln,
		links:    make([]peerLink, len(addrs)),
		done:     make(chan struct{}),
		linger:   defaultLinger,
		queueCap: defaultQueueCap,
	}
	for i := range e.links {
		e.links[i].cond = sync.NewCond(&e.links[i].mu)
	}
	e.inbox.init(inboxParts{ring: make([]msg.Message, inboxMinLen)})
	e.dialCtx, e.dialCancel = context.WithCancel(context.Background())
	e.addrs[id] = ln.Addr().String()
	e.met.Store(newNetMetrics(nil))
	e.insts.Store(newDemux(0))
	e.wg.Add(1)
	go e.acceptLoop()
	return e, nil
}

// SetMetrics attaches a metrics registry; subsequent traffic is accounted
// under the "net." prefix (bytes, frames, flushes, dials, retries,
// evictions, mux drops). Safe to call at any time, including concurrently
// with traffic; nil detaches.
func (e *Endpoint) SetMetrics(reg *metrics.Registry) {
	e.met.Store(newNetMetrics(reg))
}

// Addr returns the endpoint's actual listen address.
func (e *Endpoint) Addr() string { return e.ln.Addr().String() }

// SetPeerAddr updates the address table entry for a peer (used when peers
// listen on ephemeral ports discovered after startup).
func (e *Endpoint) SetPeerAddr(id msg.ID, addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if id >= 0 && int(id) < len(e.addrs) {
		e.addrs[id] = addr
	}
}

func (e *Endpoint) peerAddr(id msg.ID) string {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.addrs[id]
}

// ID implements transport.Conn.
func (e *Endpoint) ID() msg.ID { return e.id }

// Send implements transport.Conn on the endpoint's own stream (instance 0).
func (e *Endpoint) Send(to msg.ID, m msg.Message) error {
	return e.send(to, 0, m)
}

// send stamps the authenticated sender and routes one message: local
// delivery for self-sends, otherwise the destination link's coalescing
// queue. This is the transport hot path: encoding appends into reused
// per-link buffers and the only blocking is queue backpressure.
func (e *Endpoint) send(to msg.ID, inst uint32, m msg.Message) error {
	if to < 0 || int(to) >= len(e.addrs) {
		//lint:allow hotalloc misuse error path, never taken by a well-formed cluster
		return fmt.Errorf("netxport: destination %d outside address table", to)
	}
	m.From = e.id
	met := e.met.Load()
	if to == e.id {
		// Local delivery without a socket round-trip.
		if !e.route(inst, m) {
			return transport.ErrClosed
		}
		met.localFrames.Inc()
		return nil
	}
	l := &e.links[to]
	l.mu.Lock()
	err := e.enqueueLocked(l, to, inst, m)
	l.mu.Unlock()
	if err == nil {
		l.cond.Broadcast()
	}
	return err
}

// appendFrame appends one wire frame -- length prefix, instance id, msg
// encoding -- to dst.
func appendFrame(dst []byte, inst uint32, m msg.Message) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(msg.EncodedLen(m))+muxHeaderLen)
	dst = binary.BigEndian.AppendUint32(dst, inst)
	return msg.AppendEncode(dst, m)
}

// enqueueLocked appends one frame to the link's pending buffer, blocking
// while the queue is over its cap, and lazily starts the link's writer.
// Called with l.mu held; the caller broadcasts after unlocking.
func (e *Endpoint) enqueueLocked(l *peerLink, to msg.ID, inst uint32, m msg.Message) error {
	for len(l.pending) >= e.queueCap && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return transport.ErrClosed
	}
	l.pending = appendFrame(l.pending, inst, m)
	l.frames++
	if !l.started {
		l.started = true
		e.wwg.Add(1)
		go e.writeLoop(l, to)
	}
	return nil
}

// writeLoop drains one peer's queue: it waits for frames, lets a burst
// accumulate for the linger window, then swaps the pending buffer out and
// flushes it in one write. On endpoint close it keeps draining until the
// queue is empty (flush-on-close), then exits.
func (e *Endpoint) writeLoop(l *peerLink, to msg.ID) {
	defer e.wwg.Done()
	for {
		l.mu.Lock()
		for len(l.pending) == 0 && !l.closed {
			l.cond.Wait()
		}
		if len(l.pending) == 0 {
			l.mu.Unlock()
			return // closed and fully drained
		}
		closing := l.closed
		l.mu.Unlock()
		if e.linger > 0 && !closing {
			// Linger: a hot sender keeps appending while we sleep, turning
			// many frames into one syscall. Bounded, and skipped when
			// closing so shutdown never waits on the window.
			time.Sleep(e.linger)
		}
		l.mu.Lock()
		batch := l.pending
		frames := l.frames
		l.pending = l.spare[:0]
		l.frames = 0
		l.mu.Unlock()
		l.cond.Broadcast() // senders blocked on a full queue re-check
		e.flushBatch(l, to, batch, frames)
		l.mu.Lock()
		l.spare = batch[:0] // recycle the drained batch's capacity
		l.mu.Unlock()
	}
}

// flushBatch writes one drained batch to the peer, dialing if the link is
// down. A failed write evicts the connection and retries the whole batch
// once on a fresh dial -- the batch either lands contiguously or is
// dropped (and counted), never half-recycled.
func (e *Endpoint) flushBatch(l *peerLink, to msg.ID, batch []byte, frames int) {
	met := e.met.Load()
	for attempt := 0; attempt < 2; attempt++ {
		conn, err := e.writerConn(l, to)
		if err != nil {
			break
		}
		if err := e.write(conn, batch); err != nil {
			e.evict(l, conn)
			continue // redial once and resend the batch
		}
		met.flushes.Inc()
		met.framesSent.Add(int64(frames))
		met.bytesSent.Add(int64(len(batch)))
		l.mu.Lock()
		l.fails = 0
		l.mu.Unlock()
		return
	}
	// Undeliverable: the peer is unreachable past the retry budget. Frames
	// to a dead peer are dropped, exactly like the pre-coalescing transport
	// surfaced (and then discarded) a send error per frame.
	met.flushDrops.Add(int64(frames))
}

// writerConn returns the link's live connection, dialing outside the link
// lock so senders keep enqueuing during a retry storm.
func (e *Endpoint) writerConn(l *peerLink, to msg.ID) (net.Conn, error) {
	l.mu.Lock()
	conn, fails := l.conn, l.fails
	l.mu.Unlock()
	if conn != nil {
		return conn, nil
	}
	conn, err := e.dial(to, fails)
	l.mu.Lock()
	if err != nil {
		l.fails++
	} else {
		l.fails = 0
		l.conn = conn
	}
	l.mu.Unlock()
	if err != nil {
		return nil, err
	}
	e.track(conn)
	return conn, nil
}

// track records an outbound connection for shutdown.
func (e *Endpoint) track(conn net.Conn) {
	e.mu.Lock()
	e.dialed = append(e.dialed, conn)
	e.mu.Unlock()
}

// write performs one deadline-bounded write.
func (e *Endpoint) write(conn net.Conn, b []byte) error {
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(b)
	return err
}

// evict drops a link's broken connection so the next flush redials instead
// of reusing a poisoned socket.
func (e *Endpoint) evict(l *peerLink, conn net.Conn) {
	conn.Close()
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.fails++
	l.mu.Unlock()
	e.met.Load().evictions.Inc()
}

// dial establishes one connection to a peer and identifies itself with the
// hello frame. The backoff between attempts starts at dialBackoff scaled by
// the link's consecutive-failure count and doubles per attempt (capped at
// maxDialBackoff); sleeps abort promptly when the endpoint closes. The
// caller holds no lock, so a retry storm toward one peer cannot stall
// anything but that peer's own queue.
func (e *Endpoint) dial(to msg.ID, fails int) (net.Conn, error) {
	met := e.met.Load()
	base := dialBackoff << min(fails, 6)
	if base > maxDialBackoff {
		base = maxDialBackoff
	}
	var (
		c   net.Conn
		err error
	)
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			met.dialRetries.Inc()
			d := base << (attempt - 1)
			if d > maxDialBackoff {
				d = maxDialBackoff
			}
			select {
			case <-time.After(d):
			case <-e.done:
				return nil, transport.ErrClosed
			}
		}
		met.dials.Inc()
		// A bounded, cancellable connect: the deadline caps how long a
		// blackholed address can hold this writer, and Close's cancel aborts
		// the connect immediately so the flush phase never waits on it.
		d := net.Dialer{Timeout: dialTimeout}
		c, err = d.DialContext(e.dialCtx, "tcp", e.peerAddr(to))
		if err == nil {
			break
		}
		if e.dialCtx.Err() != nil {
			return nil, transport.ErrClosed
		}
	}
	if err != nil {
		met.dialErrors.Inc()
		//lint:allow hotalloc dial-failure path is cold by construction
		return nil, fmt.Errorf("netxport: dial p%d at %s: %w", to, e.peerAddr(to), err)
	}
	var hello [4]byte
	binary.BigEndian.PutUint32(hello[:], uint32(e.id))
	if err := e.write(c, hello[:]); err != nil {
		c.Close()
		//lint:allow hotalloc hello-failure path is cold by construction
		return nil, fmt.Errorf("netxport: hello to p%d: %w", to, err)
	}
	return c, nil
}

// Recv implements transport.Conn on the endpoint's own stream (instance 0).
func (e *Endpoint) Recv() (msg.Message, error) {
	return e.inbox.get(e.done)
}

// Close implements transport.Conn: it stops instance creation, closes every
// link to new frames, lets every per-peer writer flush what it holds
// (bounded by the write deadline and the dial retry budget), then closes
// all connections and joins the reader goroutines. It never takes a link
// lock across a syscall, so it cannot deadlock against a sender mid-dial or
// mid-write.
func (e *Endpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.done)
		e.ln.Close()
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
		// Flush phase: mark every link closed and wake their writers (and
		// any senders blocked on backpressure). Writers drain what is
		// pending, then exit; new enqueues are rejected with ErrClosed.
		for i := range e.links {
			l := &e.links[i]
			l.mu.Lock()
			l.closed = true
			l.mu.Unlock()
			l.cond.Broadcast()
		}
		e.wwg.Wait()
		// Writers are gone; release the dial context.
		e.dialCancel()
		e.mu.Lock()
		// Every outbound conn ever dialed is tracked in dialed (eviction
		// closes but does not untrack, and double-close is harmless).
		for _, c := range e.dialed {
			c.Close()
		}
		// Accepted connections must be closed too, or their readLoops
		// would block until the remote side shuts down -- a circular wait
		// when a whole cluster closes at once.
		for _, c := range e.accepted {
			c.Close()
		}
		e.mu.Unlock()
	})
	e.wg.Wait()
	return nil
}

func (e *Endpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		// Register the connection and its reader under the lock Close sets
		// closed under: either Close's sweep of accepted finds it, or it is
		// refused here. Registered after the sweep, its reader would wait on
		// a peer that, when a cluster closes, is waiting for this Close.
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			conn.Close()
			return
		}
		e.accepted = append(e.accepted, conn)
		e.wg.Add(1)
		e.mu.Unlock()
		go e.readLoop(conn)
	}
}

// readLoop authenticates one inbound connection by its hello frame, then
// streams frames through a reused decoder buffer: no per-frame allocation
// for payload-free messages. Malformed frames are counted and skipped; a
// framing-level violation (oversized length prefix, short read) drops the
// connection, as the stream can no longer be trusted.
func (e *Endpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	var hello [4]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return
	}
	from := msg.ID(int32(binary.BigEndian.Uint32(hello[:])))
	if from < 0 || int(from) >= len(e.addrs) {
		return // unknown identity
	}
	dec := msg.NewDecoder(conn)
	for {
		frame, err := dec.Frame()
		if err != nil {
			return
		}
		met := e.met.Load()
		met.framesRecv.Inc()
		met.bytesRecv.Add(int64(len(frame)) + 4)
		if len(frame) < muxHeaderLen {
			met.decodeErrors.Inc()
			continue
		}
		inst := binary.BigEndian.Uint32(frame[:muxHeaderLen])
		m, err := msg.Decode(frame[muxHeaderLen:])
		if err != nil {
			met.decodeErrors.Inc()
			continue // malformed frame from a (possibly malicious) peer
		}
		m.From = from // authenticated identity, not the claimed one
		if !e.route(inst, m) {
			return
		}
	}
}

// route delivers one inbound message to its instance's inbox, blocking
// while that inbox is at its bound (back-pressure onto the peer's socket).
// Unknown or closed instances drop the message (counted); a false return
// means the endpoint is closing and the caller should stop reading.
func (e *Endpoint) route(inst uint32, m msg.Message) bool {
	q := &e.inbox
	if inst != 0 {
		c := e.insts.Load().lookup(inst)
		if c == nil {
			e.met.Load().muxDrops.Inc()
			return true
		}
		q = &c.inbox
	}
	switch q.put(m, e.done) {
	case putClosed:
		e.met.Load().muxDrops.Inc()
	case putShutdown:
		return false
	}
	return true
}

// Instance returns a transport.Conn multiplexed over this endpoint's
// sockets: its sends tag frames with inst, and its receives see only
// frames tagged inst. Instance 0 is the endpoint itself; each other id may
// be claimed by at most one live conn at a time. Closing an instance conn
// detaches it and releases its id for a fresh claim -- a replicated log
// churning through one instance per slot keeps the demux table bounded by
// its pipeline window -- without touching the endpoint; closing the
// endpoint closes every instance.
//
// Create the instance on BOTH ends before traffic flows: frames for an
// unregistered instance are dropped (counted as net.mux_drops), matching
// the paper's model of a message system that only buffers for known
// processes. A claimed instance buffers up to inboxBound unread messages;
// past that the read loop delivering to it blocks until Recv catches up.
func (e *Endpoint) Instance(inst uint32) (transport.Conn, error) {
	if inst == 0 {
		return nil, fmt.Errorf("netxport: instance 0 is the endpoint's own stream")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, transport.ErrClosed
	}
	tab := e.insts.Load()
	if tab.lookup(inst) != nil {
		return nil, fmt.Errorf("netxport: instance %d already claimed", inst)
	}
	var parts inboxParts
	if last := len(e.free) - 1; last >= 0 {
		parts, e.free[last] = e.free[last], inboxParts{}
		e.free = e.free[:last]
	} else {
		parts.ring = make([]msg.Message, inboxMinLen)
	}
	c := &instConn{e: e, inst: inst}
	c.inbox.init(parts)
	if next := tab.insert(c); next != tab {
		e.insts.Store(next)
	}
	return c, nil
}

// release removes a closed instance conn from the demux table so its id can
// be claimed again, and keeps the conn's detached inbox parts for the next
// claim. It runs under e.mu, the lock Instance claims under, so a release
// never loses a concurrent claim; route reads the table without it. A conn
// that lost its id to a newer claimant (already-released id, re-claimed)
// leaves the table alone.
func (e *Endpoint) release(c *instConn, parts inboxParts) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.free) < maxFreeInboxes {
		e.free = append(e.free, parts)
	}
	e.insts.Load().remove(c)
}

// instConn is one multiplexed instance's view of an Endpoint.
type instConn struct {
	e     *Endpoint
	inst  uint32
	inbox inbox
}

var _ transport.Conn = (*instConn)(nil)

// ID implements transport.Conn.
func (c *instConn) ID() msg.ID { return c.e.id }

// Send implements transport.Conn, tagging the frame with the instance id.
func (c *instConn) Send(to msg.ID, m msg.Message) error {
	if c.inbox.closed.Load() {
		return transport.ErrClosed
	}
	return c.e.send(to, c.inst, m)
}

// Recv implements transport.Conn over the instance's demuxed inbox.
func (c *instConn) Recv() (msg.Message, error) {
	return c.inbox.get(c.e.done)
}

// Close detaches the instance: its Recv unblocks with ErrClosed, buffered
// and subsequent frames for it are dropped, and its id is released for a
// fresh Instance claim. The endpoint and its sockets stay up for the
// remaining instances.
func (c *instConn) Close() error {
	if parts := c.inbox.close(); parts.ring != nil {
		c.e.release(c, parts)
	}
	return nil
}
