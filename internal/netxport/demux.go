package netxport

import (
	"math/bits"
	"sync/atomic"
)

// demux is an endpoint's instance table: open addressing with linear probing
// over atomic slots. route finds a conn with atomic loads and no lock;
// Instance and release, which hold e.mu, change slots in place.
//
// A released conn's slot becomes a tombstone, which lookups probe past and a
// later claim reuses; a tombstone followed by an empty slot is cleared, since
// no probe can need to pass it. So an empty slot never appears between a live
// conn and its home slot, and a lookup that reaches one knows the id is not
// claimed. Live conns and tombstones together never fill more than three
// quarters of the slots, so every probe ends. A claim that would cross that
// line rebuilds the table, the one time it is replaced, at a size where the
// live conns fill at most a quarter; a route still probing the old table
// sees the table as it was, as with any claim or release it raced.
type demux struct {
	slots []atomic.Pointer[instConn] // power-of-two length
	shift uint                       // 32 - log2(len(slots)): home is the hash's top bits
	live  int                        // conns in the table, under e.mu
	used  int                        // live conns plus tombstones, under e.mu
}

// tombstone marks a released slot. Its id is 0, which no claim can have.
var tombstone = &instConn{}

// minDemuxSlots is the smallest table, four times a log's default pipeline.
const minDemuxSlots = 16

// newDemux returns an empty table with room for live conns.
func newDemux(live int) *demux {
	size := minDemuxSlots
	for size < 4*live {
		size *= 2
	}
	return &demux{
		slots: make([]atomic.Pointer[instConn], size),
		shift: uint(32 - bits.TrailingZeros(uint(size))),
	}
}

// home is inst's first probe slot (Fibonacci hashing, so consecutive ids --
// a log's slots -- spread over the table).
func (d *demux) home(inst uint32) int {
	return int((inst * 0x9e3779b9) >> d.shift)
}

// lookup returns the conn claimed as inst, or nil. inst must not be 0. It
// takes no lock, and is safe beside a concurrent insert or remove.
func (d *demux) lookup(inst uint32) *instConn {
	mask := len(d.slots) - 1
	for i, n := d.home(inst), 0; n < len(d.slots); i, n = (i+1)&mask, n+1 {
		c := d.slots[i].Load()
		if c == nil || c.inst == inst {
			return c
		}
	}
	return nil
}

// insert adds c, whose id the table does not hold, and returns the table to
// publish: d itself, or its replacement when d had no room. Called with e.mu
// held.
func (d *demux) insert(c *instConn) *demux {
	if 4*(d.used+1) > 3*len(d.slots) {
		next := newDemux(d.live + 1)
		for i := range d.slots {
			if s := d.slots[i].Load(); s != nil && s != tombstone {
				next.insert(s)
			}
		}
		d = next
	}
	mask := len(d.slots) - 1
	i := d.home(c.inst)
	for {
		s := d.slots[i].Load()
		if s == nil {
			d.used++
			break
		}
		if s == tombstone {
			break
		}
		i = (i + 1) & mask
	}
	d.slots[i].Store(c)
	d.live++
	return d
}

// remove takes c out of the table if it is still there; a conn whose id was
// since released and claimed again finds nothing to remove. Called with e.mu
// held.
func (d *demux) remove(c *instConn) {
	mask := len(d.slots) - 1
	i := d.home(c.inst)
	for {
		s := d.slots[i].Load()
		if s == nil {
			return
		}
		if s == c {
			break
		}
		i = (i + 1) & mask
	}
	d.slots[i].Store(tombstone)
	d.live--
	// Clear the run of tombstones that now ends before an empty slot.
	for d.slots[i].Load() == tombstone && d.slots[(i+1)&mask].Load() == nil {
		d.slots[i].Store(nil)
		d.used--
		i = (i - 1) & mask
	}
}
