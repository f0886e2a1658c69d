package netxport

import (
	"math/rand"
	"testing"
)

// claimed counts the live conns in e's demux table, checking the table's own
// count against its slots.
func claimed(t *testing.T, e *Endpoint) int {
	t.Helper()
	e.mu.Lock()
	defer e.mu.Unlock()
	d := e.insts.Load()
	n := 0
	for i := range d.slots {
		if c := d.slots[i].Load(); c != nil && c != tombstone {
			n++
		}
	}
	if n != d.live {
		t.Fatalf("demux table holds %d conns but counts %d", n, d.live)
	}
	return n
}

// checkDemux compares d with the oracle: every claimed id is found, a sample
// of unclaimed ids is not, the counts match the slots, and at least a quarter
// of the slots are empty.
func checkDemux(t *testing.T, d *demux, oracle map[uint32]*instConn) {
	t.Helper()
	live, used := 0, 0
	for i := range d.slots {
		switch c := d.slots[i].Load(); c {
		case nil:
		case tombstone:
			used++
		default:
			live++
			used++
		}
	}
	if live != d.live || used != d.used || live != len(oracle) {
		t.Fatalf("slots hold %d live, %d used; table counts %d, %d; oracle %d", live, used, d.live, d.used, len(oracle))
	}
	if 4*used > 3*len(d.slots) {
		t.Fatalf("%d of %d slots used", used, len(d.slots))
	}
	for id, c := range oracle {
		if got := d.lookup(id); got != c {
			t.Fatalf("lookup(%d) = %p, want %p", id, got, c)
		}
	}
	for id := uint32(1); id < 200; id++ {
		if _, ok := oracle[id]; !ok && d.lookup(id) != nil {
			t.Fatalf("lookup(%d) found a conn for an unclaimed id", id)
		}
	}
}

// TestDemuxMatchesMap drives the table through random claims and releases,
// of small ids that collide and wrap and of arbitrary ones, against a map.
func TestDemuxMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := newDemux(0)
	oracle := make(map[uint32]*instConn)
	ids := make([]uint32, 0, 64)
	for step := 0; step < 20_000; step++ {
		if len(ids) > 0 && (rng.Intn(2) == 0 || len(ids) >= 48) {
			j := rng.Intn(len(ids))
			id := ids[j]
			ids[j] = ids[len(ids)-1]
			ids = ids[:len(ids)-1]
			d.remove(oracle[id])
			delete(oracle, id)
			// A second release of the same conn, or of a stale conn with a
			// reclaimed id, must leave the table alone.
			d.remove(&instConn{inst: id})
		} else {
			id := uint32(1 + rng.Intn(100))
			if rng.Intn(4) == 0 {
				id = rng.Uint32() | 1
			}
			if _, dup := oracle[id]; dup {
				continue
			}
			c := &instConn{inst: id}
			d = d.insert(c)
			oracle[id] = c
			ids = append(ids, id)
		}
		checkDemux(t, d, oracle)
	}
}

// TestDemuxLogChurnKeepsTable pins the allocation claim for a log's pattern
// of ids, one per slot with a few in flight: released slots are cleared in
// place, so the table keeps its smallest size and is never rebuilt.
func TestDemuxLogChurnKeepsTable(t *testing.T) {
	const (
		window = 5
		slots  = 100_000
	)
	d := newDemux(0)
	live := make([]*instConn, 0, window)
	rebuilds := 0
	for s := uint32(1); s <= slots; s++ {
		if len(live) == window {
			d.remove(live[0])
			live = append(live[:0], live[1:]...)
		}
		c := &instConn{inst: s}
		if next := d.insert(c); next != d {
			d = next
			rebuilds++
		}
		live = append(live, c)
	}
	if len(d.slots) != minDemuxSlots || rebuilds != 0 {
		t.Fatalf("%d slots, %d rebuilds in %d claims", len(d.slots), rebuilds, slots)
	}
}
