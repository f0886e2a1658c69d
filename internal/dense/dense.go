// Package dense provides allocation-free replacements for the small maps
// the protocol machines used to keep on their hot paths: bitsets indexed by
// process ID (IDs are always 0..n-1) and a phase-indexed message buffer.
// All types are plain slices with freelists, so steady-state operation
// performs no heap allocations; that invariant is what the engine's
// zero-allocation benchmarks measure (see DESIGN.md, "Performance").
package dense

import (
	"slices"

	"resilient/internal/msg"
)

// Bitset is a fixed-capacity bitset. The zero value is empty and must be
// sized with Reset before use.
type Bitset struct {
	words []uint64
}

// Reset clears the bitset, growing it to hold n bits if needed.
func (b *Bitset) Reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
		return
	}
	b.words = b.words[:w]
	clear(b.words)
}

// Test reports whether bit i is set. Out-of-range bits read as clear.
func (b *Bitset) Test(i int) bool {
	w := i >> 6
	if i < 0 || w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(uint(i)&63)) != 0
}

// Set sets bit i and reports whether it was already set. Out-of-range bits
// are ignored (reported as already set, so callers treat them as duplicates).
func (b *Bitset) Set(i int) (already bool) {
	w := i >> 6
	if i < 0 || w >= len(b.words) {
		return true
	}
	mask := uint64(1) << (uint(i) & 63)
	already = b.words[w]&mask != 0
	b.words[w] |= mask
	return already
}

// SortedIndex returns the position of id within the sorted id set, or -1
// when id is not in it. It maps a sample member to its bit in a bitset
// sized to the sample.
func SortedIndex(set []int32, id msg.ID) int {
	i, ok := slices.BinarySearch(set, int32(id))
	if !ok {
		return -1
	}
	return i
}

// phaseBucket holds the buffered messages of one phase.
type phaseBucket struct {
	phase msg.Phase
	msgs  []msg.Message
}

// PhaseBuffer buffers messages addressed to future phases, replacing the
// map[msg.Phase][]msg.Message the machines used to keep. Buckets are held
// sorted by phase in a small vector (the live window of phases is tiny),
// and consumed buckets recycle their storage through a freelist, so
// steady-state buffering allocates nothing.
type PhaseBuffer struct {
	buckets []phaseBucket
	free    [][]msg.Message
}

// Add buffers m under phase ph.
func (p *PhaseBuffer) Add(ph msg.Phase, m msg.Message) {
	i := p.find(ph)
	if i < 0 {
		i = p.insert(ph)
	}
	p.buckets[i].msgs = append(p.buckets[i].msgs, m)
}

// TakeInto appends phase ph's buffered messages to dst, removes the bucket,
// recycles its storage, and returns the extended dst.
func (p *PhaseBuffer) TakeInto(ph msg.Phase, dst []msg.Message) []msg.Message {
	i := p.find(ph)
	if i < 0 {
		return dst
	}
	dst = append(dst, p.buckets[i].msgs...)
	p.removeAt(i)
	return dst
}

// DropBelow discards every bucket with phase strictly below ph.
func (p *PhaseBuffer) DropBelow(ph msg.Phase) {
	for len(p.buckets) > 0 && p.buckets[0].phase < ph {
		p.removeAt(0)
	}
}

// ForEach calls fn for each non-empty phase in ascending order. The msgs
// slice is owned by the buffer and must not be retained.
func (p *PhaseBuffer) ForEach(fn func(ph msg.Phase, msgs []msg.Message)) {
	for _, b := range p.buckets {
		fn(b.phase, b.msgs)
	}
}

// Reset empties the buffer, keeping every bucket's storage on the freelist
// for the next Add.
func (p *PhaseBuffer) Reset() {
	for len(p.buckets) > 0 {
		p.removeAt(len(p.buckets) - 1)
	}
}

// Clone returns an independent deep copy of the buffer.
func (p *PhaseBuffer) Clone() PhaseBuffer {
	c := PhaseBuffer{buckets: make([]phaseBucket, len(p.buckets))}
	for i, b := range p.buckets {
		c.buckets[i] = phaseBucket{
			phase: b.phase,
			msgs:  append([]msg.Message(nil), b.msgs...),
		}
	}
	return c
}

func (p *PhaseBuffer) find(ph msg.Phase) int {
	for i := range p.buckets {
		if p.buckets[i].phase == ph {
			return i
		}
	}
	return -1
}

// insert adds an empty bucket for ph (which must not exist) keeping buckets
// sorted by phase, and returns its index.
func (p *PhaseBuffer) insert(ph msg.Phase) int {
	var msgs []msg.Message
	if n := len(p.free); n > 0 {
		msgs = p.free[n-1]
		p.free = p.free[:n-1]
	}
	// Inline binary search for the first bucket with phase > ph: sort.Search
	// would force the predicate closure (and p with it) to the heap on a
	// path reachable from every message step.
	i, j := 0, len(p.buckets)
	for i < j {
		h := int(uint(i+j) >> 1)
		if p.buckets[h].phase > ph {
			j = h
		} else {
			i = h + 1
		}
	}
	p.buckets = append(p.buckets, phaseBucket{})
	copy(p.buckets[i+1:], p.buckets[i:])
	p.buckets[i] = phaseBucket{phase: ph, msgs: msgs}
	return i
}

func (p *PhaseBuffer) removeAt(i int) {
	b := p.buckets[i]
	p.free = append(p.free, b.msgs[:0])
	copy(p.buckets[i:], p.buckets[i+1:])
	p.buckets = p.buckets[:len(p.buckets)-1]
}
