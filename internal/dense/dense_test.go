package dense

import (
	"testing"

	"resilient/internal/msg"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	b.Reset(130)
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		if b.Test(i) {
			t.Fatalf("fresh bit %d set", i)
		}
		if b.Set(i) {
			t.Fatalf("Set(%d) reported already on first set", i)
		}
		if !b.Test(i) || !b.Set(i) {
			t.Fatalf("bit %d did not stick", i)
		}
	}
	if b.Test(2) {
		t.Fatal("untouched bit set")
	}
}

func TestBitsetOutOfRange(t *testing.T) {
	var b Bitset
	b.Reset(8)
	for _, i := range []int{-1, 8, 64, 1 << 30} {
		// Bits 8..63 share the single word, so only truly out-of-word
		// indices are rejected; -1 and >=64 must be safe no-ops.
		if i >= 0 && i < 64 {
			continue
		}
		if !b.Set(i) {
			t.Errorf("Set(%d) out of range should report already", i)
		}
		if b.Test(i) {
			t.Errorf("Test(%d) out of range should be clear", i)
		}
	}
}

func TestBitsetResetReuses(t *testing.T) {
	var b Bitset
	b.Reset(100)
	b.Set(99)
	b.Reset(100)
	if b.Test(99) {
		t.Fatal("Reset kept a bit")
	}
	b.Reset(64) // shrink within capacity
	if b.Set(10) {
		t.Fatal("bit survived shrink reset")
	}
	b.Reset(4096) // grow
	if b.Test(10) {
		t.Fatal("grow kept a bit")
	}
	if b.Set(4095) {
		t.Fatal("grown bitset rejects in-range bit")
	}
}

func mkMsg(ph msg.Phase, from msg.ID) msg.Message {
	return msg.State(from, ph, msg.V0, 1)
}

// sizes returns the number of messages p buffers per phase.
func sizes(p *PhaseBuffer) map[msg.Phase]int {
	out := make(map[msg.Phase]int)
	p.ForEach(func(ph msg.Phase, msgs []msg.Message) { out[ph] = len(msgs) })
	return out
}

func TestPhaseBufferOrdering(t *testing.T) {
	var p PhaseBuffer
	p.Add(3, mkMsg(3, 0))
	p.Add(1, mkMsg(1, 1))
	p.Add(3, mkMsg(3, 2))
	p.Add(2, mkMsg(2, 3))
	if got := sizes(&p); len(got) != 3 || got[3] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("buffered %v, want 1:1 2:1 3:2", got)
	}
	var phases []msg.Phase
	p.ForEach(func(ph msg.Phase, msgs []msg.Message) { phases = append(phases, ph) })
	if len(phases) != 3 || phases[0] != 1 || phases[1] != 2 || phases[2] != 3 {
		t.Fatalf("ForEach order = %v, want ascending", phases)
	}
	got := p.TakeInto(3, nil)
	if len(got) != 2 || got[0].From != 0 || got[1].From != 2 {
		t.Fatalf("TakeInto(3) = %v", got)
	}
	if got := sizes(&p); len(got) != 2 || got[3] != 0 {
		t.Fatalf("TakeInto did not remove the bucket: %v", got)
	}
}

func TestPhaseBufferDrop(t *testing.T) {
	var p PhaseBuffer
	for ph := msg.Phase(0); ph < 5; ph++ {
		p.Add(ph, mkMsg(ph, msg.ID(ph)))
	}
	p.DropBelow(4)
	if got := sizes(&p); len(got) != 1 || got[4] != 1 {
		t.Fatalf("DropBelow left %v", got)
	}
}

func TestPhaseBufferCloneIsDeep(t *testing.T) {
	var p PhaseBuffer
	p.Add(1, mkMsg(1, 0))
	c := p.Clone()
	c.Add(1, mkMsg(1, 1))
	c.Add(2, mkMsg(2, 2))
	if got := sizes(&p); len(got) != 1 || got[1] != 1 {
		t.Fatalf("clone shares storage with original: %v", got)
	}
	if got := sizes(&c); len(got) != 2 || got[1] != 2 {
		t.Fatalf("clone lost its own writes: %v", got)
	}
}

// TestPhaseBufferSteadyStateNoAllocs verifies the freelist: cycling messages
// through take-and-readd at a sliding phase window settles to zero
// allocations per round.
func TestPhaseBufferSteadyStateNoAllocs(t *testing.T) {
	var p PhaseBuffer
	ph := msg.Phase(0)
	// Warm up bucket and message storage.
	for i := 0; i < 8; i++ {
		p.Add(ph+1, mkMsg(ph+1, msg.ID(i)))
	}
	var dst []msg.Message
	dst = p.TakeInto(ph+1, dst[:0])
	_ = dst
	allocs := testing.AllocsPerRun(200, func() {
		ph++
		for i := 0; i < 8; i++ {
			p.Add(ph+1, mkMsg(ph+1, msg.ID(i)))
		}
		dst = p.TakeInto(ph+1, dst[:0])
	})
	if allocs != 0 {
		t.Fatalf("steady-state buffering allocated %.1f times per round", allocs)
	}
}

// TestPhaseBufferReset: a reset buffer is empty, and its buckets' storage
// serves the next instance's phases without allocating.
func TestPhaseBufferReset(t *testing.T) {
	var p PhaseBuffer
	fill := func() {
		for ph := msg.Phase(1); ph <= 3; ph++ {
			for i := 0; i < 4; i++ {
				p.Add(ph, msg.Echo(msg.ID(i), 0, ph, msg.V1))
			}
		}
	}
	fill()
	p.Reset()
	if got := sizes(&p); len(got) != 0 || len(p.TakeInto(2, nil)) != 0 {
		t.Fatalf("reset buffer holds %v", got)
	}
	if allocs := testing.AllocsPerRun(10, func() { fill(); p.Reset() }); allocs != 0 {
		t.Fatalf("a reset buffer's next instance allocated %.1f times, want 0", allocs)
	}
}
