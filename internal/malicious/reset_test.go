package malicious

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/machinetest"
	"resilient/internal/msg"
)

// slotStream is one Figure-2 instance as a process sees it, deciding v at
// phase last: at every phase up to last each honest process (ids 0..n-k-1)
// broadcasts its initial and echoes every honest initial, interleaved at
// random with steps of the machinetest stream sent by the k faulty processes
// (ids n-k..n-1) -- forged initials, equivocating, wildcard and future-phase
// echoes, malformed values and ids outside 0..n-1. Below phase last the
// honest initials split, a bare majority for v and the rest for the other
// value, so a phase ends with v adopted and nothing decided; at phase last
// they are unanimous for v. The honest part alone settles every phase that
// way whatever the faulty part says, since n-k > (n+k)/2 and k < (n+k)/2.
func slotStream(rng *rand.Rand, n, k, hostile int, v msg.Value, last msg.Phase) []msg.Message {
	var honest []msg.Message
	for ph := msg.Phase(0); ph <= last; ph++ {
		for q := msg.ID(0); int(q) < n-k; q++ {
			w := v
			if ph < last && int(q) > (n-k)/2 {
				w = 1 - v
			}
			honest = append(honest, msg.Initial(q, ph, w))
			for s := msg.ID(0); int(s) < n-k; s++ {
				honest = append(honest, msg.Echo(s, q, ph, w))
			}
		}
	}
	faulty := machinetest.Script(rng, machinetest.Options{
		N: n, Steps: hostile, Kinds: []msg.Kind{msg.KindInitial, msg.KindEcho}, MaxPhase: 4,
	})
	for i, m := range faulty {
		if m.From >= 0 && int(m.From) < n {
			faulty[i].From = msg.ID(n - k + int(m.From)%k)
		}
	}
	out := make([]msg.Message, 0, len(honest)+len(faulty))
	for len(honest)+len(faulty) > 0 {
		if len(faulty) == 0 || (len(honest) > 0 && rng.IntN(len(honest)+len(faulty)) < len(honest)) {
			out, honest = append(out, honest[0]), honest[1:]
		} else {
			out, faulty = append(out, faulty[0]), faulty[1:]
		}
	}
	return out
}

// requireHostile fails t unless the stream holds a forged initial, a
// wildcard echo and a future-phase echo.
func requireHostile(t *testing.T, stream []msg.Message) {
	t.Helper()
	var forged, wild, future bool
	for _, m := range stream {
		switch m.Kind {
		case msg.KindInitial:
			forged = forged || m.Subject != m.From
		case msg.KindEcho:
			wild = wild || m.Phase.IsWildcard()
			future = future || (!m.Phase.IsWildcard() && m.Phase > 0)
		}
	}
	if !forged || !wild || !future {
		t.Fatalf("stream lacks a hostile case: forged initial %v, wildcard echo %v, future echo %v", forged, wild, future)
	}
}

// TestResetMachineEqualsFresh drives a machine through a hostile slot until
// it halts at phase 1, resets it to another process and input, and requires
// it to behave step for step as a new machine on the next slot -- three
// slots in a row, deciding at phases 2, 1 and 0, so a reset machine is reset
// again and reaches the phases the last slot's future echoes named.
func TestResetMachineEqualsFresh(t *testing.T) {
	for _, n := range []int{4, 7, 10} {
		k := (n - 1) / 3
		rng := rand.New(rand.NewPCG(uint64(n), 0x5e7))
		m := NewUnsafe(cfg(n, k, 0, msg.V0), nil)
		first := slotStream(rng, n, k, 40*n, msg.V0, 1)
		requireHostile(t, first)
		machinetest.Replay(m, first)
		if v, ok := m.Decided(); !ok || v != msg.V0 || !m.Halted() {
			t.Fatalf("n=%d: the first slot left the machine at decided (%d, %v), halted %v", n, v, ok, m.Halted())
		}
		for slot := 1; slot <= 3; slot++ {
			c := cfg(n, k, msg.ID(slot%n), msg.Value(slot%2))
			m.reset(c, nil)
			fresh, err := New(c, nil)
			if err != nil {
				t.Fatal(err)
			}
			stream := slotStream(rng, n, k, 40*n, msg.Value(slot%2), msg.Phase(3-slot))
			requireHostile(t, stream)
			if err := machinetest.Diff(m, fresh, stream); err != nil {
				t.Fatalf("n=%d slot %d: reset machine vs new: %v", n, slot, err)
			}
			if !m.Halted() {
				t.Fatalf("n=%d slot %d: the slot did not halt the machine", n, slot)
			}
		}
	}
}

// TestResetMachineAllocatesNothing: once warm, a reset machine runs a whole
// unanimous slot -- the phase-0 initial, the echoes, the decision and its
// N + 1 wildcard burst, and the wildcards that reach it after it halted --
// without allocating. A new machine per slot allocated its struct, its
// tracker and bitsets, its first step buffer, its replay queue and the
// burst's buffer.
func TestResetMachineAllocatesNothing(t *testing.T) {
	const n, k = 7, 2
	var script []msg.Message
	for q := msg.ID(0); q < n; q++ {
		script = append(script, msg.Initial(q, 0, msg.V1))
		for s := msg.ID(0); s < n; s++ {
			script = append(script, msg.Echo(s, q, 0, msg.V1))
		}
	}
	for q := msg.ID(0); q < n; q++ {
		script = append(script, msg.Initial(q, msg.WildcardPhase, msg.V1), msg.Echo(q, 0, msg.WildcardPhase, msg.V1))
	}
	m := NewUnsafe(cfg(n, k, 0, msg.V1), nil)
	burst := 0
	slot := func() {
		m.reset(cfg(n, k, 3, msg.V1), nil)
		m.Start()
		for _, in := range script {
			if outs := m.OnMessage(in); len(outs) > burst {
				burst = len(outs)
			}
		}
	}
	slot()
	if v, ok := m.Decided(); !ok || v != msg.V1 || !m.Halted() || burst < n+1 {
		t.Fatalf("the slot decided (%d, %v), halted %v, largest step %d sends; want 1, halted, at least %d",
			v, ok, m.Halted(), burst, n+1)
	}
	if allocs := testing.AllocsPerRun(20, slot); allocs != 0 {
		t.Fatalf("a reset machine's slot allocated %.1f times, want 0", allocs)
	}
}

// TestResetKeepsTrackerOnlyForItsShape: a reset to another n or k, or from
// the sampled echo, builds the tracker that shape needs; a reset to the same
// shape keeps the tracker it has.
func TestResetKeepsTrackerOnlyForItsShape(t *testing.T) {
	m := NewUnsafe(cfg(7, 2, 0, msg.V0), nil)
	tr := m.tracker
	m.reset(cfg(7, 2, 5, msg.V1), nil)
	if m.tracker != tr {
		t.Fatal("a reset to the same shape built a new tracker")
	}
	m.reset(cfg(10, 3, 5, msg.V1), nil)
	if m.tracker == tr || m.tracker.Threshold() != 7 {
		t.Fatalf("a reset to n=10 k=3 kept the n=7 tracker (threshold %d)", m.tracker.Threshold())
	}
	m.echoTargets = []int32{1, 2}
	tr = m.tracker
	m.reset(cfg(10, 3, 0, msg.V0), nil)
	if m.tracker == tr || m.echoTargets != nil {
		t.Fatal("a reset from the sampled echo kept its tracker or targets")
	}
	fresh, _ := New(cfg(10, 3, 0, msg.V0), nil)
	if err := machinetest.Diff(m, fresh, slotStream(rand.New(rand.NewPCG(1, 2)), 10, 3, 200, msg.V0, 1)); err != nil {
		t.Fatal(err)
	}
}
