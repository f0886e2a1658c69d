package malicious

import (
	"reflect"
	"testing"

	"resilient/internal/core"
	"resilient/internal/machinetest"
	"resilient/internal/msg"
	"resilient/internal/quorum"
)

func cfg(n, k int, self msg.ID, input msg.Value) core.Config {
	return core.Config{N: n, K: k, Self: self, Input: input}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(cfg(7, 2, 0, msg.V0), nil); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if _, err := New(cfg(7, 3, 0, msg.V0), nil); err == nil {
		t.Error("k beyond malicious bound accepted")
	}
	if NewUnsafe(cfg(6, 2, 0, msg.V0), nil) == nil {
		t.Error("NewUnsafe returned nil")
	}
}

func TestStartBroadcastsInitial(t *testing.T) {
	m, _ := New(cfg(4, 1, 2, msg.V1), nil)
	outs := m.Start()
	if len(outs) != 1 || outs[0].To != msg.Broadcast {
		t.Fatalf("start outs %+v", outs)
	}
	got := outs[0].Msg
	if got.Kind != msg.KindInitial || got.Phase != 0 || got.Value != msg.V1 || got.Subject != 2 {
		t.Errorf("initial %+v", got)
	}
}

func TestEchoesFirstInitialOnly(t *testing.T) {
	m, _ := New(cfg(4, 1, 0, msg.V0), nil)
	m.Start()
	out1 := m.OnMessage(msg.Initial(1, 0, msg.V1))
	if len(out1) != 1 || out1[0].Msg.Kind != msg.KindEcho ||
		out1[0].Msg.Subject != 1 || out1[0].Msg.Value != msg.V1 {
		t.Fatalf("echo %+v", out1)
	}
	// A second initial from the same (sender, phase) -- even equivocating --
	// is not echoed again.
	if out := m.OnMessage(msg.Initial(1, 0, msg.V0)); len(out) != 0 {
		t.Errorf("re-echoed: %+v", out)
	}
	// A different phase gets its own echo.
	if out := m.OnMessage(msg.Initial(1, 5, msg.V0)); len(out) != 1 {
		t.Errorf("future-phase initial not echoed: %+v", out)
	}
}

func TestForgedInitialDropped(t *testing.T) {
	m, _ := New(cfg(4, 1, 0, msg.V0), nil)
	m.Start()
	forged := msg.Initial(2, 0, msg.V1)
	forged.From = 3 // authenticated sender differs from claimed subject
	if out := m.OnMessage(forged); len(out) != 0 {
		t.Errorf("forged initial echoed: %+v", out)
	}
}

// echoToAll feeds enough distinct echoes to accept (subject, phase, v).
func echoToAll(t *testing.T, m *Machine, subject msg.ID, phase msg.Phase, v msg.Value, n, k int) {
	t.Helper()
	for s := 0; s < quorum.EchoAcceptCount(n, k); s++ {
		m.OnMessage(msg.Echo(msg.ID(s), subject, phase, v))
	}
}

func TestAcceptanceAndPhaseEnd(t *testing.T) {
	n, k := 4, 1
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	m.Start()
	// Accept n-k = 3 subjects with value 1 -> phase ends, adopts 1.
	for q := 0; q < 3; q++ {
		echoToAll(t, m, msg.ID(q), 0, msg.V1, n, k)
	}
	if m.Phase() != 1 {
		t.Fatalf("phase %d", m.Phase())
	}
	if m.CurrentValue() != msg.V1 {
		t.Errorf("value %d, want 1", m.CurrentValue())
	}
	// Accepting 3 of 4 with one value: 3 > (4+1)/2 = 2 -> decide.
	if v, ok := m.Decided(); !ok || v != msg.V1 {
		t.Fatalf("decided (%d, %v)", v, ok)
	}
	if !m.Halted() {
		t.Fatal("decided machine not halted (wrapper)")
	}
}

func TestDecisionEmitsWildcards(t *testing.T) {
	n, k := 4, 1
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	m.Start()
	var outs []core.Outbound
	for q := 0; q < 3; q++ {
		for s := 0; s < quorum.EchoAcceptCount(n, k); s++ {
			outs = append(outs, m.OnMessage(msg.Echo(msg.ID(s), msg.ID(q), 0, msg.V1))...)
		}
	}
	// Expect one wildcard initial + n wildcard echoes among the sends.
	var wildInit, wildEcho int
	for _, o := range outs {
		if !o.Msg.Phase.IsWildcard() {
			continue
		}
		switch o.Msg.Kind {
		case msg.KindInitial:
			wildInit++
		case msg.KindEcho:
			wildEcho++
		}
		if o.Msg.Value != msg.V1 {
			t.Errorf("wildcard with value %d", o.Msg.Value)
		}
	}
	if wildInit != 1 || wildEcho != n {
		t.Errorf("wildcards: %d initial, %d echo; want 1, %d", wildInit, wildEcho, n)
	}
}

func TestNoDecisionWithoutSupermajority(t *testing.T) {
	n, k := 7, 2 // accept threshold 5, wait 5, decide needs > 4.5 i.e. 5
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	m.Start()
	// 3 accepts of 1, 2 accepts of 0: no value exceeds (n+k)/2 = 4.5? 3 < 5.
	for q := 0; q < 3; q++ {
		echoToAll(t, m, msg.ID(q), 0, msg.V1, n, k)
	}
	for q := 3; q < 5; q++ {
		echoToAll(t, m, msg.ID(q), 0, msg.V0, n, k)
	}
	if _, ok := m.Decided(); ok {
		t.Fatal("decided on 3/5 accepts")
	}
	if m.Phase() != 1 {
		t.Fatalf("phase %d", m.Phase())
	}
	if m.CurrentValue() != msg.V1 {
		t.Errorf("majority not adopted: %d", m.CurrentValue())
	}
}

func TestFutureEchoesBuffered(t *testing.T) {
	n, k := 4, 1
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	m.Start()
	// Phase-1 echoes arrive while still in phase 0 (values mixed so the
	// cascade does not immediately decide).
	mixedVal := func(q int) msg.Value {
		if q == 2 {
			return msg.V1
		}
		return msg.V0
	}
	for q := 0; q < 3; q++ {
		echoToAll(t, m, msg.ID(q), 1, mixedVal(q), n, k)
	}
	if m.Phase() != 0 {
		t.Fatal("future echoes advanced phase")
	}
	// Completing phase 0 must replay them and cascade through phase 1.
	for q := 0; q < 3; q++ {
		echoToAll(t, m, msg.ID(q), 0, mixedVal(q), n, k)
	}
	if m.Phase() != 2 {
		t.Fatalf("phase %d, want cascade to 2", m.Phase())
	}
	if _, ok := m.Decided(); ok {
		t.Fatal("mixed accepts should not decide")
	}
}

func TestWildcardEchoesCountEveryPhase(t *testing.T) {
	n, k := 4, 1
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	m.Start()
	// Three decided processes cover subject q for every phase via
	// wildcards; subject 3's echoes for phase 0 use concrete phases.
	for s := 0; s < 3; s++ {
		for q := 0; q < 4; q++ {
			m.OnMessage(msg.Echo(msg.ID(s), msg.ID(q), msg.WildcardPhase, msg.V1))
		}
	}
	// Wildcards alone: 3 echoes per subject = threshold (4+1)/2+1 = 3.
	// So subjects get accepted already; n-k = 3 accepts -> phase advances,
	// wildcards re-apply, cascade. The machine should decide 1 quickly.
	if v, ok := m.Decided(); !ok || v != msg.V1 {
		t.Fatalf("wildcard-driven decision missing: (%d, %v), phase %d", v, ok, m.Phase())
	}
}

func TestDuplicateWildcardIgnored(t *testing.T) {
	n, k := 7, 2
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	m.Start()
	for i := 0; i < 10; i++ {
		m.OnMessage(msg.Echo(1, 2, msg.WildcardPhase, msg.V1))
	}
	z, o := m.AcceptedCounts()
	if z != 0 || o != 0 {
		t.Errorf("accepted (%d,%d) from one sender's repeated wildcard", z, o)
	}
}

// TestWildcardOutOfRangeSenderIgnored: a wildcard echo whose sender is no
// process is dropped before the wildcard log. At n = 31 the n²-bit dedup set
// rounds up to 1,024 bits, so senders 31 and 32 index inside it: only the
// range check keeps them from being logged and re-applied at every phase.
func TestWildcardOutOfRangeSenderIgnored(t *testing.T) {
	const n, k = 31, 10
	var script []msg.Message
	for _, from := range []msg.ID{n, n + 1, -1, 1 << 20} {
		for q := msg.ID(0); q < 3; q++ {
			script = append(script, msg.Echo(from, q, msg.WildcardPhase, msg.V1))
		}
	}
	good := msg.Echo(n-1, n-2, msg.WildcardPhase, msg.V1)
	m, _ := New(cfg(n, k, 0, msg.V0), nil)
	got := machinetest.Replay(m, append(script, good))
	plain, _ := New(cfg(n, k, 0, msg.V0), nil)
	if want := machinetest.Replay(plain, []msg.Message{good}); !reflect.DeepEqual(got, want) {
		t.Errorf("sends differ from a run without the bogus echoes:\n got %+v\nwant %+v", got, want)
	}
	// The one real entry, packed as (sender·n + subject)<<1 | value.
	if want := []uint32{uint32((n-1)*n+n-2)<<1 | 1}; !reflect.DeepEqual(m.wildOrder, want) {
		t.Errorf("wildcard log %v, want %v", m.wildOrder, want)
	}
}

func TestValidityUnanimous(t *testing.T) {
	// Drive a 4-process system by hand: all inputs 1.
	n, k := 4, 1
	machines := make([]*Machine, n)
	var queue []core.Outbound
	for i := 0; i < n; i++ {
		mm, err := New(cfg(n, k, msg.ID(i), msg.V1), nil)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = mm
		queue = append(queue, mm.Start()...)
	}
	// Synchronous-ish delivery loop.
	for step := 0; step < 10000 && len(queue) > 0; step++ {
		o := queue[0]
		queue = queue[1:]
		core.Expand([]core.Outbound{o}, n, func(to msg.ID, m msg.Message) {
			queue = append(queue, machines[to].OnMessage(m)...)
		})
	}
	for i, mm := range machines {
		v, ok := mm.Decided()
		if !ok {
			t.Fatalf("p%d undecided", i)
		}
		if v != msg.V1 {
			t.Fatalf("p%d decided %d, want 1", i, v)
		}
	}
}

// TestPhaseMarksArbitraryPhases checks the initial-echo dedup against a map
// over phases in no order, as a Byzantine sender may name them, and that the
// per-phase sets stay sorted by phase.
func TestPhaseMarksArbitraryPhases(t *testing.T) {
	marks := phaseMarks{n: 5}
	seen := make(map[[2]int]bool)
	phases := []msg.Phase{7, 0, 1 << 30, 3, 7, 0, 2, 1 << 30, 3, 11}
	for i, ph := range phases {
		for id := msg.ID(0); id < 5; id++ {
			if (i+int(id))%3 == 0 {
				continue
			}
			key := [2]int{int(ph), int(id)}
			if got := marks.mark(ph, id); got != seen[key] {
				t.Fatalf("mark(%d, %d) = %v, want %v", ph, id, got, seen[key])
			}
			seen[key] = true
		}
	}
	for i := 1; i < len(marks.sets); i++ {
		if marks.sets[i-1].phase >= marks.sets[i].phase {
			t.Fatalf("phase sets out of order at %d: %d then %d", i, marks.sets[i-1].phase, marks.sets[i].phase)
		}
	}
	if len(marks.sets) != 6 {
		t.Fatalf("%d phase sets, want 6", len(marks.sets))
	}
}
