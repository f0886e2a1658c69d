package majority

import (
	"math"
	"testing"

	"resilient/internal/core"
	"resilient/internal/msg"
)

func cfg(n, k int, self msg.ID, input msg.Value) core.Config {
	return core.Config{N: n, K: k, Self: self, Input: input}
}

func TestNewValidates(t *testing.T) {
	if _, err := New(cfg(7, 2, 0, msg.V0), nil); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if _, err := New(cfg(7, 3, 0, msg.V0), nil); err == nil {
		t.Error("k with unreachable decision threshold accepted (need 3k < n)")
	}
	if NewUnsafe(cfg(4, 2, 0, msg.V0), nil) == nil {
		t.Error("NewUnsafe returned nil")
	}
}

func feed(t *testing.T, m *Machine, phase msg.Phase, vals []msg.Value) {
	t.Helper()
	for i, v := range vals {
		m.OnMessage(msg.Val(msg.ID(i+1), phase, v))
	}
}

func TestAdoptsMajority(t *testing.T) {
	m, _ := New(cfg(5, 1, 0, msg.V0), nil)
	m.Start()
	feed(t, m, 0, []msg.Value{1, 1, 1, 0})
	if m.Phase() != 1 || m.CurrentValue() != msg.V1 {
		t.Errorf("phase %d value %d", m.Phase(), m.CurrentValue())
	}
}

func TestTieAdoptsZero(t *testing.T) {
	// An even wait count (n-k = 4) permits a 2-2 tie, which the pseudocode
	// resolves to 0; k = 2 here exceeds the variant's decision bound, so
	// the unsafe constructor is used (ties cannot occur with a valid odd
	// wait count anyway).
	m := NewUnsafe(cfg(6, 2, 0, msg.V1), nil)
	m.Start()
	feed(t, m, 0, []msg.Value{1, 1, 0, 0})
	if m.CurrentValue() != msg.V0 {
		t.Errorf("tie adopted %d", m.CurrentValue())
	}
}

func TestDecidesOnSupermajority(t *testing.T) {
	// n=7, k=2: wait 5; decide needs > 4.5, i.e. all 5.
	m, _ := New(cfg(7, 2, 0, msg.V0), nil)
	m.Start()
	feed(t, m, 0, []msg.Value{1, 1, 1, 1, 1})
	if v, ok := m.Decided(); !ok || v != msg.V1 {
		t.Fatalf("decided (%d, %v)", v, ok)
	}
	// Never halts: keeps broadcasting its pinned value.
	if m.Halted() {
		t.Fatal("majority machine halted")
	}
}

func TestOneBelowThresholdDoesNotDecide(t *testing.T) {
	m, _ := New(cfg(7, 2, 0, msg.V0), nil)
	m.Start()
	feed(t, m, 0, []msg.Value{1, 1, 1, 1, 0})
	if _, ok := m.Decided(); ok {
		t.Fatal("decided below threshold")
	}
}

func TestDecidedValuePinned(t *testing.T) {
	m, _ := New(cfg(7, 2, 0, msg.V0), nil)
	m.Start()
	feed(t, m, 0, []msg.Value{1, 1, 1, 1, 1})
	// Later phases full of zeros must not change the pinned value.
	feed(t, m, 1, []msg.Value{0, 0, 0, 0, 0})
	if m.CurrentValue() != msg.V1 {
		t.Errorf("pinned value changed to %d", m.CurrentValue())
	}
	if v, _ := m.Decided(); v != msg.V1 {
		t.Errorf("decision changed to %d", v)
	}
}

func TestDuplicateSenderIgnored(t *testing.T) {
	m, _ := New(cfg(5, 1, 0, msg.V0), nil)
	m.Start()
	for i := 0; i < 10; i++ {
		m.OnMessage(msg.Val(1, 0, msg.V1))
	}
	if m.Phase() != 0 {
		t.Fatal("duplicates advanced the phase")
	}
}

// TestOutOfRangeSenderIgnored: ids no process has count for nothing, so
// three real senders and three fake ones do not make the n-k = 4 a phase
// waits for.
func TestOutOfRangeSenderIgnored(t *testing.T) {
	m, _ := New(cfg(5, 1, 0, msg.V0), nil)
	m.Start()
	for _, from := range []msg.ID{1, -1, 2, 5, 3, math.MaxInt32} {
		m.OnMessage(msg.Val(from, 0, msg.V1))
	}
	if m.Phase() != 0 {
		t.Fatal("senders outside 0..n-1 advanced the phase")
	}
	m.OnMessage(msg.Val(4, 0, msg.V1))
	if m.Phase() != 1 {
		t.Fatalf("the fourth real sender left the machine in phase %d", m.Phase())
	}
}

func TestFutureBufferedAndReplayed(t *testing.T) {
	m := NewUnsafe(cfg(5, 2, 0, msg.V0), nil)
	m.Start()
	feed(t, m, 1, []msg.Value{0, 0, 1})
	if m.Phase() != 0 {
		t.Fatal("future values advanced the phase")
	}
	feed(t, m, 0, []msg.Value{0, 0, 1})
	// Phase 0 completes on 3 messages; the buffered phase-1 messages
	// replay and complete phase 1 as well (mixed, so no decision).
	if m.Phase() != 2 {
		t.Fatalf("phase %d, want 2", m.Phase())
	}
	if _, ok := m.Decided(); ok {
		t.Fatal("mixed messages should not decide")
	}
}

func TestForeignKindIgnored(t *testing.T) {
	m, _ := New(cfg(5, 1, 0, msg.V0), nil)
	m.Start()
	if out := m.OnMessage(msg.State(1, 0, msg.V1, 3)); out != nil {
		t.Error("state message processed by majority machine")
	}
}
