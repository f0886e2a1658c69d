package byzantine

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"resilient/internal/core"
	"resilient/internal/malicious"
	"resilient/internal/msg"
)

// fakeWorld is a WorldView with fixed counts.
type fakeWorld struct {
	zeros, ones int
}

func (w fakeWorld) CorrectValueCounts() (int, int) { return w.zeros, w.ones }

func honest(t *testing.T, n, k int, self msg.ID, input msg.Value) core.Machine {
	t.Helper()
	m, err := malicious.New(core.Config{N: n, K: k, Self: self, Input: input}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func initialsOf(outs []core.Outbound) []msg.Message {
	var res []msg.Message
	for _, o := range outs {
		if o.Msg.Kind == msg.KindInitial {
			res = append(res, o.Msg)
		}
	}
	return res
}

func TestSilent(t *testing.T) {
	s := NewSilent(3)
	if s.ID() != 3 || !s.Halted() {
		t.Error("silent basics wrong")
	}
	if s.Start() != nil || s.OnMessage(msg.Initial(1, 0, msg.V1)) != nil {
		t.Error("silent spoke")
	}
	if _, ok := s.Decided(); ok {
		t.Error("silent decided")
	}
	if s.Phase() != 0 {
		t.Error("silent phase")
	}
}

func TestBalancerClaimsMinority(t *testing.T) {
	// Ones lead -> balancer claims 0.
	b := NewBalancer(honest(t, 4, 1, 0, msg.V1), fakeWorld{zeros: 1, ones: 3})
	outs := b.Start()
	inis := initialsOf(outs)
	if len(inis) != 1 || inis[0].Value != msg.V0 {
		t.Fatalf("balancer sent %+v, want value 0", inis)
	}
	// Zeros lead -> claims 1.
	b2 := NewBalancer(honest(t, 4, 1, 0, msg.V0), fakeWorld{zeros: 3, ones: 1})
	if inis := initialsOf(b2.Start()); len(inis) != 1 || inis[0].Value != msg.V1 {
		t.Fatalf("balancer sent %+v, want value 1", inis)
	}
}

func TestBalancerLeavesEchoesAlone(t *testing.T) {
	b := NewBalancer(honest(t, 4, 1, 0, msg.V1), fakeWorld{zeros: 0, ones: 4})
	b.Start()
	outs := b.OnMessage(msg.Initial(2, 0, msg.V1))
	if len(outs) != 1 || outs[0].Msg.Kind != msg.KindEcho || outs[0].Msg.Value != msg.V1 {
		t.Fatalf("echo corrupted: %+v", outs)
	}
}

func TestFixedLiar(t *testing.T) {
	l := NewFixedLiar(honest(t, 4, 1, 2, msg.V1), msg.V0)
	inis := initialsOf(l.Start())
	if len(inis) != 1 || inis[0].Value != msg.V0 {
		t.Fatalf("liar sent %+v", inis)
	}
}

func TestFlipperDeterministicPerSeed(t *testing.T) {
	vals := func(seed uint64) msg.Value {
		f := NewFlipper(honest(t, 4, 1, 0, msg.V0), rand.New(rand.NewPCG(seed, 1)))
		return initialsOf(f.Start())[0].Value
	}
	if vals(7) != vals(7) {
		t.Error("same seed, different flip")
	}
}

func TestEquivocatorSplitsBroadcast(t *testing.T) {
	n := 6
	e := NewEquivocator(honest(t, n, 1, 0, msg.V1), n)
	outs := e.Start()
	if len(outs) != n {
		t.Fatalf("%d sends, want %d unicasts", len(outs), n)
	}
	for _, o := range outs {
		if o.To == msg.Broadcast {
			t.Fatal("broadcast not expanded")
		}
		want := msg.V1
		if int(o.To) < n/2 {
			want = msg.V0
		}
		if o.Msg.Value != want {
			t.Errorf("recipient %d got %d, want %d", o.To, o.Msg.Value, want)
		}
	}
}

func TestTwoFacedSplitsAtBoundary(t *testing.T) {
	n := 6
	tf := NewTwoFaced(honest(t, n, 1, 0, msg.V1), n, 2)
	outs := tf.Start()
	if len(outs) != n {
		t.Fatalf("%d sends", len(outs))
	}
	for _, o := range outs {
		want := msg.V1
		if o.To < 2 {
			want = msg.V0
		}
		if o.Msg.Value != want {
			t.Errorf("recipient %d got %d, want %d", o.To, o.Msg.Value, want)
		}
	}
}

// TestTwoFacedSplitsMulticast: a multicast of an own value message is a
// fan-out like a broadcast, and gets one face per in-range recipient, in
// list order.
func TestTwoFacedSplitsMulticast(t *testing.T) {
	multicast := []core.Outbound{core.ToMany([]int32{4, -1, 1, 9, 0}, msg.Val(3, 0, msg.V1))}
	tf := NewTwoFaced(&replayer{Silent: Silent{id: 3}, outs: multicast}, 6, 2)
	outs := tf.Start()
	want := []core.Outbound{
		core.To(4, msg.Val(3, 0, msg.V1)),
		core.To(1, msg.Val(3, 0, msg.V0)),
		core.To(0, msg.Val(3, 0, msg.V0)),
	}
	if !reflect.DeepEqual(outs, want) {
		t.Errorf("two-faced multicast = %+v, want %+v", outs, want)
	}
}

func TestDoubleEchoerDuplicatesEchoes(t *testing.T) {
	d := NewDoubleEchoer(honest(t, 4, 1, 0, msg.V0))
	d.Start()
	outs := d.OnMessage(msg.Initial(2, 0, msg.V1))
	var echoes []msg.Message
	for _, o := range outs {
		if o.Msg.Kind == msg.KindEcho {
			echoes = append(echoes, o.Msg)
		}
	}
	if len(echoes) != 2 {
		t.Fatalf("%d echoes, want 2", len(echoes))
	}
	if echoes[0].Value == echoes[1].Value {
		t.Error("duplicate echo not conflicting")
	}
}

func TestMuteStopsTalking(t *testing.T) {
	inner := honest(t, 4, 1, 0, msg.V0)
	m := NewMute(inner, 0) // mute from phase 0: never sends
	if outs := m.Start(); len(outs) != 0 {
		t.Fatalf("mute spoke: %+v", outs)
	}
	if outs := m.OnMessage(msg.Initial(1, 0, msg.V1)); len(outs) != 0 {
		t.Fatalf("mute echoed: %+v", outs)
	}
}

func TestMutatedDelegates(t *testing.T) {
	inner := honest(t, 4, 1, 2, msg.V1)
	m := NewMutated(inner, nil)
	if m.ID() != 2 || m.Phase() != 0 || m.Halted() {
		t.Error("delegation wrong")
	}
	if outs := m.Start(); len(outs) != 1 {
		t.Error("nil rewrite should pass through")
	}
}

func TestWildcardMessagesNotRewritten(t *testing.T) {
	// Strategies leave post-decision wildcard messages intact; verify via
	// FixedLiar by pushing an honest machine to decision.
	inner := honest(t, 4, 1, 0, msg.V1)
	liar := NewFixedLiar(inner, msg.V0)
	liar.Start()
	// Drive the inner machine to decide 1: accept 3 subjects with value 1.
	var outs []core.Outbound
	for q := 0; q < 3; q++ {
		for s := 0; s < 3; s++ { // threshold (4+1)/2+1 = 3
			outs = append(outs, liar.OnMessage(msg.Echo(msg.ID(s), msg.ID(q), 0, msg.V1))...)
		}
	}
	var sawWild bool
	for _, o := range outs {
		if o.Msg.Phase.IsWildcard() {
			sawWild = true
			if o.Msg.Value != msg.V1 {
				t.Errorf("wildcard value rewritten to %d", o.Msg.Value)
			}
		}
	}
	if !sawWild {
		t.Fatal("no wildcard messages emitted after decision")
	}
}

func TestImpersonatorForgesFullHistories(t *testing.T) {
	n := 4
	im := NewImpersonatorMachine(3, n, 2)
	outs := im.Start()
	// Per recipient: n initials + n*n echoes.
	want := n * (n + n*n)
	if len(outs) != want {
		t.Fatalf("%d sends, want %d", len(outs), want)
	}
	for _, o := range outs {
		if o.To == msg.Broadcast {
			t.Fatal("impersonator must unicast")
		}
		wantVal := msg.V1
		if o.To < 2 {
			wantVal = msg.V0
		}
		if o.Msg.Value != wantVal {
			t.Fatalf("recipient %d got value %d", o.To, o.Msg.Value)
		}
		switch o.Msg.Kind {
		case msg.KindInitial:
			if o.Msg.From != o.Msg.Subject {
				t.Fatal("forged initial with mismatched subject")
			}
		case msg.KindEcho:
		default:
			t.Fatalf("unexpected kind %v", o.Msg.Kind)
		}
	}
	// Fire-and-forget: started once, then silent and halted.
	if im.Start() != nil || !im.Halted() {
		t.Fatal("impersonator restarted or kept running")
	}
	if im.OnMessage(msg.Initial(0, 0, msg.V0)) != nil {
		t.Fatal("impersonator responded to input")
	}
}

// replayer is an inner machine whose every step returns the same outbounds
// from its own storage, so what a wrapped step allocates is the wrapper's.
type replayer struct {
	Silent
	phase msg.Phase
	outs  []core.Outbound
}

func (r *replayer) Start() []core.Outbound                { return r.outs }
func (r *replayer) OnMessage(msg.Message) []core.Outbound { return r.outs }
func (r *replayer) Phase() msg.Phase                      { return r.phase }

// stepMix is one step's worth of every outbound shape a strategy treats
// differently: an own broadcast initial, an echo, an own multicast value
// message, an own unicast initial, and a wildcard.
func stepMix(self msg.ID) []core.Outbound {
	return []core.Outbound{
		core.ToAll(msg.Initial(self, 1, msg.V1)),
		core.ToAll(msg.Echo(self, 2, 1, msg.V0)),
		core.ToMany([]int32{0, 5, 2, 7}, msg.Val(self, 1, msg.V1)),
		core.To(4, msg.Initial(self, 1, msg.V0)),
		core.ToAll(msg.Echo(self, 3, msg.WildcardPhase, msg.V1)),
	}
}

// TestWrappedStepAllocatesNothing: once its step buffer has grown, a wrapped
// step allocates nothing, whatever its strategy turns one outbound into --
// one (balancer, liar, flipper), two (double echo), none (mute) or one per
// recipient (the two-faced fan-out through core.Expand).
func TestWrappedStepAllocatesNothing(t *testing.T) {
	const n, self = 8, 6
	for _, tc := range []struct {
		name  string
		wrap  func(core.Machine) *Mutated
		sends int // outbounds one step returns
	}{
		{"balancer", func(m core.Machine) *Mutated { return NewBalancer(m, fakeWorld{zeros: 3, ones: 5}) }, 5},
		{"liar", func(m core.Machine) *Mutated { return NewFixedLiar(m, msg.V0) }, 5},
		{"flipper", func(m core.Machine) *Mutated { return NewFlipper(m, rand.New(rand.NewPCG(1, 2))) }, 5},
		{"equivocator", func(m core.Machine) *Mutated { return NewEquivocator(m, n) }, n + 1 + 4 + 1 + 1},
		{"two-faced", func(m core.Machine) *Mutated { return NewTwoFaced(m, n, 3) }, n + 1 + 4 + 1 + 1},
		{"double-echo", func(m core.Machine) *Mutated { return NewDoubleEchoer(m) }, 6},
		{"mute/talking", func(m core.Machine) *Mutated { return NewMute(m, 2) }, 5},
		{"mute/silenced", func(m core.Machine) *Mutated { return NewMute(m, 1) }, 0},
	} {
		w := tc.wrap(&replayer{Silent: Silent{id: self}, phase: 1, outs: stepMix(self)})
		if got := len(w.Start()); got != tc.sends { // also grows the step buffer
			t.Errorf("%s: %d sends per step, want %d", tc.name, got, tc.sends)
		}
		in := msg.Initial(1, 1, msg.V1)
		if a := testing.AllocsPerRun(100, func() { w.OnMessage(in) }); a != 0 {
			t.Errorf("%s: %.1f allocations per wrapped step, want 0", tc.name, a)
		}
	}
}

// TestStepBufferValidUntilNextStep pins the Mutated contract: a step returns
// the wrapper's step buffer, so the slice is valid only until the wrapper's
// next step, which overwrites it in place. A caller that needs it longer
// copies it.
func TestStepBufferValidUntilNextStep(t *testing.T) {
	step := msg.Phase(0)
	m := NewMutated(&replayer{Silent: Silent{id: 2}, outs: stepMix(2)[:1]},
		func(dst []core.Outbound, o core.Outbound) []core.Outbound {
			o.Msg.Phase = step
			return append(dst, o)
		})
	first := m.Start()
	kept := slices.Clone(first)
	step = 1
	second := m.OnMessage(msg.Initial(1, 0, msg.V1))
	if len(first) != 1 || len(second) != 1 || &first[0] != &second[0] {
		t.Fatalf("second step did not reuse the first step's buffer")
	}
	if first[0].Msg.Phase != 1 {
		t.Errorf("the first step's slice reads phase %d after the next step, want it overwritten with 1", first[0].Msg.Phase)
	}
	if kept[0].Msg.Phase != 0 {
		t.Errorf("a copy taken before the next step reads phase %d, want 0", kept[0].Msg.Phase)
	}
}
