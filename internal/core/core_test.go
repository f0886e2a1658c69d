package core

import (
	"slices"
	"testing"

	"resilient/internal/msg"
	"resilient/internal/quorum"
)

func TestConfigValidate(t *testing.T) {
	good := Config{N: 7, K: 3, Self: 2, Input: msg.V1}
	if err := good.Validate(quorum.FailStop); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	bad := []struct {
		cfg   Config
		model quorum.FaultModel
	}{
		{Config{N: 7, K: 4, Self: 0, Input: msg.V0}, quorum.FailStop},
		{Config{N: 7, K: 3, Self: 0, Input: msg.V0}, quorum.Malicious},
		{Config{N: 7, K: 3, Self: 7, Input: msg.V0}, quorum.FailStop},
		{Config{N: 7, K: 3, Self: -1, Input: msg.V0}, quorum.FailStop},
		{Config{N: 7, K: 3, Self: 0, Input: msg.Value(5)}, quorum.FailStop},
		{Config{N: 0, K: 0, Self: 0, Input: msg.V0}, quorum.FailStop},
	}
	for i, b := range bad {
		if err := b.cfg.Validate(b.model); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, b.cfg)
		}
	}
}

func TestOutboundHelpers(t *testing.T) {
	m := msg.Val(1, 2, msg.V1)
	all := ToAll(m)
	if all.To != msg.Broadcast {
		t.Errorf("ToAll target %d", all.To)
	}
	one := To(4, m)
	if one.To != 4 {
		t.Errorf("To target %d", one.To)
	}
	targets := []int32{3, 0, 2}
	many := ToMany(targets, m)
	if many.To != msg.Multicast || len(many.Targets) != 3 || &many.Targets[0] != &targets[0] {
		t.Errorf("ToMany = %+v, want a multicast sharing the caller's list", many)
	}
	if all.Msg.Value != m.Value || one.Msg.Phase != m.Phase || many.Msg.Value != m.Value {
		t.Error("message not carried")
	}
}

// TestExpand pins the one expansion every engine but the simulator shares:
// order within each addressing form, and out-of-range destinations skipped.
func TestExpand(t *testing.T) {
	const n = 4
	a, b, c := msg.Val(0, 1, msg.V0), msg.Val(0, 2, msg.V1), msg.Val(0, 3, msg.V1)
	outs := []Outbound{
		To(2, a),
		To(n, a),  // no such process
		To(-5, a), // nor this one
		ToAll(b),
		ToMany([]int32{3, -1, 1, n, 3, 0}, c),
		ToMany(nil, c),
	}
	type send struct {
		to    msg.ID
		phase msg.Phase
	}
	var got []send
	Expand(outs, n, func(to msg.ID, m msg.Message) { got = append(got, send{to, m.Phase}) })
	want := []send{
		{2, 1},
		{0, 2}, {1, 2}, {2, 2}, {3, 2},
		{3, 3}, {1, 3}, {3, 3}, {0, 3},
	}
	if !slices.Equal(got, want) {
		t.Errorf("Expand sent %v, want %v", got, want)
	}
}
