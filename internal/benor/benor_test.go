package benor

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/coin"
	"resilient/internal/core"
	"resilient/internal/msg"
)

func rng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed+1)) }

func cfg(n, k int, self msg.ID, input msg.Value) core.Config {
	return core.Config{N: n, K: k, Self: self, Input: input}
}

func mustNew(t *testing.T, c core.Config, mode Mode) *Machine {
	t.Helper()
	m, err := NewWithCoin(c, mode, coin.NewLocal(rng(uint64(c.Self)+7)), nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidates(t *testing.T) {
	if _, err := NewWithCoin(cfg(7, 3, 0, msg.V0), Crash, coin.NewLocal(rng(1)), nil); err != nil {
		t.Errorf("valid crash config rejected: %v", err)
	}
	if _, err := NewWithCoin(cfg(7, 4, 0, msg.V0), Crash, coin.NewLocal(rng(1)), nil); err == nil {
		t.Error("k beyond crash bound accepted")
	}
	if _, err := NewWithCoin(cfg(11, 2, 0, msg.V0), Byzantine, coin.NewLocal(rng(1)), nil); err != nil {
		t.Errorf("valid byzantine config rejected: %v", err)
	}
	if _, err := NewWithCoin(cfg(10, 2, 0, msg.V0), Byzantine, coin.NewLocal(rng(1)), nil); err == nil {
		t.Error("5k = n accepted for byzantine mode")
	}
	if _, err := NewWithCoin(cfg(7, 1, 0, msg.V0), Crash, nil, nil); err == nil {
		t.Error("nil coin accepted")
	}
	if _, err := NewWithCoin(cfg(7, 1, 0, msg.V0), Mode(9), coin.NewLocal(rng(1)), nil); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestStartSendsRoundZeroReport(t *testing.T) {
	m := mustNew(t, cfg(5, 1, 2, msg.V1), Crash)
	outs := m.Start()
	if len(outs) != 1 || outs[0].Msg.Kind != msg.KindBenOrReport ||
		outs[0].Msg.Phase != 0 || outs[0].Msg.Value != msg.V1 {
		t.Fatalf("start %+v", outs)
	}
}

func TestUnanimousDecidesInRoundZero(t *testing.T) {
	// n=5, t=1: wait 4. All report 1 -> propose 1; all propose 1 -> > t
	// proposals -> decide in round 0.
	m := mustNew(t, cfg(5, 1, 0, msg.V1), Crash)
	m.Start()
	for s := 0; s < 4; s++ {
		m.OnMessage(msg.BenOrReport(msg.ID(s), 0, msg.V1))
	}
	// Now in step 2; feed 4 proposals for 1.
	for s := 0; s < 4; s++ {
		m.OnMessage(msg.BenOrProposal(msg.ID(s), 0, msg.V1, false))
	}
	if v, ok := m.Decided(); !ok || v != msg.V1 {
		t.Fatalf("decided (%d, %v)", v, ok)
	}
}

func TestNoMajorityProposesBot(t *testing.T) {
	m := mustNew(t, cfg(5, 1, 0, msg.V0), Crash)
	m.Start()
	var outs []core.Outbound
	vals := []msg.Value{1, 1, 0, 0}
	for s, v := range vals {
		outs = append(outs, m.OnMessage(msg.BenOrReport(msg.ID(s), 0, v))...)
	}
	if len(outs) != 1 || !outs[0].Msg.Bot {
		t.Fatalf("split reports should propose ?: %+v", outs)
	}
}

func TestAdoptFromSingleProposalCrash(t *testing.T) {
	m := mustNew(t, cfg(5, 1, 0, msg.V0), Crash)
	m.Start()
	for s := 0; s < 4; s++ {
		v := msg.V0
		if s < 2 {
			v = msg.V1
		}
		m.OnMessage(msg.BenOrReport(msg.ID(s), 0, v))
	}
	// One real proposal for 1 among bots: adopt 1, do not decide.
	m.OnMessage(msg.BenOrProposal(0, 0, msg.V1, false))
	m.OnMessage(msg.BenOrProposal(1, 0, msg.V0, true))
	m.OnMessage(msg.BenOrProposal(2, 0, msg.V0, true))
	outs := m.OnMessage(msg.BenOrProposal(3, 0, msg.V0, true))
	if _, ok := m.Decided(); ok {
		t.Fatal("decided from one proposal")
	}
	if m.CurrentValue() != msg.V1 {
		t.Errorf("adopted %d, want 1", m.CurrentValue())
	}
	if m.Phase() != 1 {
		t.Errorf("round %d", m.Phase())
	}
	// The next round's report must be sent.
	if len(outs) != 1 || outs[0].Msg.Kind != msg.KindBenOrReport || outs[0].Msg.Phase != 1 {
		t.Errorf("round-1 report missing: %+v", outs)
	}
}

func TestDuplicateSendersIgnored(t *testing.T) {
	m := mustNew(t, cfg(5, 1, 0, msg.V0), Crash)
	m.Start()
	for i := 0; i < 10; i++ {
		m.OnMessage(msg.BenOrReport(1, 0, msg.V1))
	}
	if m.Phase() != 0 {
		t.Fatal("duplicates advanced the round")
	}
}

func TestEarlyProposalBuffered(t *testing.T) {
	m := mustNew(t, cfg(5, 1, 0, msg.V0), Crash)
	m.Start()
	// Proposals for round 0 arrive before reports complete.
	m.OnMessage(msg.BenOrProposal(0, 0, msg.V1, false))
	m.OnMessage(msg.BenOrProposal(1, 0, msg.V1, false))
	if m.Phase() != 0 {
		t.Fatal("early proposals advanced")
	}
	for s := 0; s < 4; s++ {
		m.OnMessage(msg.BenOrReport(msg.ID(s), 0, msg.V1))
	}
	// Buffered proposals replay; two more finish step 2.
	m.OnMessage(msg.BenOrProposal(2, 0, msg.V1, false))
	m.OnMessage(msg.BenOrProposal(3, 0, msg.V1, false))
	if v, ok := m.Decided(); !ok || v != msg.V1 {
		t.Fatalf("decided (%d, %v) after buffered replay", v, ok)
	}
}

func TestByzantineThresholds(t *testing.T) {
	// n=11, t=2: wait 9; propose needs > 6.5 -> 7; adopt needs >= 3;
	// decide needs > 6.5 -> 7.
	m := mustNew(t, cfg(11, 2, 0, msg.V0), Byzantine)
	m.Start()
	for s := 0; s < 9; s++ {
		v := msg.V1
		if s >= 7 {
			v = msg.V0
		}
		m.OnMessage(msg.BenOrReport(msg.ID(s), 0, v))
	}
	// 7 ones -> proposes 1. Feed 3 proposals for 1, 6 bot: adopt, no decide.
	for s := 0; s < 3; s++ {
		m.OnMessage(msg.BenOrProposal(msg.ID(s), 0, msg.V1, false))
	}
	for s := 3; s < 9; s++ {
		m.OnMessage(msg.BenOrProposal(msg.ID(s), 0, msg.V0, true))
	}
	if _, ok := m.Decided(); ok {
		t.Fatal("decided below byzantine decide threshold")
	}
	if m.CurrentValue() != msg.V1 {
		t.Errorf("adopt threshold not applied: %d", m.CurrentValue())
	}
	// Two proposals only (below adopt threshold 3) in round 1: coin flips;
	// just verify no panic and round advances on 9 proposals.
	for s := 0; s < 9; s++ {
		m.OnMessage(msg.BenOrReport(msg.ID(s), 1, msg.Value(s%2)))
	}
	for s := 0; s < 9; s++ {
		m.OnMessage(msg.BenOrProposal(msg.ID(s), 1, msg.V0, true))
	}
	if m.Phase() != 2 {
		t.Errorf("round %d after two full rounds", m.Phase())
	}
}

func TestDecidedProcessLingersThenHalts(t *testing.T) {
	m := mustNew(t, cfg(5, 1, 0, msg.V1), Crash)
	m.Start()
	driveUnanimousRound := func(round msg.Phase) {
		for s := 0; s < 4; s++ {
			m.OnMessage(msg.BenOrReport(msg.ID(s), round, msg.V1))
		}
		for s := 0; s < 4; s++ {
			m.OnMessage(msg.BenOrProposal(msg.ID(s), round, msg.V1, false))
		}
	}
	driveUnanimousRound(0)
	if _, ok := m.Decided(); !ok {
		t.Fatal("not decided")
	}
	if m.Halted() {
		t.Fatal("halted without lingering")
	}
	driveUnanimousRound(1)
	driveUnanimousRound(2)
	if !m.Halted() {
		t.Fatalf("still running after linger rounds (round %d)", m.Phase())
	}
}

func TestCoinIsSeededDeterministic(t *testing.T) {
	run := func() msg.Value {
		m, err := NewWithCoin(cfg(5, 1, 0, msg.V0), Crash, coin.NewLocal(rng(42)), nil)
		if err != nil {
			t.Fatal(err)
		}
		m.Start()
		for s := 0; s < 4; s++ {
			m.OnMessage(msg.BenOrReport(msg.ID(s), 0, msg.Value(s%2)))
		}
		for s := 0; s < 4; s++ {
			m.OnMessage(msg.BenOrProposal(msg.ID(s), 0, msg.V0, true))
		}
		return m.CurrentValue() // coin outcome
	}
	if run() != run() {
		t.Error("same seed, different coin")
	}
}
