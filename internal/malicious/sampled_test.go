package malicious

import (
	"math/rand/v2"
	"testing"

	"resilient/internal/core"
	"resilient/internal/msg"
	"resilient/internal/sample"
)

// runNetwork drives a set of machines to quiescence over a FIFO queue,
// stamping the authenticated sender like the engines do. silent processes
// neither send nor receive. Returns the total messages sent by live
// processes.
func runNetwork(t *testing.T, machines []*Machine, silent map[msg.ID]bool) (sent int) {
	t.Helper()
	type envelope struct {
		to msg.ID
		m  msg.Message
	}
	var queue []envelope
	push := func(from msg.ID, outs []core.Outbound) {
		if silent[from] {
			return
		}
		core.Expand(outs, len(machines), func(to msg.ID, m msg.Message) {
			m.From = from
			queue = append(queue, envelope{to, m})
			sent++
		})
	}
	for i, m := range machines {
		push(msg.ID(i), m.Start())
	}
	for len(queue) > 0 {
		e := queue[0]
		queue = queue[1:]
		if silent[e.to] {
			continue
		}
		m := machines[e.to]
		if m.Halted() {
			continue
		}
		push(e.to, m.OnMessage(e.m))
	}
	return sent
}

func buildSampledConsensus(t *testing.T, n, k int, seed uint64, inputs func(msg.ID) msg.Value) []*Machine {
	t.Helper()
	p, err := sample.NewPlan(n, k, sample.DefaultEps)
	if err != nil {
		t.Fatal(err)
	}
	dir := sample.NewDirectory(p, seed)
	machines := make([]*Machine, n)
	for i := range machines {
		m, err := NewSampled(cfg(n, k, msg.ID(i), inputs(msg.ID(i))), dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

func checkAgreement(t *testing.T, machines []*Machine, silent map[msg.ID]bool) msg.Value {
	t.Helper()
	decided := -1
	for id, m := range machines {
		if silent[msg.ID(id)] {
			continue
		}
		v, ok := m.Decided()
		if !ok {
			t.Fatalf("p%d did not decide", id)
		}
		if decided == -1 {
			decided = int(v)
		} else if int(v) != decided {
			t.Fatalf("p%d decided %v, others decided %v", id, v, msg.Value(decided))
		}
	}
	return msg.Value(decided)
}

// TestNewSampledValidates pins the constructor's cross-checks.
func TestNewSampledValidates(t *testing.T) {
	p, err := sample.NewPlan(100, 10, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dir := sample.NewDirectory(p, 1)
	if _, err := NewSampled(cfg(100, 10, 0, msg.V0), dir, nil); err != nil {
		t.Fatalf("valid sampled config rejected: %v", err)
	}
	if _, err := NewSampled(cfg(99, 10, 0, msg.V0), dir, nil); err == nil {
		t.Error("mismatched n accepted")
	}
	if _, err := NewSampled(cfg(100, 33, 0, msg.V0), dir, nil); err == nil {
		t.Error("mismatched k accepted")
	}
}

// TestSampledEchoesAreUnicast pins the message-complexity mechanism: a
// sampled machine echoes to its echo-target set only, not to everyone -- as
// one multicast over the directory's own list, not a copy of it.
func TestSampledEchoesAreUnicast(t *testing.T) {
	const n, k = 100, 10
	machines := buildSampledConsensus(t, n, k, 3, func(msg.ID) msg.Value { return msg.V1 })
	m := machines[5]
	outs := m.Start()
	if len(outs) != 1 || outs[0].To != msg.Broadcast {
		t.Fatalf("initial not broadcast: %+v", outs)
	}
	if len(m.echoTargets) == 0 || len(m.echoTargets) >= n {
		t.Fatalf("%d echo targets at n=%d", len(m.echoTargets), n)
	}
	echoes := m.OnMessage(msg.Initial(1, 0, msg.V1))
	if len(echoes) != 1 || echoes[0].To != msg.Multicast {
		t.Fatalf("echo sends %+v, want one multicast", echoes)
	}
	o := echoes[0]
	if len(o.Targets) != len(m.echoTargets) || &o.Targets[0] != &m.echoTargets[0] {
		t.Fatalf("multicast targets %v do not alias echoTargets %v", o.Targets, m.echoTargets)
	}
	if o.Msg.Kind != msg.KindEcho || o.Msg.Subject != 1 {
		t.Fatalf("echo = %+v", o.Msg)
	}
}

// TestSampledConsensusFaultFree runs full Figure-2 consensus over the sampled
// echo primitive: all processes must decide the same value, and unanimous
// inputs must win (validity).
func TestSampledConsensusFaultFree(t *testing.T) {
	const n, k = 100, 10
	for seed := uint64(0); seed < 3; seed++ {
		machines := buildSampledConsensus(t, n, k, seed, func(msg.ID) msg.Value { return msg.V1 })
		runNetwork(t, machines, nil)
		if got := checkAgreement(t, machines, nil); got != msg.V1 {
			t.Errorf("seed=%d: unanimous V1 inputs decided %v", seed, got)
		}
	}
}

// TestSampledConsensusMixedInputs checks agreement when inputs are split, the
// case where equivocation-style disagreement would surface if the sampled
// acceptance rule were unsound.
func TestSampledConsensusMixedInputs(t *testing.T) {
	const n, k = 100, 10
	rng := rand.New(rand.NewPCG(9, 9))
	inputs := make([]msg.Value, n)
	for i := range inputs {
		inputs[i] = msg.Value(rng.IntN(2))
	}
	machines := buildSampledConsensus(t, n, k, 4, func(id msg.ID) msg.Value { return inputs[id] })
	runNetwork(t, machines, nil)
	checkAgreement(t, machines, nil)
}

// TestSampledConsensusUnderSilentFaults runs with half the fault budget
// silent (f = k/2, leaving slack in both the n-k wait and the echo samples):
// the live processes must still reach agreement and terminate.
func TestSampledConsensusUnderSilentFaults(t *testing.T) {
	const n, k = 100, 10
	silent := make(map[msg.ID]bool)
	for i := n - k/2; i < n; i++ {
		silent[msg.ID(i)] = true
	}
	for seed := uint64(0); seed < 2; seed++ {
		machines := buildSampledConsensus(t, n, k, seed, func(msg.ID) msg.Value { return msg.V0 })
		runNetwork(t, machines, silent)
		if got := checkAgreement(t, machines, silent); got != msg.V0 {
			t.Errorf("seed=%d: decided %v under silent faults", seed, got)
		}
	}
}

// TestSampledConsensusMessageReduction compares full consensus message counts
// at n=120: the sampled echo stage must cut total traffic well below the
// full-quorum run's -- 3,484,800 messages against 1,065,600, 3.3x; both
// counts are deterministic. (The gap widens with n -- 6.3x at n=300, 12x+
// at n=1,000 per the broadcast-level benchmarks -- and narrows below: 2.8x
// at n=100. This pins the mechanism at the smallest size that clears 3x.)
func TestSampledConsensusMessageReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("n=120 consensus comparison")
	}
	const n, k = 120, 12
	machines := buildSampledConsensus(t, n, k, 2, func(msg.ID) msg.Value { return msg.V1 })
	sampledSent := runNetwork(t, machines, nil)
	checkAgreement(t, machines, nil)

	full := make([]*Machine, n)
	for i := range full {
		m, err := New(cfg(n, k, msg.ID(i), msg.V1), nil)
		if err != nil {
			t.Fatal(err)
		}
		full[i] = m
	}
	fullSent := runNetwork(t, full, nil)
	checkAgreement(t, full, nil)

	ratio := float64(fullSent) / float64(sampledSent)
	t.Logf("n=%d consensus: full-quorum %d msgs, sampled %d msgs, reduction %.1fx",
		n, fullSent, sampledSent, ratio)
	if ratio < 3 {
		t.Errorf("consensus message reduction %.1fx, want >= 3x", ratio)
	}
}
