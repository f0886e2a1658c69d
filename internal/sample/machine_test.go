package sample

import (
	"testing"

	"resilient/internal/core"
	"resilient/internal/msg"
)

// runLoop drives a set of broadcast machines to quiescence with a FIFO
// queue, stamping the authenticated sender like the engines do. silent
// processes never send. Returns total messages sent by live processes.
func runLoop(t *testing.T, machines []core.Machine, silent map[msg.ID]bool) (sent int) {
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
			m.From = from // transport authentication
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

func buildSampled(t *testing.T, p Plan, seed uint64, input msg.Value) []core.Machine {
	t.Helper()
	dir := NewDirectory(p, seed)
	machines := make([]core.Machine, p.N)
	for i := range machines {
		m, err := NewMachine(core.Config{N: p.N, K: p.K, Self: msg.ID(i), Input: input}, dir, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

func buildEcho(t *testing.T, n, k int, input msg.Value) []core.Machine {
	t.Helper()
	machines := make([]core.Machine, n)
	for i := range machines {
		m, err := NewEchoMachine(core.Config{N: n, K: k, Self: msg.ID(i), Input: input}, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	return machines
}

func countDelivered(machines []core.Machine, silent map[msg.ID]bool, want msg.Value) (delivered int, wrong int) {
	for id, m := range machines {
		if silent[msg.ID(id)] {
			continue
		}
		if v, ok := m.Decided(); ok {
			if v == want {
				delivered++
			} else {
				wrong++
			}
		}
	}
	return delivered, wrong
}

func TestSampledBroadcastFaultFree(t *testing.T) {
	for _, n := range []int{50, 200} {
		p := mustPlan(t, n, n/10, 1e-3)
		for seed := uint64(0); seed < 3; seed++ {
			machines := buildSampled(t, p, seed, msg.V1)
			sent := runLoop(t, machines, nil)
			delivered, wrong := countDelivered(machines, nil, msg.V1)
			if wrong > 0 {
				t.Fatalf("n=%d seed=%d: %d processes delivered the wrong value", n, seed, wrong)
			}
			if delivered < n-1 { // ε-delivery: allow stray sampling misses
				t.Errorf("n=%d seed=%d: only %d/%d delivered", n, seed, delivered, n)
			}
			if int64(sent) > 2*p.ExpectedMessages() {
				t.Errorf("n=%d seed=%d: sent %d messages, expected about %d", n, seed, sent, p.ExpectedMessages())
			}
		}
	}
}

func TestSampledBroadcastUnderSilentFaults(t *testing.T) {
	const n = 200
	p := mustPlan(t, n, n/10, 1e-3)
	silent := make(map[msg.ID]bool)
	for i := n - n/10; i < n; i++ { // the full k budget, ids n-k..n-1
		silent[msg.ID(i)] = true
	}
	for seed := uint64(0); seed < 3; seed++ {
		machines := buildSampled(t, p, seed, msg.V0)
		runLoop(t, machines, silent)
		delivered, wrong := countDelivered(machines, silent, msg.V0)
		if wrong > 0 {
			t.Fatalf("seed=%d: wrong-value deliveries under silent faults", seed)
		}
		correct := n - n/10
		if delivered < correct-2 {
			t.Errorf("seed=%d: %d/%d correct processes delivered", seed, delivered, correct)
		}
	}
}

func TestEchoBroadcastDelivers(t *testing.T) {
	const n, k = 50, 5
	machines := buildEcho(t, n, k, msg.V1)
	sent := runLoop(t, machines, nil)
	delivered, wrong := countDelivered(machines, nil, msg.V1)
	if wrong != 0 || delivered != n {
		t.Fatalf("echo scheme delivered %d/%d (wrong=%d)", delivered, n, wrong)
	}
	if sent != n*(n+1) {
		t.Errorf("echo scheme sent %d messages, want n(n+1)=%d", sent, n*(n+1))
	}
}

// TestMessageReductionAtN1000 is the acceptance-criterion measurement: one
// sampled broadcast at n=1,000 must send at least 5x fewer messages than the
// same broadcast over the full-quorum echo primitive, with every process
// delivering the origin's value.
func TestMessageReductionAtN1000(t *testing.T) {
	const n = 1000
	p := mustPlan(t, n, n/10, 1e-3)
	machines := buildSampled(t, p, 1, msg.V1)
	sampleSent := runLoop(t, machines, nil)
	delivered, wrong := countDelivered(machines, nil, msg.V1)
	if wrong > 0 || delivered < n-1 {
		t.Fatalf("sampled broadcast delivered %d/%d (wrong=%d)", delivered, n, wrong)
	}

	echoM := buildEcho(t, n, n/10, msg.V1)
	echoSent := runLoop(t, echoM, nil)
	if d, w := countDelivered(echoM, nil, msg.V1); w > 0 || d != n {
		t.Fatalf("echo broadcast delivered %d/%d (wrong=%d)", d, n, w)
	}

	ratio := float64(echoSent) / float64(sampleSent)
	t.Logf("n=%d: echo %d msgs, sampled %d msgs, reduction %.1fx (plan %v)",
		n, echoSent, sampleSent, ratio, p)
	if ratio < 5 {
		t.Errorf("message reduction %.1fx, want >= 5x", ratio)
	}
}

func TestMachineValidation(t *testing.T) {
	p := mustPlan(t, 50, 5, 1e-2)
	dir := NewDirectory(p, 0)
	if _, err := NewMachine(core.Config{N: 49, K: 5, Self: 0}, dir, 0, nil); err == nil {
		t.Error("mismatched n accepted")
	}
	if _, err := NewMachine(core.Config{N: 50, K: 5, Self: 0}, dir, 99, nil); err == nil {
		t.Error("out-of-range origin accepted")
	}
	if _, err := NewEchoMachine(core.Config{N: 50, K: 5, Self: 0}, -2, nil); err == nil {
		t.Error("negative origin accepted")
	}
}
