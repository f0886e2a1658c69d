package sample

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"resilient/internal/core"
	"resilient/internal/machinetest"
	"resilient/internal/msg"
)

// hostileEchoes returns a shuffled echo stream addressed to receiver self
// about origin's broadcast: one echo from every member of self's echo
// sample, V1 with probability bias, plus the noise a Byzantine sender can
// add -- the same members again with the value flipped, senders outside the
// sample, ids below 0 and at or above n, other subjects, non-zero and
// wildcard phases, and malformed values.
func hostileEchoes(rng *rand.Rand, dir *Directory, self, origin msg.ID, bias float64) []msg.Message {
	n := dir.Plan().N
	sample := dir.EchoSample(self)
	var stream []msg.Message
	add := func(from, subject msg.ID, p msg.Phase, v msg.Value) {
		stream = append(stream, msg.Echo(from, subject, p, v))
	}
	for _, s := range sample {
		v := msg.V0
		if rng.Float64() < bias {
			v = msg.V1
		}
		add(msg.ID(s), origin, 0, v)
		if rng.IntN(3) == 0 {
			add(msg.ID(s), origin, 0, 1-v) // duplicate, value flipped
		}
		if rng.IntN(3) == 0 {
			add(msg.ID(s), origin, msg.Phase(1+rng.IntN(5)), v)
		}
	}
	for i := 0; i < len(sample); i++ {
		v := msg.Value(rng.IntN(2))
		switch rng.IntN(7) {
		case 0:
			if id := msg.ID(rng.IntN(n)); SampleIndex(sample, id) < 0 {
				add(id, origin, 0, v) // a process outside the sample
			}
		case 1:
			add(msg.ID(-1-rng.IntN(3)), origin, 0, v)
		case 2:
			add(msg.ID(n+rng.IntN(3)), origin, 0, v)
		case 3:
			subject := msg.ID(rng.IntN(n+2) - 1)
			if subject != origin {
				add(msg.ID(sample[rng.IntN(len(sample))]), subject, 0, v)
			}
		case 4:
			add(msg.ID(sample[rng.IntN(len(sample))]), origin, msg.WildcardPhase, v)
		case 5:
			add(msg.ID(sample[rng.IntN(len(sample))]), origin, 0, msg.Value(2+rng.IntN(254)))
		case 6:
			add(msg.ID(sample[rng.IntN(len(sample))]), origin, msg.Phase(rng.IntN(9)), v)
		}
	}
	rng.Shuffle(len(stream), func(i, j int) { stream[i], stream[j] = stream[j], stream[i] })
	return stream
}

// echoStageMatchesTracker delivers stream to a fresh Machine for receiver
// self and to a fresh Tracker for the same receiver and directory. The
// tracker sees every echo at phase 0, the broadcast's only phase, since the
// machine does not read an echo's phase. The machine must send its
// ready at exactly the step where the tracker first accepts origin's
// broadcast, with the tracker's value, and at no other step. It returns that
// step and value, or step -1 if neither ever accepted.
func echoStageMatchesTracker(dir *Directory, self, origin msg.ID, stream []msg.Message) (int, msg.Value, error) {
	p := dir.Plan()
	m, err := NewMachine(core.Config{N: p.N, K: p.K, Self: self, Input: msg.V0}, dir, origin, nil)
	if err != nil {
		return 0, 0, err
	}
	tr := NewTracker(dir, self)
	m.Start()
	step, value := -1, msg.V0
	for i, in := range stream {
		var sent []msg.Value
		for _, o := range m.OnMessage(in) {
			if o.Msg.Kind == msg.KindReady {
				sent = append(sent, o.Msg.Value)
			}
		}
		acc, ok := tr.Observe(in.From, in.Subject, 0, in.Value)
		ok = ok && acc.Subject == origin
		switch {
		case ok && (len(sent) != 1 || sent[0] != acc.Value):
			return 0, 0, fmt.Errorf("step %d (%+v): tracker accepted %d, machine sent readies %v", i, in, acc.Value, sent)
		case !ok && len(sent) > 0:
			return 0, 0, fmt.Errorf("step %d (%+v): machine sent readies %v, tracker did not accept", i, in, sent)
		case ok:
			step, value = i, acc.Value
		}
	}
	return step, value, nil
}

// TestMachineEchoStageMatchesTracker pins the in-place echo count against
// the receiver's sampled echo.Tracker: on hostile streams over several
// plans and biases, the machine readies exactly when and as the tracker
// accepts. Across the runs both values must get accepted and some streams
// must never reach Ê, so all three outcomes are compared.
func TestMachineEchoStageMatchesTracker(t *testing.T) {
	accepted := map[int]int{} // -1: never, else the value
	for _, pc := range []struct {
		n, k int
		eps  float64
	}{{120, 12, 1e-2}, {1000, 100, DefaultEps}, {10, 3, 1e-9}} {
		p := mustPlan(t, pc.n, pc.k, pc.eps)
		for seed := uint64(0); seed < 8; seed++ {
			dir := NewDirectory(p, seed)
			rng := rand.New(rand.NewPCG(seed, 0x5eed))
			self, origin := msg.ID(rng.IntN(p.N)), msg.ID(rng.IntN(p.N))
			for _, bias := range []float64{0, 0.15, 0.5, 0.85, 1} {
				stream := hostileEchoes(rng, dir, self, origin, bias)
				step, v, err := echoStageMatchesTracker(dir, self, origin, stream)
				if err != nil {
					t.Fatalf("%v seed=%d bias=%g: %v", p, seed, bias, err)
				}
				if step < 0 {
					accepted[-1]++
				} else {
					accepted[int(v)]++
				}
			}
		}
	}
	if accepted[-1] == 0 || accepted[0] == 0 || accepted[1] == 0 {
		t.Fatalf("streams did not cover every outcome: %v", accepted)
	}
}

// hostile forwards machinetest's stream to a broadcast machine, bent toward
// the inputs that reach its counters -- most messages claim to be about the
// broadcast's origin, and some senders lie outside 0..n-1 -- and counts the
// gossip relays and readies the machine sends.
type hostile struct {
	*Machine
	rng             *rand.Rand
	relays, readies int
}

func (h *hostile) Start() []core.Outbound { return h.count(h.Machine.Start()) }

func (h *hostile) OnMessage(in msg.Message) []core.Outbound {
	if h.rng.IntN(4) != 0 {
		in.Subject = h.origin
	}
	switch h.rng.IntN(10) {
	case 0:
		in.From = msg.ID(-1 - h.rng.IntN(3))
	case 1:
		in.From = msg.ID(h.cfg.N + h.rng.IntN(3))
	}
	return h.count(h.Machine.OnMessage(in))
}

func (h *hostile) count(outs []core.Outbound) []core.Outbound {
	for _, o := range outs {
		switch o.Msg.Kind {
		case msg.KindGossip:
			h.relays++
		case msg.KindReady:
			h.readies++
		}
	}
	return outs
}

// FuzzMachine is the native fuzz entry point (CI runs it with -fuzztime): a
// sampled-broadcast machine under mutated plans and hostile streams. The
// machinetest invariants must hold on a mixed stream of every kind -- a
// machine relays once, readies once and never sends after it halts -- and
// on an echo-only stream the machine must ready exactly when the receiver's
// sampled tracker accepts.
func FuzzMachine(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint8(3), uint8(0), uint8(5), uint8(128))
	f.Add(uint64(42), uint8(200), uint8(30), uint8(7), uint8(7), uint8(255))
	f.Add(uint64(7), uint8(9), uint8(1), uint8(3), uint8(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, kRaw, selfRaw, originRaw, biasRaw uint8) {
		n := 4 + int(nRaw)
		k := int(kRaw) % ((n-1)/3 + 1)
		p, err := NewPlan(n, k, DefaultEps)
		if err != nil {
			t.Fatalf("plan n=%d k=%d rejected: %v", n, k, err)
		}
		dir := NewDirectory(p, seed)
		self, origin := msg.ID(int(selfRaw)%n), msg.ID(int(originRaw)%n)
		m, err := NewMachine(core.Config{N: n, K: k, Self: self, Input: msg.Value(seed % 2)}, dir, origin, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, 0xf16e))
		h := &hostile{Machine: m, rng: rng}
		opts := machinetest.Options{
			N: n, Steps: 600, MaxPhase: 4,
			Kinds: []msg.Kind{msg.KindGossip, msg.KindEcho, msg.KindReady, msg.KindInitial},
		}
		if err := machinetest.Fuzz(h, rng, opts); err != nil {
			t.Fatalf("seed %d (n=%d k=%d self=%d origin=%d): %v", seed, n, k, self, origin, err)
		}
		if h.relays > 1 || h.readies > 1 {
			t.Fatalf("seed %d: relayed %d times, readied %d times", seed, h.relays, h.readies)
		}
		stream := hostileEchoes(rng, dir, self, origin, float64(biasRaw)/255)
		if _, _, err := echoStageMatchesTracker(dir, self, origin, stream); err != nil {
			t.Fatalf("seed %d (n=%d k=%d self=%d origin=%d): %v", seed, n, k, self, origin, err)
		}
	})
}
