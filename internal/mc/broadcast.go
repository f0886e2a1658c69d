package mc

import (
	"fmt"
	"math/rand/v2"

	"resilient/internal/dist"
	"resilient/internal/sample"
	"resilient/internal/sweep"
)

// Broadcast is the sample-level Monte-Carlo experiment pinning the delivery
// claim of the sampled reliable broadcast (internal/sample): under a given
// Plan, with Faulty silent processes, what fraction of correct receivers
// fails to deliver one broadcast?
//
// Each trial redraws the whole directory — gossip fanouts, echo samples,
// ready samples — exactly as a production run draws it once, then replays
// the protocol's dataflow at sample granularity: a push-gossip reachability
// pass (Murmur), the echo-threshold test against each receiver's sample
// (Sieve), and the ready feedback/delivery fixpoint (Contagion). The
// adversary is the strongest one the delivery claim is stated against:
// Faulty processes are completely silent, so every threshold must be met
// from correct processes alone. Value consistency under equivocation is the
// analytic half of the argument (Plan's ε-consistency tail, DESIGN §13) and
// is not resampled here.
//
// Trials are deterministic per (Seed, trial) exactly like the phase-chain
// ensembles: trial t draws everything from rand.NewPCG(Seed, t).
type Broadcast struct {
	// Plan is the operating point under test.
	Plan sample.Plan
	// Faulty is the number of silent processes, occupying the highest ids
	// (samples are uniform, so the placement is irrelevant). Must be
	// between 0 and Plan.K.
	Faulty int
}

// Validate checks the experiment parameters.
func (b *Broadcast) Validate() error {
	if b.Plan.N < 2 || b.Plan.Echo < 1 {
		return fmt.Errorf("mc: broadcast needs a built plan, got %+v", b.Plan)
	}
	if b.Faulty < 0 || b.Faulty > b.Plan.K {
		return fmt.Errorf("mc: broadcast faulty=%d outside 0..k=%d", b.Faulty, b.Plan.K)
	}
	return nil
}

// broadcastTrial is one trial's outcome.
type broadcastTrial struct {
	failures  int // correct receivers that did not deliver
	unreached int // correct processes gossip never reached (diagnostic)
}

// trial replays one broadcast at sample granularity.
func (b *Broadcast) trial(rng *rand.Rand) broadcastTrial {
	p := b.Plan
	n := p.N
	correct := n - b.Faulty // ids 0..correct-1 are correct; the origin is 0
	sampler := dist.NewIndexSampler(n)
	buf := make([]int32, 0, p.Echo)

	// Murmur: push-gossip reachability. Faulty processes receive but never
	// relay. Every correct reached process (including the origin) echoes.
	reached := make([]bool, n)
	queue := make([]int32, 1, n)
	reached[0] = true
	queue[0] = 0
	for qi := 0; qi < len(queue); qi++ {
		pid := int(queue[qi])
		if pid >= correct {
			continue
		}
		buf = sampler.Draw(rng, p.Gossip, buf[:0])
		for _, t := range buf {
			if !reached[t] {
				reached[t] = true
				queue = append(queue, t)
			}
		}
	}

	// Sieve: receiver r accepts (and becomes ready) when its echo sample
	// holds at least Ê echoers.
	var out broadcastTrial
	readied := make([]bool, n)
	for r := 0; r < correct; r++ {
		if !reached[r] {
			out.unreached++
		}
		buf = sampler.Draw(rng, p.Echo, buf[:0])
		hits := 0
		for _, m := range buf {
			if int(m) < correct && reached[m] {
				hits++
			}
		}
		if hits >= p.EchoThreshold {
			readied[r] = true
		}
	}

	// Contagion: each correct receiver's ready sample is drawn once; the
	// feedback threshold propagates readies to a fixpoint, then the
	// delivery threshold is evaluated.
	samples := make([]int32, correct*p.Ready)
	for r := 0; r < correct; r++ {
		sampler.Draw(rng, p.Ready, samples[r*p.Ready:r*p.Ready:(r+1)*p.Ready])
	}
	for changed := true; changed; {
		changed = false
		for r := 0; r < correct; r++ {
			if readied[r] {
				continue
			}
			hits := 0
			for _, m := range samples[r*p.Ready : (r+1)*p.Ready] {
				if int(m) < correct && readied[m] {
					hits++
				}
			}
			if hits >= p.ReadyFeedback {
				readied[r] = true
				changed = true
			}
		}
	}
	for r := 0; r < correct; r++ {
		hits := 0
		for _, m := range samples[r*p.Ready : (r+1)*p.Ready] {
			if int(m) < correct && readied[m] {
				hits++
			}
		}
		if hits < p.ReadyDeliver {
			out.failures++
		}
	}
	return out
}

// DeliveryEnsemble summarizes a parallel ensemble of broadcast trials.
type DeliveryEnsemble struct {
	// Trials is the number of broadcasts replayed.
	Trials int
	// Receivers is the number of correct receivers evaluated per trial.
	Receivers int
	// Failures is the total number of (trial, receiver) non-deliveries.
	Failures int
	// FailureRate is Failures / (Trials·Receivers) — the empirical
	// per-(receiver, broadcast) failure probability the plan's ε bounds.
	FailureRate float64
	// MaxTrialFailures is the worst single trial.
	MaxTrialFailures int
	// Unreached is the total number of correct processes gossip failed to
	// reach (across all trials); delivery can still succeed for them via
	// their samples, so this is a diagnostic, not a failure count.
	Unreached int
}

// DeliveryRun runs opts.Trials independent broadcasts (opts.Start is
// ignored) and merges the outcomes in trial order; the result is identical
// at any worker count.
func (b *Broadcast) DeliveryRun(opts EnsembleOptions) (*DeliveryEnsemble, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	trials, err := sweep.Run(opts.Trials, opts.Workers, func(t int) (broadcastTrial, error) {
		return b.trial(opts.trialRNG(t)), nil
	})
	if err != nil {
		return nil, err
	}
	e := &DeliveryEnsemble{Trials: len(trials), Receivers: b.Plan.N - b.Faulty}
	for _, tr := range trials {
		e.Failures += tr.failures
		e.Unreached += tr.unreached
		if tr.failures > e.MaxTrialFailures {
			e.MaxTrialFailures = tr.failures
		}
	}
	e.FailureRate = float64(e.Failures) / (float64(e.Trials) * float64(e.Receivers))
	return e, nil
}
