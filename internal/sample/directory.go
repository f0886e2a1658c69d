package sample

import (
	"math/rand/v2"
	"slices"

	"resilient/internal/dense"
	"resilient/internal/dist"
	"resilient/internal/msg"
)

// directoryStream salts the dedicated PCG stream the directory draws from,
// so sample draws never alias the link policy's or a machine's variate stream
// for the same run seed.
const directoryStream = 0x5a3b1ebaced15eed

// Directory holds every per-receiver sample for one run: each process's
// sorted echo and ready samples, its gossip fanout targets, and the reverse
// ("who sampled me") target lists that senders use to address their echoes
// and readies. It is drawn deterministically from (seed, Plan) via
// dist.IndexSampler — the same seed always yields the same directory, at any
// worker count, on any engine — and is immutable after construction, so one
// Directory is shared read-only by all n machines of a run.
//
// Memory is O(n·(G+E+R)) in four flat int32 arrays plus two CSR reverse
// maps: about 6 MB at n=10,000 under the default plan, versus the O(n²)
// bitsets the dense full-quorum tracker would need (~12.5 MB per node
// per phase).
type Directory struct {
	plan Plan

	// echoSamples[r*E:(r+1)*E] is receiver r's sorted echo sample.
	echoSamples []int32
	// readySamples[r*R:(r+1)*R] is receiver r's sorted ready sample.
	readySamples []int32
	// gossipTargets[p*G:(p+1)*G] is process p's gossip fanout.
	gossipTargets []int32

	// CSR reverse maps: echoTargets[echoOff[p]:echoOff[p+1]] lists the
	// receivers whose echo sample contains p (ascending), i.e. the set p
	// must send its echoes to. Likewise for readies.
	echoOff      []int32
	echoTargets  []int32
	readyOff     []int32
	readyTargets []int32
}

// NewDirectory draws the directory for plan p from the run seed.
func NewDirectory(p Plan, seed uint64) *Directory {
	rng := rand.New(rand.NewPCG(seed, seed^directoryStream))
	n := p.N
	d := &Directory{
		plan:          p,
		echoSamples:   make([]int32, 0, n*p.Echo),
		readySamples:  make([]int32, 0, n*p.Ready),
		gossipTargets: make([]int32, 0, n*p.Gossip),
	}
	sampler := dist.NewIndexSampler(n)
	// Receivers draw in id order, echo then ready then gossip, so the draw
	// sequence (and therefore every sample) is pinned by the seed alone.
	for r := 0; r < n; r++ {
		start := len(d.echoSamples)
		d.echoSamples = sampler.Draw(rng, p.Echo, d.echoSamples)
		slices.Sort(d.echoSamples[start:])

		start = len(d.readySamples)
		d.readySamples = sampler.Draw(rng, p.Ready, d.readySamples)
		slices.Sort(d.readySamples[start:])

		start = len(d.gossipTargets)
		d.gossipTargets = sampler.Draw(rng, p.Gossip, d.gossipTargets)
		slices.Sort(d.gossipTargets[start:])
	}
	d.echoOff, d.echoTargets = reverse(n, p.Echo, d.echoSamples)
	d.readyOff, d.readyTargets = reverse(n, p.Ready, d.readySamples)
	return d
}

// reverse builds the CSR transpose of the (receiver → sample member) map:
// for each process p, the ascending list of receivers that sampled p.
func reverse(n, width int, samples []int32) (off, targets []int32) {
	off = make([]int32, n+1)
	for _, m := range samples {
		off[m+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	targets = make([]int32, len(samples))
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for r := 0; r < n; r++ {
		for _, m := range samples[r*width : (r+1)*width] {
			targets[cursor[m]] = int32(r)
			cursor[m]++
		}
	}
	return off, targets
}

// Plan returns the operating point the directory was drawn for.
func (d *Directory) Plan() Plan { return d.plan }

// EchoSample returns receiver r's sorted echo sample. The slice aliases the
// directory and must not be mutated.
func (d *Directory) EchoSample(r msg.ID) []int32 {
	e := d.plan.Echo
	return d.echoSamples[int(r)*e : (int(r)+1)*e]
}

// ReadySample returns receiver r's sorted ready sample.
func (d *Directory) ReadySample(r msg.ID) []int32 {
	w := d.plan.Ready
	return d.readySamples[int(r)*w : (int(r)+1)*w]
}

// GossipTargets returns process p's gossip fanout targets.
func (d *Directory) GossipTargets(p msg.ID) []int32 {
	g := d.plan.Gossip
	return d.gossipTargets[int(p)*g : (int(p)+1)*g]
}

// EchoTargets returns the receivers whose echo sample contains p: the
// processes p must address its echoes to. Ascending; expected length E.
func (d *Directory) EchoTargets(p msg.ID) []int32 {
	return d.echoTargets[d.echoOff[p]:d.echoOff[p+1]]
}

// ReadyTargets returns the receivers whose ready sample contains p.
func (d *Directory) ReadyTargets(p msg.ID) []int32 {
	return d.readyTargets[d.readyOff[p]:d.readyOff[p+1]]
}

// SampleIndex returns the position of sender within the sorted sample, or
// -1 when the sender was not drawn.
func SampleIndex(sample []int32, sender msg.ID) int { return dense.SortedIndex(sample, sender) }
