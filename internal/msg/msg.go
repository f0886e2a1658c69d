// Package msg defines the messages exchanged by every protocol in this
// repository: the fail-stop protocol of Figure 1, the malicious-case
// echo protocol of Figure 2 (including its post-decision wildcard messages),
// the Section 4.1 majority variant, the Ben-Or baseline, and the Section 5
// weak-bivalence protocol.
//
// A single Message struct carries all protocols; the Kind discriminates.
// Messages are plain values -- they are copied freely and never shared
// between goroutines after being handed to a transport.
package msg

import (
	"fmt"
	"slices"
)

// ID identifies a process. Processes in an n-process system are numbered
// 0..n-1.
type ID int32

// SortedIDs returns the keys of m in ascending order, so that a walk over a
// per-process map -- and the first error such a walk reports -- is the same
// on every run.
func SortedIDs[V any](m map[ID]V) []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// Broadcast is a pseudo-destination meaning "send to all n processes
// (including the sender)", matching the paper's "for all q, 1 <= q <= n".
const Broadcast ID = -1

// Multicast is a pseudo-destination meaning "send to the outbound's target
// list, in list order" (core.ToMany): the addressing of the sampled broadcast
// scheme, whose gossip, echo and ready sets are fixed per process.
const Multicast ID = -2

// Value is a binary consensus value. The paper's protocols agree on a value
// in {0, 1}.
type Value uint8

const (
	// V0 is consensus value 0.
	V0 Value = 0
	// V1 is consensus value 1.
	V1 Value = 1
)

// Other returns the complementary binary value.
func (v Value) Other() Value {
	if v == V0 {
		return V1
	}
	return V0
}

// Valid reports whether v is a legal binary value.
func (v Value) Valid() bool { return v == V0 || v == V1 }

// Phase is a protocol phase number. WildcardPhase is the paper's "*" phase
// used by decided Figure-2 processes: it matches the receiver's current phase
// and re-matches every later phase.
type Phase int32

// WildcardPhase is the "*" of Section 3.3: a message that matches every
// phase from the receiver's current one onward.
const WildcardPhase Phase = -1

// IsWildcard reports whether p is the "*" phase.
func (p Phase) IsWildcard() bool { return p == WildcardPhase }

// Kind discriminates the protocol message families.
type Kind uint8

const (
	// KindState is the (phaseno, value, cardinality) state message of the
	// Figure 1 fail-stop protocol.
	KindState Kind = iota + 1
	// KindValue is the bare value message of the Section 4.1 majority
	// variant.
	KindValue
	// KindInitial is the (initial, p, value, phaseno) message of Figure 2.
	KindInitial
	// KindEcho is the (echo, q, value, phaseno) message of Figure 2.
	// Subject holds q, the process whose initial message is echoed.
	KindEcho
	// KindBenOrReport is the first-step report message of a Ben-Or round.
	KindBenOrReport
	// KindBenOrProposal is the second-step proposal message of a Ben-Or
	// round. Bot marks the "?" (no proposal) form.
	KindBenOrProposal
	// KindGraph carries the knowledge sets of the Section 5 weak-bivalence
	// protocol (inputs heard and adjacency information) in Payload.
	KindGraph
	// KindGossip is the dissemination message of the sample-based reliable
	// broadcast (Guerraoui et al., arXiv 1908.01738): a relayed copy of the
	// origin's payload. Subject holds the origin; From is the relayer.
	KindGossip
	// KindReady is the totality-amplification message of the sample-based
	// reliable broadcast. Subject holds the origin whose value the sender
	// is ready to deliver.
	KindReady
)

// String returns a short name for the kind.
func (k Kind) String() string {
	switch k {
	case KindState:
		return "state"
	case KindValue:
		return "value"
	case KindInitial:
		return "initial"
	case KindEcho:
		return "echo"
	case KindBenOrReport:
		return "report"
	case KindBenOrProposal:
		return "proposal"
	case KindGraph:
		return "graph"
	case KindGossip:
		return "gossip"
	case KindReady:
		return "ready"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool {
	return k >= KindState && k <= KindReady
}

// Message is the single wire unit exchanged by all protocols.
//
// From is the authenticated sender: transports stamp it, so a malicious
// process cannot forge another process's identity (the Section 3.1
// requirement). Subject is protocol-dependent: for KindEcho it is the
// process whose initial message is being echoed; other kinds leave it equal
// to From.
type Message struct {
	Kind        Kind   `json:"kind"`
	From        ID     `json:"from"`
	Subject     ID     `json:"subject"`
	Phase       Phase  `json:"phase"`
	Value       Value  `json:"value"`
	Cardinality int32  `json:"cardinality,omitempty"`
	Bot         bool   `json:"bot,omitempty"`
	Payload     []byte `json:"payload,omitempty"`
}

// State builds a Figure-1 state message.
func State(from ID, phase Phase, v Value, cardinality int) Message {
	return Message{
		Kind:        KindState,
		From:        from,
		Subject:     from,
		Phase:       phase,
		Value:       v,
		Cardinality: int32(cardinality),
	}
}

// Val builds a Section-4.1 majority-variant value message.
func Val(from ID, phase Phase, v Value) Message {
	return Message{Kind: KindValue, From: from, Subject: from, Phase: phase, Value: v}
}

// Initial builds a Figure-2 initial message.
func Initial(from ID, phase Phase, v Value) Message {
	return Message{Kind: KindInitial, From: from, Subject: from, Phase: phase, Value: v}
}

// Echo builds a Figure-2 echo of subject's initial message.
func Echo(from, subject ID, phase Phase, v Value) Message {
	return Message{Kind: KindEcho, From: from, Subject: subject, Phase: phase, Value: v}
}

// BenOrReport builds a Ben-Or first-step report.
func BenOrReport(from ID, round Phase, v Value) Message {
	return Message{Kind: KindBenOrReport, From: from, Subject: from, Phase: round, Value: v}
}

// BenOrProposal builds a Ben-Or second-step proposal; bot marks the "?" form.
func BenOrProposal(from ID, round Phase, v Value, bot bool) Message {
	return Message{Kind: KindBenOrProposal, From: from, Subject: from, Phase: round, Value: v, Bot: bot}
}

// Graph builds a Section-5 knowledge message with an opaque payload.
func Graph(from ID, round Phase, payload []byte) Message {
	return Message{Kind: KindGraph, From: from, Subject: from, Phase: round, Payload: payload}
}

// Gossip builds a sample-broadcast dissemination message relaying origin's
// value.
func Gossip(from, origin ID, phase Phase, v Value) Message {
	return Message{Kind: KindGossip, From: from, Subject: origin, Phase: phase, Value: v}
}

// Ready builds a sample-broadcast ready message for origin's value.
func Ready(from, origin ID, phase Phase, v Value) Message {
	return Message{Kind: KindReady, From: from, Subject: origin, Phase: phase, Value: v}
}

// String renders the message in the paper's tuple notation.
func (m Message) String() string {
	switch m.Kind {
	case KindState:
		return fmt.Sprintf("(%s, p%d, phase=%s, v=%d, card=%d)",
			m.Kind, m.From, m.Phase, m.Value, m.Cardinality)
	case KindEcho, KindGossip, KindReady:
		return fmt.Sprintf("(%s, from=p%d, subject=p%d, v=%d, phase=%s)",
			m.Kind, m.From, m.Subject, m.Value, m.Phase)
	case KindBenOrProposal:
		if m.Bot {
			return fmt.Sprintf("(proposal, p%d, round=%s, ?)", m.From, m.Phase)
		}
		return fmt.Sprintf("(proposal, p%d, round=%s, v=%d)", m.From, m.Phase, m.Value)
	default:
		return fmt.Sprintf("(%s, p%d, v=%d, phase=%s)", m.Kind, m.From, m.Value, m.Phase)
	}
}

// String renders a phase, using "*" for the wildcard.
func (p Phase) String() string {
	if p.IsWildcard() {
		return "*"
	}
	return fmt.Sprintf("%d", int32(p))
}

// Clone returns a deep copy of the message (the payload is copied).
func (m Message) Clone() Message {
	c := m
	if m.Payload != nil {
		c.Payload = make([]byte, len(m.Payload))
		copy(c.Payload, m.Payload)
	}
	return c
}
