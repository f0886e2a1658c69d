// Package trace provides structured event tracing for protocol executions.
// The runtime emits an Event at every interesting protocol step (send,
// deliver, phase advance, witness, accept, decide, crash); sinks collect or
// render them. Tracing is optional: the Nop sink makes it free.
package trace

import (
	"fmt"
	"sync"

	"resilient/internal/msg"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// EventSend records a message handed to the transport.
	EventSend EventKind = iota + 1
	// EventDeliver records a message delivered to a process.
	EventDeliver
	// EventPhase records a process advancing to a new phase.
	EventPhase
	// EventWitness records a Figure-1 witness being counted.
	EventWitness
	// EventAccept records a Figure-2 value acceptance.
	EventAccept
	// EventDecide records a process assigning its decision variable.
	EventDecide
	// EventCrash records a fail-stop death.
	EventCrash
	// EventHalt records a process completing its protocol.
	EventHalt
	// EventNote records free-form diagnostic text.
	EventNote
)

// String returns the kind's name.
func (k EventKind) String() string {
	switch k {
	case EventSend:
		return "send"
	case EventDeliver:
		return "deliver"
	case EventPhase:
		return "phase"
	case EventWitness:
		return "witness"
	case EventAccept:
		return "accept"
	case EventDecide:
		return "decide"
	case EventCrash:
		return "crash"
	case EventHalt:
		return "halt"
	case EventNote:
		return "note"
	default:
		return fmt.Sprintf("EventKind(%d)", uint8(k))
	}
}

// Event is one trace record.
type Event struct {
	Time    float64
	Kind    EventKind
	Process msg.ID
	Phase   msg.Phase
	Value   msg.Value
	Note    string
}

// String renders the event on one line.
func (e Event) String() string {
	if e.Note != "" {
		return fmt.Sprintf("t=%8.3f p%-3d %-8s phase=%-3s v=%d %s",
			e.Time, e.Process, e.Kind, e.Phase, e.Value, e.Note)
	}
	return fmt.Sprintf("t=%8.3f p%-3d %-8s phase=%-3s v=%d",
		e.Time, e.Process, e.Kind, e.Phase, e.Value)
}

// Sink receives trace events. Implementations must be safe for use from a
// single goroutine; the Buffer sink is additionally safe for concurrent use.
//
// Enabled is the hot-path fast gate: emitters that would do work just to
// build an Event (formatting a note, say) ask Enabled first and skip the
// whole Record call when it returns false. Enabled must be stable for the
// lifetime of a run; the engine caches it once per execution.
type Sink interface {
	Record(Event)
	// Enabled reports whether recorded events are observable. Sinks that
	// discard everything return false so emitters can skip Event
	// construction entirely.
	Enabled() bool
}

// Nop discards all events.
type Nop struct{}

// Record implements Sink by doing nothing.
func (Nop) Record(Event) {}

// Enabled implements Sink: a Nop sink observes nothing.
func (Nop) Enabled() bool { return false }

var _ Sink = Nop{}

// On reports whether s is a non-nil sink that observes events; it is the
// nil-tolerant form of s.Enabled() emitters use.
func On(s Sink) bool { return s != nil && s.Enabled() }

// Buffer accumulates events in memory. It is safe for concurrent use.
type Buffer struct {
	mu     sync.Mutex
	events []Event
	limit  int
}

// NewBuffer returns a buffer retaining at most limit events (0 = unlimited).
func NewBuffer(limit int) *Buffer {
	return &Buffer{limit: limit}
}

// Record implements Sink.
func (b *Buffer) Record(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.limit > 0 && len(b.events) >= b.limit {
		return
	}
	b.events = append(b.events, e)
}

// Events returns a copy of the recorded events.
func (b *Buffer) Events() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]Event, len(b.events))
	copy(out, b.events)
	return out
}

// Enabled implements Sink.
func (b *Buffer) Enabled() bool { return true }

// Len returns the number of recorded events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.events)
}

var _ Sink = (*Buffer)(nil)
