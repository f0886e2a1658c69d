package trace

import (
	"strings"
	"sync"
	"testing"

	"resilient/internal/msg"
)

func TestEventKindNames(t *testing.T) {
	kinds := []EventKind{
		EventSend, EventDeliver, EventPhase, EventWitness,
		EventAccept, EventDecide, EventCrash, EventHalt, EventNote,
	}
	seen := make(map[string]bool)
	for _, k := range kinds {
		name := k.String()
		if strings.HasPrefix(name, "EventKind(") {
			t.Errorf("kind %d unnamed", k)
		}
		if seen[name] {
			t.Errorf("duplicate name %q", name)
		}
		seen[name] = true
	}
	if !strings.HasPrefix(EventKind(99).String(), "EventKind(") {
		t.Error("unknown kind should fall back")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Time: 1.5, Kind: EventDecide, Process: 3, Phase: 2, Value: msg.V1}
	if !strings.Contains(e.String(), "decide") {
		t.Errorf("event string %q", e.String())
	}
	e.Note = "hello"
	if !strings.Contains(e.String(), "hello") {
		t.Errorf("note missing from %q", e.String())
	}
}

func TestNop(t *testing.T) {
	Nop{}.Record(Event{}) // must not panic
}

func TestBufferCollects(t *testing.T) {
	b := NewBuffer(0)
	for i := 0; i < 5; i++ {
		b.Record(Event{Kind: EventSend, Process: msg.ID(i)})
	}
	b.Record(Event{Kind: EventDecide, Process: 9})
	if b.Len() != 6 {
		t.Fatalf("len %d", b.Len())
	}
	evs := b.Events()
	if len(evs) != 6 || evs[5].Kind != EventDecide {
		t.Fatalf("events %v", evs)
	}
	// Events returns a copy.
	evs[0].Process = 42
	if b.Events()[0].Process == 42 {
		t.Error("Events leaks internal storage")
	}
}

func TestBufferLimit(t *testing.T) {
	b := NewBuffer(3)
	for i := 0; i < 10; i++ {
		b.Record(Event{})
	}
	if b.Len() != 3 {
		t.Errorf("len %d, want 3", b.Len())
	}
}

func TestBufferConcurrent(t *testing.T) {
	b := NewBuffer(0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b.Record(Event{Kind: EventSend})
			}
		}()
	}
	wg.Wait()
	if b.Len() != 8000 {
		t.Errorf("len %d", b.Len())
	}
}
