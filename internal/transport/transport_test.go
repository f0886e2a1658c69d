package transport

import (
	"errors"
	"sync"
	"testing"

	"resilient/internal/msg"
)

func TestMemBasicDelivery(t *testing.T) {
	net := NewMem(3)
	c0, err := net.Conn(0)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := net.Conn(1)
	if err := c0.Send(1, msg.Val(0, 0, msg.V1)); err != nil {
		t.Fatal(err)
	}
	got, err := c1.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != msg.V1 || got.From != 0 {
		t.Errorf("received %+v", got)
	}
}

func TestMemStampsAuthenticatedSender(t *testing.T) {
	net := NewMem(3)
	c0, _ := net.Conn(0)
	c1, _ := net.Conn(1)
	forged := msg.Val(2, 0, msg.V1) // claims to be from p2
	if err := c0.Send(1, forged); err != nil {
		t.Fatal(err)
	}
	got, _ := c1.Recv()
	if got.From != 0 {
		t.Errorf("forged sender survived: From=%d", got.From)
	}
}

func TestMemFIFOPerSender(t *testing.T) {
	net := NewMem(2)
	c0, _ := net.Conn(0)
	c1, _ := net.Conn(1)
	for i := 0; i < 100; i++ {
		if err := c0.Send(1, msg.Val(0, msg.Phase(i), msg.V0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		got, err := c1.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Phase != msg.Phase(i) {
			t.Fatalf("out of order: got %d want %d", got.Phase, i)
		}
	}
}

func TestMemSelfSend(t *testing.T) {
	net := NewMem(1)
	c, _ := net.Conn(0)
	if err := c.Send(0, msg.Val(0, 0, msg.V1)); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Recv(); err != nil || got.From != 0 {
		t.Fatalf("self delivery failed: %v %v", got, err)
	}
}

func TestMemInvalidIDs(t *testing.T) {
	net := NewMem(2)
	if _, err := net.Conn(5); err == nil {
		t.Error("out-of-range conn accepted")
	}
	if _, err := net.Conn(-1); err == nil {
		t.Error("negative conn accepted")
	}
	c, _ := net.Conn(0)
	if err := c.Send(9, msg.Message{}); err == nil {
		t.Error("out-of-range destination accepted")
	}
}

func TestMemCloseUnblocksReceivers(t *testing.T) {
	net := NewMem(2)
	c, _ := net.Conn(1)
	done := make(chan error, 1)
	go func() {
		_, err := c.Recv()
		done <- err
	}()
	c.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Errorf("recv after close: %v", err)
	}
	if err := (func() error { c2, _ := net.Conn(0); return c2.Send(1, msg.Message{}) })(); !errors.Is(err, ErrClosed) {
		t.Errorf("send to closed: %v", err)
	}
}

func TestMemNetworkCloseReleasesAll(t *testing.T) {
	net := NewMem(4)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		c, _ := net.Conn(msg.ID(i))
		wg.Add(1)
		go func(i int, c Conn) {
			defer wg.Done()
			_, errs[i] = c.Recv()
		}(i, c)
	}
	net.Close()
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("receiver %d: %v", i, err)
		}
	}
}

func TestMemDrainAfterClose(t *testing.T) {
	// Messages already buffered are still drained after close.
	net := NewMem(2)
	c0, _ := net.Conn(0)
	c1, _ := net.Conn(1)
	c0.Send(1, msg.Val(0, 7, msg.V1))
	// Close only the sender side; the receiver's box still holds data.
	c0.Close()
	if got, err := c1.Recv(); err != nil || got.Phase != 7 {
		t.Errorf("buffered message lost: %v %v", got, err)
	}
}

func TestMemConcurrentSenders(t *testing.T) {
	net := NewMem(5)
	c4, _ := net.Conn(4)
	var wg sync.WaitGroup
	const per = 500
	for s := 0; s < 4; s++ {
		c, _ := net.Conn(msg.ID(s))
		wg.Add(1)
		go func(c Conn) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := c.Send(4, msg.Val(0, 0, msg.V0)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	got := 0
	recvDone := make(chan struct{})
	go func() {
		defer close(recvDone)
		for got < 4*per {
			if _, err := c4.Recv(); err != nil {
				t.Error(err)
				return
			}
			got++
		}
	}()
	wg.Wait()
	<-recvDone
	if got != 4*per {
		t.Errorf("received %d of %d", got, 4*per)
	}
}

// TestMailboxPopZeroesVacatedSlot pins that pop clears the slot it vacates:
// re-slicing alone would leave the delivered message -- and its Payload --
// reachable through the queue's backing array.
func TestMailboxPopZeroesVacatedSlot(t *testing.T) {
	mb := newMailbox()
	for i := 0; i < 3; i++ {
		if err := mb.push(msg.Graph(0, msg.Phase(i), []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	backing := mb.queue // aliases the array pop re-slices
	for i := range backing {
		m, err := mb.pop()
		if err != nil || m.Phase != msg.Phase(i) || len(m.Payload) != 1 {
			t.Fatalf("pop %d = %+v, %v", i, m, err)
		}
		if got := backing[i]; got.Kind != 0 || got.Payload != nil || got.Phase != 0 {
			t.Fatalf("slot %d still holds %+v after pop", i, got)
		}
	}
}
