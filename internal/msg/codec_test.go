package msg

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

func sampleMessages() []Message {
	return []Message{
		State(0, 0, V0, 1),
		State(999, 12345, V1, 67),
		Val(3, 2, V1),
		Initial(5, WildcardPhase, V1),
		Echo(1, 7, WildcardPhase, V0),
		BenOrReport(2, 8, V1),
		BenOrProposal(2, 8, V0, true),
		Graph(6, 3, []byte{0xde, 0xad, 0xbe, 0xef}),
		Graph(6, 3, nil),
		Graph(1, 1, bytes.Repeat([]byte{0xab}, 9000)),
	}
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	for _, m := range sampleMessages() {
		fresh := Encode(m)
		appended := AppendEncode([]byte("prefix"), m)
		if !bytes.Equal(appended[:6], []byte("prefix")) {
			t.Fatalf("%v: prefix clobbered", m)
		}
		if !bytes.Equal(appended[6:], fresh) {
			t.Errorf("%v: AppendEncode differs from Encode", m)
		}
		if len(fresh) != EncodedLen(m) {
			t.Errorf("%v: EncodedLen %d != actual %d", m, EncodedLen(m), len(fresh))
		}
	}
}

func TestAppendEncodeReusesCapacity(t *testing.T) {
	m := State(1, 2, V1, 3)
	buf := make([]byte, 0, 256)
	out := AppendEncode(buf, m)
	if &out[0] != &buf[:1][0] {
		t.Error("AppendEncode reallocated despite sufficient capacity")
	}
}

// frameStream length-prefixes each message encoding, the Decoder's input
// shape.
func frameStream(msgs []Message) []byte {
	var stream []byte
	for _, m := range msgs {
		stream = AppendFrame(stream, Encode(m))
	}
	return stream
}

func normalizePayload(m Message) Message {
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	return m
}

func TestDecoderRoundTrip(t *testing.T) {
	msgs := sampleMessages()
	dec := NewDecoder(bytes.NewReader(frameStream(msgs)))
	for i, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizePayload(got), normalizePayload(want)) {
			t.Errorf("frame %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := dec.Decode(); err != io.EOF {
		t.Errorf("clean end: got %v, want io.EOF", err)
	}
}

// drip delivers one byte per Read, exercising the Decoder's refill loop.
type drip struct{ data []byte }

func (d *drip) Read(p []byte) (int, error) {
	if len(d.data) == 0 {
		return 0, io.EOF
	}
	p[0] = d.data[0]
	d.data = d.data[1:]
	return 1, nil
}

func TestDecoderBytewiseReads(t *testing.T) {
	msgs := sampleMessages()
	dec := NewDecoder(&drip{data: frameStream(msgs)})
	for i, want := range msgs {
		got, err := dec.Decode()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalizePayload(got), normalizePayload(want)) {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

// flushReader hands a stream to the Decoder one writer flush at a time, like
// a socket whose peer writes coalesced batches: a Read returns at most the
// rest of the current flush. It counts its Read calls.
type flushReader struct {
	flushes [][]byte
	reads   int
}

func (r *flushReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.flushes) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.flushes[0])
	if r.flushes[0] = r.flushes[0][n:]; len(r.flushes[0]) == 0 {
		r.flushes = r.flushes[1:]
	}
	return n, nil
}

// TestDecoderReadsOncePerFlush pins the drained-buffer rewind: once every
// buffered frame is consumed, the next Read must get the whole buffer, not
// the tail the last frame ended at, so a flush that fits the buffer arrives
// in one Read. Without the rewind, these 351-byte flushes took 2,172 Reads
// for 2,000.
func TestDecoderReadsOncePerFlush(t *testing.T) {
	const flushes, perFlush = 2000, 13
	flush := bytes.Repeat(frameStream([]Message{Echo(3, 7, 2, V1)}), perFlush)
	r := &flushReader{}
	for i := 0; i < flushes; i++ {
		r.flushes = append(r.flushes, flush) // Read reslices, never writes
	}
	dec := NewDecoder(r)
	for i := 0; i < flushes*perFlush; i++ {
		if _, err := dec.Decode(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if r.reads != flushes {
		t.Errorf("%d Read calls for %d flushes of %d bytes, want one per flush",
			r.reads, flushes, len(flush))
	}
}

func TestDecoderTruncation(t *testing.T) {
	stream := frameStream([]Message{State(1, 2, V1, 3)})
	for cut := 1; cut < len(stream); cut++ {
		dec := NewDecoder(bytes.NewReader(stream[:cut]))
		if _, err := dec.Decode(); err != io.ErrUnexpectedEOF {
			t.Errorf("cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestDecoderHostileLengthPrefix(t *testing.T) {
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	dec := NewDecoder(bytes.NewReader(hostile))
	if _, err := dec.Decode(); err != ErrFrameTooLarge {
		t.Errorf("hostile prefix: got %v, want ErrFrameTooLarge", err)
	}
	// One byte over the limit is rejected before any frame bytes are read.
	over := AppendFrame(nil, make([]byte, MaxFrame+1))
	dec = NewDecoder(bytes.NewReader(over))
	if _, err := dec.Decode(); err != ErrFrameTooLarge {
		t.Errorf("oversize frame: got %v, want ErrFrameTooLarge", err)
	}
}

func TestDecoderMalformedFrameDoesNotDesync(t *testing.T) {
	good := State(1, 2, V1, 3)
	bad := Encode(good)
	bad[0] = 0xFF // invalid kind
	stream := AppendFrame(nil, bad)
	stream = AppendFrame(stream, Encode(good))
	dec := NewDecoder(bytes.NewReader(stream))
	if _, err := dec.Decode(); err != ErrBadKind {
		t.Fatalf("bad frame: got %v, want ErrBadKind", err)
	}
	// The bad frame was consumed whole; the next frame decodes cleanly.
	got, err := dec.Decode()
	if err != nil {
		t.Fatalf("frame after bad one: %v", err)
	}
	if got.Kind != KindState || got.Cardinality != 3 {
		t.Errorf("desynced: %+v", got)
	}
}

func TestDecoderSteadyStateAllocs(t *testing.T) {
	msgs := []Message{Val(1, 2, V0), Echo(1, 2, 3, V1), State(0, 1, V1, 4)}
	stream := frameStream(msgs)
	var loop []byte
	for i := 0; i < 200; i++ {
		loop = append(loop, stream...)
	}
	dec := NewDecoder(bytes.NewReader(loop))
	// Warm the internal buffer.
	for i := 0; i < len(msgs)*100; i++ {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := dec.Decode(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("steady-state Decode allocates %.1f times per payload-free message, want 0", allocs)
	}
}
