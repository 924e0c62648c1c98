package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"reflect"
	"testing"
	"time"
)

func readerOver(raw []byte) *frameReader {
	return &frameReader{br: bufio.NewReader(bytes.NewReader(raw))}
}

func TestFrameRoundTrip(t *testing.T) {
	t.Parallel()
	payload := appendHelloPayload(nil, 12345, helloFlagMux)
	raw := appendFrame(nil, frameHello, payload)
	raw = appendFrame(raw, frameHeartbeat, appendHeartbeatPayload(nil, 7, 99))

	fr := readerOver(raw)
	typ, p, err := fr.next()
	if err != nil || typ != frameHello {
		t.Fatalf("first frame: typ=%d err=%v", typ, err)
	}
	node, flags, err := parseHello(p)
	if err != nil || node != 12345 || flags != helloFlagMux {
		t.Fatalf("hello = (%d, %d, %v), want (12345, mux, nil)", node, flags, err)
	}
	typ, p, err = fr.next()
	if err != nil || typ != frameHeartbeat {
		t.Fatalf("second frame: typ=%d err=%v", typ, err)
	}
	hbNode, step, err := parseHeartbeat(p)
	if err != nil || hbNode != 7 || step != 99 {
		t.Fatalf("heartbeat = (%d, %d, %v), want (7, 99, nil)", hbNode, step, err)
	}
	if _, _, err := fr.next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want EOF", err)
	}
}

func TestFrameCRCMismatchIsMalformed(t *testing.T) {
	t.Parallel()
	raw := appendFrame(nil, frameHeartbeat, appendHeartbeatPayload(nil, 1, 2))
	raw[5] ^= 0xFF // corrupt the payload; CRC no longer matches
	if _, _, err := readerOver(raw).next(); !errors.Is(err, errMalformed) {
		t.Fatalf("corrupted frame: %v, want errMalformed", err)
	}
}

func TestFrameLengthGuard(t *testing.T) {
	t.Parallel()
	for _, n := range []uint32{0, maxFrameBytes + 1} {
		raw := []byte{byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
		if _, _, err := readerOver(raw).next(); !errors.Is(err, errMalformed) {
			t.Fatalf("length %d: %v, want errMalformed", n, err)
		}
	}
}

func batchFixture() []Measurement {
	return []Measurement{
		{Node: 0, Step: 1, Values: []float64{0.25, -1.5}},
		{Node: 0, Step: 3, Values: []float64{math.Pi, math.Inf(1)}},
		{Node: 0, Step: 7, Values: []float64{0}},
	}
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	t.Parallel()
	for _, compress := range []bool{false, true} {
		enc := &batchEncoder{compress: compress}
		payload, err := enc.encode(9, batchFixture())
		if err != nil {
			t.Fatal(err)
		}
		var dec batchDecoder
		localStep, recs, err := dec.decode(payload)
		if err != nil {
			t.Fatalf("compress=%v: %v", compress, err)
		}
		if localStep != 9 {
			t.Fatalf("compress=%v: localStep %d, want 9", compress, localStep)
		}
		if !reflect.DeepEqual(recs, batchFixture()) {
			t.Fatalf("compress=%v: records %+v", compress, recs)
		}
	}
}

func TestBatchEncoderReusableAcrossFlushes(t *testing.T) {
	t.Parallel()
	enc := &batchEncoder{compress: true}
	var dec batchDecoder
	for i := 1; i <= 5; i++ {
		payload, err := enc.encode(i, batchFixture())
		if err != nil {
			t.Fatal(err)
		}
		step, recs, err := dec.decode(payload)
		if err != nil || step != i || len(recs) != 3 {
			t.Fatalf("flush %d: step=%d len=%d err=%v", i, step, len(recs), err)
		}
	}
}

// TestBatchDecodeHostileDimsDoesNotPanic pins the overflow guard: a
// CRC-valid record claiming a dims near MaxInt must be rejected as
// malformed, not overflow 8*dims past the truncation check and panic the
// collector in make([]float64, dims).
func TestBatchDecodeHostileDimsDoesNotPanic(t *testing.T) {
	t.Parallel()
	payload := []byte{0}                                   // flags: uncompressed
	payload = binary.AppendUvarint(payload, 0)             // localStep
	payload = binary.AppendUvarint(payload, 1)             // count
	payload = binary.AppendUvarint(payload, 1)             // node
	payload = binary.AppendUvarint(payload, 1)             // step
	payload = binary.AppendUvarint(payload, uint64(1)<<61) // hostile dims
	payload = append(payload, make([]byte, 16)...)         // a little "data"
	var dec batchDecoder
	if _, _, err := dec.decode(payload); !errors.Is(err, errMalformed) {
		t.Fatalf("hostile dims: %v, want errMalformed", err)
	}
}

func TestServerV2SpoofedNodeDropped(t *testing.T) {
	t.Parallel()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialBatch(addr, 1, BatchOptions{Linger: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Non-mux connection refuses foreign nodes client-side already…
	if err := c.SendNode(2, 1, []float64{1}); !errors.Is(err, ErrProtocol) {
		t.Fatalf("client-side spoof: %v, want ErrProtocol", err)
	}
	// …so forge the frame at the wire level to exercise the server check.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := append([]byte(nil), magicV2[:]...)
	raw = appendFrame(raw, frameHello, appendHelloPayload(nil, 1, 0))
	enc := &batchEncoder{}
	payload, err := enc.encode(0, []Measurement{{Node: 2, Step: 1, Values: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	raw = appendFrame(raw, frameBatch, payload)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	// The server must drop the connection and count a protocol error.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close after spoofed batch record")
	}
	if store.Len() != 0 {
		t.Fatal("spoofed measurement stored")
	}
	waitFor(t, func() bool { return srv.ProtocolErrors() >= 1 }, 2*time.Second,
		"protocol error not counted")
}

func TestServerV2CorruptFrameCountsProtocolError(t *testing.T) {
	t.Parallel()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	raw := append([]byte(nil), magicV2[:]...)
	raw = appendFrame(raw, frameHello, appendHelloPayload(nil, 4, 0))
	frame := appendFrame(nil, frameHeartbeat, appendHeartbeatPayload(nil, 4, 10))
	frame[len(frame)-1] ^= 0x55 // corrupt the CRC trailer
	raw = append(raw, frame...)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close after corrupt frame")
	}
	waitFor(t, func() bool { return srv.ProtocolErrors() >= 1 }, 2*time.Second,
		"protocol error not counted")
}

// TestFleetMatchesSerialStore: two batched agents on different cadences —
// one that only ever sends, one that also advances its clock through
// suppressed steps — share one collector, and the store must end up exactly
// as if every measurement had been applied serially.
func TestFleetMatchesSerialStore(t *testing.T) {
	t.Parallel()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const steps = 50
	want := NewStore() // serial expectation, fed directly

	var clients [2]*BatchClient
	for n := range clients {
		clients[n], err = DialBatch(addr, n, BatchOptions{BatchSize: 8, Linger: 2 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
	}

	for step := 1; step <= steps; step++ {
		val0 := []float64{float64(step) / steps, 0.5}
		val1 := []float64{1 - float64(step)/steps, 0.25}
		if step%2 == 1 { // node 0 transmits odd steps and never advances
			if err := clients[0].Send(step, val0); err != nil {
				t.Fatal(err)
			}
			want.Apply(Measurement{Node: 0, Step: step, Values: append([]float64(nil), val0...)})
		}
		if step%3 == 0 { // node 1 transmits every third step
			if err := clients[1].Send(step, val1); err != nil {
				t.Fatal(err)
			}
			want.Apply(Measurement{Node: 1, Step: step, Values: append([]float64(nil), val1...)})
		}
		clients[1].Advance(step)
		want.Advance(1, step)
	}
	for _, c := range clients {
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	waitFor(t, func() bool {
		got := store.Stats()
		return len(got) == 2 && got[1].LocalStep == steps &&
			got[0].Latest.Step == want.Stats()[0].Latest.Step &&
			got[1].Updates == want.Stats()[1].Updates
	}, 5*time.Second, "fleet never converged")

	// Node 0's clock only advanced with its measurements — the last odd
	// step — node 1's through every step; both match the serial store.
	if got, exp := store.Stats(), want.Stats(); !reflect.DeepEqual(got, exp) {
		t.Fatalf("store stats\n got %+v\nwant %+v", got, exp)
	}
	if n := srv.ProtocolErrors(); n != 0 {
		t.Fatalf("%d protocol errors in a clean run", n)
	}
}

func TestMuxConnectionCarriesManyNodes(t *testing.T) {
	t.Parallel()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialBatch(addr, 0, BatchOptions{Mux: true, BatchSize: 16, Linger: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	const nodes = 40
	for n := 0; n < nodes; n++ {
		if err := c.SendNode(n, 5, []float64{float64(n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Mux batch headers carry no clock (ambiguous across nodes); the hello
	// node's clock must still arrive via a heartbeat after the batches.
	c.Advance(9)
	waitFor(t, func() bool { return store.Stats()[0].LocalStep == 9 }, 5*time.Second,
		"mux clock advance never reached the collector")
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return store.Len() == nodes }, 5*time.Second,
		"mux records never all arrived")
	for n := 0; n < nodes; n++ {
		m, ok := store.Latest(n)
		if !ok || m.Step != 5 || m.Values[0] != float64(n) {
			t.Fatalf("node %d: %+v ok=%v", n, m, ok)
		}
	}
	if n := srv.ProtocolErrors(); n != 0 {
		t.Fatalf("%d protocol errors on a clean mux run", n)
	}
}

// TestServerIdleTimeoutDropsSilentConn is the half-open-connection
// regression: a client that connects and then goes silent must be dropped
// after the idle timeout, releasing its goroutine and fd (Server.Close
// waits on the handler WaitGroup, so a leaked goroutine would hang it).
func TestServerIdleTimeoutDropsSilentConn(t *testing.T) {
	t.Parallel()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetIdleTimeout(100 * time.Millisecond)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c, err := DialBatch(addr, 1, BatchOptions{Linger: time.Hour}) // no heartbeats
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// The connection said hello and then went silent; within a few idle
	// windows the server must have dropped it.
	waitFor(t, func() bool {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.conns) == 0
	}, 10*time.Second, "silent connection never dropped")
	if n := srv.ProtocolErrors(); n != 0 {
		t.Fatalf("idle drop counted as %d protocol errors", n)
	}
}

func TestStoreAdvanceDrivesEq5Denominator(t *testing.T) {
	t.Parallel()
	s := NewStore()
	s.Apply(Measurement{Node: 1, Step: 2, Values: []float64{0.2}})
	s.Apply(Measurement{Node: 1, Step: 5, Values: []float64{0.5}})
	// The node sampled through step 20 but the policy suppressed
	// everything after step 5; the clock must still advance.
	s.Advance(1, 20)
	s.Advance(1, 10) // regressions ignored
	st := s.Stats()[1]
	if st.LocalStep != 20 {
		t.Fatalf("LocalStep %d, want 20", st.LocalStep)
	}
	if st.Updates != 2 || st.Frequency != 0.1 {
		t.Fatalf("stats %+v, want 2 updates, frequency 0.1 (eq. 5: 2/20)", st)
	}
	if m, _ := s.Latest(1); m.Step != 5 {
		t.Fatalf("Advance must not fabricate measurements; latest step %d", m.Step)
	}
}
