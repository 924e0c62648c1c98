package transport

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestStoreKeepsNewestStep(t *testing.T) {
	t.Parallel()
	s := NewStore()
	s.Apply(Measurement{Node: 1, Step: 5, Values: []float64{0.5}})
	s.Apply(Measurement{Node: 1, Step: 3, Values: []float64{0.3}}) // stale
	m, ok := s.Latest(1)
	if !ok || m.Step != 5 || m.Values[0] != 0.5 {
		t.Fatalf("latest = %+v ok=%v, want step 5", m, ok)
	}
	s.Apply(Measurement{Node: 1, Step: 9, Values: []float64{0.9}})
	m, _ = s.Latest(1)
	if m.Step != 9 {
		t.Fatalf("latest step = %d, want 9", m.Step)
	}
	if _, ok := s.Latest(2); ok {
		t.Fatal("unknown node should not be present")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestStoreSnapshotIsCopy(t *testing.T) {
	t.Parallel()
	s := NewStore()
	s.Apply(Measurement{Node: 1, Step: 1, Values: []float64{1}})
	snap := s.Snapshot()
	delete(snap, 1)
	if s.Len() != 1 {
		t.Fatal("snapshot deletion affected store")
	}
}

func TestServerClientRoundTrip(t *testing.T) {
	t.Parallel()
	store := NewStore()
	var mu sync.Mutex
	var got []Measurement
	srv, err := NewServer(store, func(m Measurement) {
		mu.Lock()
		got = append(got, m)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const nodes = 5
	const perNode = 20
	var wg sync.WaitGroup
	for n := 0; n < nodes; n++ {
		n := n
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := DialBatch(addr, n, BatchOptions{BatchSize: 8})
			if err != nil {
				t.Errorf("dial node %d: %v", n, err)
				return
			}
			defer c.Close()
			for step := 1; step <= perNode; step++ {
				if err := c.Send(step, []float64{float64(n) + float64(step)/100}); err != nil {
					t.Errorf("send node %d: %v", n, err)
					return
				}
			}
			if err := c.Flush(); err != nil {
				t.Errorf("flush node %d: %v", n, err)
			}
		}()
	}
	wg.Wait()

	// Wait for the server to drain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == nodes*perNode {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("received %d messages, want %d", n, nodes*perNode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if store.Len() != nodes {
		t.Fatalf("store has %d nodes, want %d", store.Len(), nodes)
	}
	for n := 0; n < nodes; n++ {
		m, ok := store.Latest(n)
		if !ok || m.Step != perNode {
			t.Fatalf("node %d latest %+v", n, m)
		}
	}
}

func TestServerRejectsMeasurementBeforeHello(t *testing.T) {
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
	// A batch frame first: protocol violation, the server must drop us.
	enc := &batchEncoder{}
	payload, err := enc.encode(1, []Measurement{{Node: 1, Step: 1, Values: []float64{1}}})
	if err != nil {
		t.Fatal(err)
	}
	raw := appendFrame(append([]byte(nil), magicV2[:]...), frameBatch, payload)
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	// The connection should be closed by the server shortly.
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close after protocol violation")
	}
	if store.Len() != 0 {
		t.Fatal("violating measurement must not be stored")
	}
	if n := srv.ProtocolErrors(); n != 1 {
		t.Fatalf("%d protocol errors, want 1", n)
	}
}

func TestClientSendAfterClose(t *testing.T) {
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

	c, err := DialBatch(addr, 0, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := c.Send(1, []float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: want ErrClosed, got %v", err)
	}
}

func TestServerCloseIdempotentAndRefusesListen(t *testing.T) {
	t.Parallel()
	srv, err := NewServer(NewStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if _, err := srv.Listen("127.0.0.1:0"); !errors.Is(err, ErrClosed) {
		t.Fatalf("listen after close: want ErrClosed, got %v", err)
	}
}

func TestNewServerNilStore(t *testing.T) {
	t.Parallel()
	if _, err := NewServer(nil, nil); err == nil {
		t.Fatal("nil store should fail")
	}
}

func TestDialUnreachable(t *testing.T) {
	t.Parallel()
	if _, err := DialBatch("127.0.0.1:1", 0, BatchOptions{}); err == nil {
		t.Fatal("dial to closed port should fail")
	}
}

func TestSendCopiesValues(t *testing.T) {
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
	c, err := DialBatch(addr, 3, BatchOptions{Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	vals := []float64{0.25}
	if err := c.Send(1, vals); err != nil {
		t.Fatal(err)
	}
	vals[0] = 0.99 // mutate before the flush; the queued copy must be unaffected
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if m, ok := store.Latest(3); ok {
			if m.Values[0] != 0.25 {
				t.Fatalf("value %v, want 0.25", m.Values[0])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("measurement never arrived")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerCloseDuringConcurrentDials is the regression test for the
// acceptLoop track-failure path: when Close lands between Accept returning a
// connection and track acquiring the server lock, the connection must be
// closed and the accept loop must still exit exactly once through the
// Accept-error path — never hang and never leak handler goroutines (Close
// waits on the server WaitGroup, so a leak would deadlock this test).
//
// The race window is timing-dependent, so the test brute-forces it: many
// server instances, each closed concurrently with a burst of dials. Run it
// with the race detector when touching the transport internals:
//
//	go test -race ./internal/transport
//
// (CI runs the same invocation; see the ci target in the Makefile.)
func TestServerCloseDuringConcurrentDials(t *testing.T) {
	t.Parallel()
	const rounds = 30
	const dialers = 8
	for round := 0; round < rounds; round++ {
		store := NewStore()
		srv, err := NewServer(store, nil)
		if err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}

		var wg sync.WaitGroup
		start := make(chan struct{})
		for d := 0; d < dialers; d++ {
			d := d
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				// Dials may fail (listener closed) or succeed and then be
				// dropped (tracked conn closed, or track failure); both are
				// correct during shutdown. What must not happen is a hang.
				c, err := DialBatch(addr, d, BatchOptions{})
				if err != nil {
					return
				}
				_ = c.Send(1, []float64{0.5})
				_ = c.Close()
			}()
		}
		closed := make(chan struct{})
		go func() {
			<-start
			_ = srv.Close()
			close(closed)
		}()
		close(start)

		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Close did not return (accept loop or handler leak)", round)
		}
		wg.Wait()

		// After Close the listener is gone: a fresh dial must fail, proving
		// the accept loop is not still running on a live listener.
		if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
			t.Fatalf("round %d: listener still accepting after Close", round)
		}
	}
}

func TestStoreStatsAccountsFrequency(t *testing.T) {
	t.Parallel()
	s := NewStore()
	// Node 1: transmits at local steps 2, 5, 10 → 3 updates over 10 steps.
	s.Apply(Measurement{Node: 1, Step: 2, Values: []float64{0.2}})
	s.Apply(Measurement{Node: 1, Step: 5, Values: []float64{0.5}})
	s.Apply(Measurement{Node: 1, Step: 5, Values: []float64{0.5}}) // duplicate: dropped
	s.Apply(Measurement{Node: 1, Step: 4, Values: []float64{0.4}}) // stale: dropped
	s.Apply(Measurement{Node: 1, Step: 10, Values: []float64{1.0}})
	// Node 2: a single transmission at step 4.
	s.Apply(Measurement{Node: 2, Step: 4, Values: []float64{0.4}})

	stats := s.Stats()
	if len(stats) != 2 {
		t.Fatalf("%d nodes in stats, want 2", len(stats))
	}
	n1 := stats[1]
	if n1.Updates != 3 || n1.Latest.Step != 10 {
		t.Fatalf("node 1 stats %+v, want 3 updates at step 10", n1)
	}
	if n1.Frequency != 0.3 {
		t.Fatalf("node 1 frequency %v, want 0.3 (eq. 5: 3 transmissions / 10 steps)", n1.Frequency)
	}
	if f := stats[2].Frequency; f != 0.25 {
		t.Fatalf("node 2 frequency %v, want 0.25", f)
	}
	// The returned map is a copy.
	delete(stats, 1)
	if len(s.Stats()) != 2 {
		t.Fatal("Stats deletion affected store")
	}
}

func TestStoreStatsUnknownStepCount(t *testing.T) {
	t.Parallel()
	s := NewStore()
	s.Apply(Measurement{Node: 3, Step: 0, Values: []float64{0.1}})
	if f := s.Stats()[3].Frequency; f != 0 {
		t.Fatalf("frequency %v for non-positive step count, want 0", f)
	}
}
