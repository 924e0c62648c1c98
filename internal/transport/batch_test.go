package transport

import (
	"errors"
	"math"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, *Store, string) {
	t.Helper()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, store, addr
}

// blackhole accepts connections and never reads from them, simulating a
// collector that stopped draining. Returns the address and a cleanup.
func blackhole(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
		}
	}()
	t.Cleanup(func() {
		_ = l.Close()
		<-done
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return l.Addr().String()
}

func TestBatchClientFlushBySize(t *testing.T) {
	t.Parallel()
	srv, store, addr := startServer(t)
	_ = srv
	c, err := DialBatch(addr, 2, BatchOptions{BatchSize: 4, Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Linger is effectively off; only the size threshold can flush.
	for step := 1; step <= 4; step++ {
		if err := c.Send(step, []float64{float64(step)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { m, ok := store.Latest(2); return ok && m.Step == 4 },
		2*time.Second, "size-complete batch never flushed")
	if st := store.Stats()[2]; st.Updates != 4 || st.LocalStep != 4 {
		t.Fatalf("stats %+v, want 4 updates through step 4", st)
	}
}

func TestBatchClientFlushByLinger(t *testing.T) {
	t.Parallel()
	_, store, addr := startServer(t)
	c, err := DialBatch(addr, 3, BatchOptions{BatchSize: 1024, Linger: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(1, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	// Far below BatchSize: only the linger tick can deliver this.
	waitFor(t, func() bool { _, ok := store.Latest(3); return ok },
		2*time.Second, "lingering record never flushed")
}

func TestBatchClientCloseFlushesPending(t *testing.T) {
	t.Parallel()
	_, store, addr := startServer(t)
	c, err := DialBatch(addr, 4, BatchOptions{BatchSize: 1024, Linger: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		if err := c.Send(step, []float64{float64(step)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Advance(10) // suppressed steps 4..10 ride on the same final batch
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := store.Stats()[4]
		return st.Updates == 3 && st.LocalStep == 10
	}, 2*time.Second, "Close did not flush pending records and clock")
	if err := c.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := c.Send(11, []float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: %v, want ErrClosed", err)
	}
}

func TestBatchClientHeartbeatAdvancesClockWithoutRecords(t *testing.T) {
	t.Parallel()
	_, store, addr := startServer(t)
	c, err := DialBatch(addr, 5, BatchOptions{BatchSize: 8, Linger: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(2, []float64{0.2}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := store.Latest(5); return ok }, 2*time.Second,
		"measurement never arrived")
	// Pure clock advances — the policy suppressed steps 3..50. Heartbeats
	// at the linger cadence must carry the clock with no measurement.
	c.Advance(50)
	waitFor(t, func() bool { return store.Stats()[5].LocalStep == 50 }, 2*time.Second,
		"heartbeat never advanced the central clock")
	st := store.Stats()[5]
	if st.Updates != 1 || st.Frequency != 1.0/50 {
		t.Fatalf("stats %+v, want 1 update over 50 steps", st)
	}
}

// TestBatchClientBackpressure is the bounded-queue regression: when the
// collector stops draining, Send must start returning ErrBacklogged once
// MaxPending is hit instead of blocking forever, and Close must still
// return promptly by interrupting the stalled flush.
func TestBatchClientBackpressure(t *testing.T) {
	t.Parallel()
	addr := blackhole(t)
	c, err := DialBatch(addr, 0, BatchOptions{
		BatchSize:    4,
		MaxPending:   8,
		Linger:       time.Millisecond,
		WriteTimeout: time.Hour, // the write must be interrupted by Close, not the deadline
	})
	if err != nil {
		t.Fatal(err)
	}
	// Large records fill the kernel socket buffers quickly; after that the
	// writer goroutine is stuck in a write and the queue fills to the cap.
	big := make([]float64, 16384)
	backlogged := false
	deadline := time.Now().Add(10 * time.Second)
	for step := 1; time.Now().Before(deadline); step++ {
		if err := c.Send(step, big); errors.Is(err, ErrBacklogged) {
			backlogged = true
			break
		} else if err != nil {
			t.Fatalf("unexpected send error: %v", err)
		}
	}
	if !backlogged {
		t.Fatal("send never reported backpressure against a non-draining collector")
	}
	if c.Dropped() == 0 {
		t.Fatal("dropped counter not incremented")
	}

	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind a stalled flush")
	}
}

// TestBatchClientWriteTimeout: with a finite write deadline, a stalled
// flush fails on its own and the failure is surfaced through Send.
func TestBatchClientWriteTimeout(t *testing.T) {
	t.Parallel()
	addr := blackhole(t)
	c, err := DialBatch(addr, 0, BatchOptions{
		BatchSize:    2,
		MaxPending:   64, // bounds queue memory; ErrBacklogged is skipped below
		Linger:       time.Millisecond,
		WriteTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	big := make([]float64, 16384)
	var sendErr error
	deadline := time.Now().Add(10 * time.Second)
	for step := 1; time.Now().Before(deadline); step++ {
		if err := c.Send(step, big); err != nil && !errors.Is(err, ErrBacklogged) {
			sendErr = err
			break
		}
		time.Sleep(time.Millisecond)
	}
	var nerr net.Error
	if sendErr == nil || !errors.As(sendErr, &nerr) || !nerr.Timeout() {
		t.Fatalf("want a timeout error surfaced through Send, got %v", sendErr)
	}
}

// TestCollectorRoundAllocationsIndependentOfBatch pins a collector round —
// n SendNode calls on a mux client, one Flush, the server decoding the batch
// and applying every record — at the same allocated bytes for n = 64 and
// n = 2048, once the client's and the decoder's value arenas and the store's
// entries have grown: no record costs a []float64 on either end of the wire.
// It runs serially, so no other test's garbage lands between readings. A
// window can still catch the runtime starting an OS thread (≈ 6 kB for the
// M and its g0), which happens once and then stays; each n keeps its
// cheapest of several windows, while a per-record allocation would show in
// every one.
func TestCollectorRoundAllocationsIndependentOfBatch(t *testing.T) {
	perRound := func(n int) float64 {
		store := NewStore()
		var applied atomic.Int64
		srv, err := NewServer(store, func(Measurement) { applied.Add(1) })
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialBatch(addr, 0, BatchOptions{BatchSize: n + 1, MaxPending: n + 1, Linger: time.Hour, Mux: true})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		values := make([][]float64, n)
		for i := range values {
			values[i] = []float64{float64(i) / float64(n), 1 - float64(i)/float64(n)}
		}
		step := 0
		round := func() {
			step++
			for i, v := range values {
				if err := c.SendNode(i, step, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Flush(); err != nil {
				t.Fatal(err)
			}
			for applied.Load() < int64(step*n) {
				runtime.Gosched()
			}
		}
		for range 4 { // grow the arenas, the frame buffers and the store
			round()
		}
		const windows, rounds = 4, 32
		least := math.Inf(1)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range rounds {
				round()
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/rounds)
		}
		return least
	}
	small, large := perRound(64), perRound(2048)
	t.Logf("collector round: %.0f B at n = 64, %.0f B at n = 2048", small, large)
	if math.Abs(large-small) > 256 {
		t.Fatalf("a round allocates %.0f B at n = 64 and %.0f B at n = 2048, want the same within 256 B", small, large)
	}
}
