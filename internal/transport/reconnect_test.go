package transport

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// freePort reserves a local port and releases it so a server can bind it.
func freePort(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func waitFor(t *testing.T, cond func() bool, within time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReconnectingClientLazyDialAndSend(t *testing.T) {
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

	rc := NewReconnectingClient(addr, 7, BatchOptions{})
	defer rc.Close()
	if rc.Connected() {
		t.Fatal("client should be lazy")
	}
	if err := rc.Send(1, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	if !rc.Connected() {
		t.Fatal("client should be connected after first send")
	}
	waitFor(t, func() bool { _, ok := store.Latest(7); return ok }, 2*time.Second,
		"measurement never arrived")
}

func TestReconnectingClientBackoffLimitsDialRate(t *testing.T) {
	t.Parallel()
	// Nothing listens at this address.
	rc := NewReconnectingClient("127.0.0.1:1", 0, BatchOptions{})
	rc.SetBackoff(50*time.Millisecond, time.Second)
	defer rc.Close()
	if err := rc.Send(1, []float64{1}); err == nil {
		t.Fatal("send to dead address should fail")
	}
	// Within the backoff window the next send must fail fast with the
	// backoff error rather than re-dialing.
	start := time.Now()
	err := rc.Send(2, []float64{1})
	if err == nil {
		t.Fatal("send during backoff should fail")
	}
	if !strings.Contains(err.Error(), "backoff") {
		t.Fatalf("want backoff error, got %v", err)
	}
	if time.Since(start) > 20*time.Millisecond {
		t.Fatal("backoff send should not block on dialing")
	}
}

func TestReconnectingClientClose(t *testing.T) {
	t.Parallel()
	rc := NewReconnectingClient("127.0.0.1:1", 0, BatchOptions{})
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := rc.Send(1, []float64{1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close: want ErrClosed, got %v", err)
	}
}

func TestReconnectingClientBackoffJitterSpread(t *testing.T) {
	t.Parallel()
	rc := NewReconnectingClient("127.0.0.1:1", 4, BatchOptions{})
	base := 80 * time.Millisecond
	seen := make(map[time.Duration]bool)
	for i := 0; i < 200; i++ {
		w := rc.jitterLocked(base)
		if w < base/2 || w > base {
			t.Fatalf("jittered wait %v outside [%v, %v]", w, base/2, base)
		}
		seen[w] = true
	}
	// A degenerate (constant) jitter would re-synchronize the fleet's
	// redials; 200 draws over a 40ms window must produce many values.
	if len(seen) < 10 {
		t.Fatalf("only %d distinct jittered waits in 200 draws", len(seen))
	}
}

func TestReconnectingClientJitterDesynchronizesClients(t *testing.T) {
	t.Parallel()
	// Two clients failing in lockstep must not schedule identical redial
	// sequences (per-client RNG). Compare several consecutive draws.
	a := NewReconnectingClient("127.0.0.1:1", 0, BatchOptions{})
	b := NewReconnectingClient("127.0.0.1:1", 1, BatchOptions{})
	identical := 0
	for i := 0; i < 32; i++ {
		if a.jitterLocked(time.Second) == b.jitterLocked(time.Second) {
			identical++
		}
	}
	if identical == 32 {
		t.Fatal("two clients drew identical jitter sequences")
	}
}

func TestReconnectingClientCloseWhileConnected(t *testing.T) {
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

	rc := NewReconnectingClient(addr, 9, BatchOptions{})
	if err := rc.Send(1, []float64{0.4}); err != nil {
		t.Fatal(err)
	}
	if !rc.Connected() {
		t.Fatal("client should hold a live connection")
	}
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	if rc.Connected() {
		t.Fatal("close must drop the live connection")
	}
	if err := rc.Send(2, []float64{0.5}); !errors.Is(err, ErrClosed) {
		t.Fatalf("send after close of a connected client: want ErrClosed, got %v", err)
	}
}

// TestReconnectingClientConcurrentSendsAcrossRestart hammers Send from many
// goroutines while the collector dies and comes back; run under -race this
// verifies the client's locking, and afterwards the store must hold a
// post-restart measurement.
func TestReconnectingClientConcurrentSendsAcrossRestart(t *testing.T) {
	t.Parallel()
	addr := freePort(t)
	srv1, err := NewServer(NewStore(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv1.Listen(addr); err != nil {
		t.Fatal(err)
	}

	rc := NewReconnectingClient(addr, 5, BatchOptions{Linger: time.Millisecond})
	rc.SetBackoff(time.Millisecond, 5*time.Millisecond)
	defer rc.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var step atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = rc.Send(int(step.Add(1)), []float64{0.7}) // errors OK mid-restart
				time.Sleep(time.Millisecond)
			}
		}()
	}

	time.Sleep(20 * time.Millisecond)
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	store2 := NewStore()
	srv2, err := NewServer(store2, nil)
	if err != nil {
		t.Fatal(err)
	}
	var bindErr error
	waitFor(t, func() bool {
		_, bindErr = srv2.Listen(addr)
		return bindErr == nil
	}, 3*time.Second, "could not rebind collector address")
	defer srv2.Close()

	waitFor(t, func() bool { _, ok := store2.Latest(5); return ok }, 5*time.Second,
		"no measurement reached the restarted collector")
	close(stop)
	wg.Wait()
}

// TestBackoffErrorIsNotErrClosed is the sentinel regression: a redial
// delayed by the backoff window used to be wrapped in ErrClosed, making
// callers that check errors.Is(err, ErrClosed) declare a merely backing-off
// client dead.
func TestBackoffErrorIsNotErrClosed(t *testing.T) {
	t.Parallel()
	rc := NewReconnectingClient("127.0.0.1:1", 0, BatchOptions{}) // nothing listens here
	rc.SetBackoff(time.Second, 2*time.Second)
	defer rc.Close()
	if err := rc.Send(1, []float64{1}); err == nil {
		t.Fatal("send to a dead address should fail")
	}
	err := rc.Send(2, []float64{1}) // within the backoff window
	if !errors.Is(err, ErrBackoff) {
		t.Fatalf("send during backoff: %v, want ErrBackoff", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatalf("backoff error must not match ErrClosed: %v", err)
	}
	// After Close the error really is ErrClosed — and not ErrBackoff.
	if err := rc.Close(); err != nil {
		t.Fatal(err)
	}
	err = rc.Send(3, []float64{1})
	if !errors.Is(err, ErrClosed) || errors.Is(err, ErrBackoff) {
		t.Fatalf("send after close: %v, want pure ErrClosed", err)
	}
}
