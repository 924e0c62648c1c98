package transport

// Injected-fault tests for the collection plane: a collector restart, a
// connection reset in the middle of a frame, a collector that stops
// draining, and an agent of the retired gob protocol. Each one ends in a
// check of what the store holds, not of what the client believes.

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// connFault tells faultProxy how to treat one accepted connection. The zero
// value relays faithfully.
type connFault struct {
	// stall accepts the connection and never reads from it: a collector
	// that stopped draining.
	stall bool
	// cutAfter > 0 relays exactly this many client bytes, then resets both
	// sides.
	cutAfter int64
}

// faultProxy relays agent connections to a collector. The wire protocol is
// one-directional (the server never writes), so only client bytes are
// relayed; the server side closing is mirrored to the client.
type faultProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	faults []connFault // consumed one per accepted connection
	conns  []net.Conn
	wg     sync.WaitGroup
}

// newFaultProxy starts a proxy in front of target; the given faults apply to
// the first connections in order, every later one is relayed faithfully.
func newFaultProxy(t *testing.T, target string, faults ...connFault) *faultProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &faultProxy{ln: ln, target: target, faults: faults}
	p.wg.Add(1)
	go p.acceptLoop()
	t.Cleanup(func() {
		_ = ln.Close()
		p.mu.Lock()
		for _, c := range p.conns {
			_ = c.Close()
		}
		p.mu.Unlock()
		p.wg.Wait()
	})
	return p
}

func (p *faultProxy) addr() string { return p.ln.Addr().String() }

func (p *faultProxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		var f connFault
		if len(p.faults) > 0 {
			f, p.faults = p.faults[0], p.faults[1:]
		}
		p.conns = append(p.conns, client)
		p.mu.Unlock()
		if f.stall {
			continue // held open, never read; closed at cleanup
		}
		p.wg.Add(1)
		go p.relay(client, f)
	}
}

func (p *faultProxy) relay(client net.Conn, f connFault) {
	defer p.wg.Done()
	defer client.Close()
	up, err := net.Dial("tcp", p.target)
	if err != nil {
		return
	}
	defer up.Close()
	p.mu.Lock()
	p.conns = append(p.conns, up)
	p.mu.Unlock()
	p.wg.Add(1)
	go func() { // the collector hanging up hangs up on the agent too
		defer p.wg.Done()
		_, _ = io.Copy(io.Discard, up)
		_ = client.Close()
	}()
	if f.cutAfter > 0 {
		_, _ = io.CopyN(up, client, f.cutAfter)
		// Linger 0 turns the closes into resets.
		_ = client.(*net.TCPConn).SetLinger(0)
		_ = up.(*net.TCPConn).SetLinger(0)
		return
	}
	_, _ = io.Copy(up, client)
}

// listenAt binds a fresh collector to a fixed address, retrying while the
// previous owner's socket is still being released.
func listenAt(t *testing.T, addr string) (*Server, *Store) {
	t.Helper()
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		_, err = srv.Listen(addr)
		return err == nil
	}, 3*time.Second, "could not bind collector address")
	t.Cleanup(func() { _ = srv.Close() })
	return srv, store
}

// TestFaultCollectorRestart: the collector dies mid-run and comes back on
// the same address. The client must ride the outage out (every rejection a
// transient ErrBackoff), redial exactly once, and the new collector's store
// must end at the agent's last step — measurement and local clock.
func TestFaultCollectorRestart(t *testing.T) {
	t.Parallel()
	const node = 3
	addr := freePort(t)
	srv1, store1 := listenAt(t, addr)

	rc := NewReconnectingClient(addr, node, BatchOptions{Linger: time.Millisecond})
	rc.SetBackoff(time.Millisecond, 10*time.Millisecond)
	defer rc.Close()
	step := 0
	sample := func() error { // one agent step: advance the clock, transmit
		step++
		rc.Advance(step)
		return rc.Send(step, []float64{float64(step)})
	}
	if err := sample(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := store1.Latest(node); return ok }, 2*time.Second,
		"first measurement never arrived")

	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		err := sample()
		if err != nil && !errors.Is(err, ErrBackoff) {
			t.Fatalf("outage surfaced as a terminal error: %v", err)
		}
		return err != nil
	}, 5*time.Second, "sends never failed while the collector was down")

	_, store2 := listenAt(t, addr)
	waitFor(t, func() bool { return sample() == nil && rc.Reconnects() == 1 }, 5*time.Second,
		"client never recovered after the restart")
	if err := sample(); err != nil {
		t.Fatal(err)
	}
	if err := rc.Close(); err != nil { // flushes the last batch and clock
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		st := store2.Stats()[node]
		return st.Latest.Step == step && st.LocalStep == step
	}, 5*time.Second, "restarted collector never reached the agent's last step")
	if n := rc.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
}

// TestFaultAdvanceAloneRedials: after the collector restarts the policy
// suppresses every sample, so the agent only ever calls Advance. The failing
// heartbeats must still expose the dead connection and the redial must
// carry the clock to the new collector.
func TestFaultAdvanceAloneRedials(t *testing.T) {
	t.Parallel()
	const node = 6
	addr := freePort(t)
	srv1, store1 := listenAt(t, addr)

	rc := NewReconnectingClient(addr, node, BatchOptions{Linger: time.Millisecond})
	rc.SetBackoff(time.Millisecond, 10*time.Millisecond)
	defer rc.Close()
	if err := rc.Send(1, []float64{0.5}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { _, ok := store1.Latest(node); return ok }, 2*time.Second,
		"first measurement never arrived")
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	_, store2 := listenAt(t, addr)

	step := 1
	waitFor(t, func() bool {
		step++
		rc.Advance(step)
		return store2.Stats()[node].LocalStep > 1
	}, 5*time.Second, "suppressed agent stayed silently disconnected")
	if n := rc.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
	if _, ok := store2.Latest(node); ok {
		t.Fatal("Advance fabricated a measurement")
	}
}

// TestFaultResetMidFrame: the first connection is reset ten bytes into its
// first batch frame. The collector must apply nothing from it and must not
// call it a protocol error (the peer vanished; nothing malformed arrived),
// and the client must redial and deliver later samples.
func TestFaultResetMidFrame(t *testing.T) {
	t.Parallel()
	const node = 2
	srv, store, addr := startServer(t)
	hello := len(magicV2) + len(appendFrame(nil, frameHello, appendHelloPayload(nil, node, 0)))
	proxy := newFaultProxy(t, addr, connFault{cutAfter: int64(hello) + 10})

	rc := NewReconnectingClient(proxy.addr(), node, BatchOptions{BatchSize: 4, Linger: 5 * time.Millisecond})
	rc.SetBackoff(time.Millisecond, 10*time.Millisecond)
	defer rc.Close()
	step := 0
	for ; step < 4; step++ {
		if err := rc.Send(step+1, []float64{float64(step + 1), 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	m := srv.Metrics()
	waitFor(t, func() bool { return m.ConnsTotal.Value() == 1 && m.ConnsActive.Value() == 0 },
		5*time.Second, "collector never saw the torn connection die")
	if m.RecordsIn.Value() != 0 || store.Len() != 0 {
		t.Fatalf("torn frame applied: %d records in, %d nodes stored", m.RecordsIn.Value(), store.Len())
	}

	waitFor(t, func() bool {
		step++
		err := rc.Send(step, []float64{float64(step), 0.5})
		if err != nil && !errors.Is(err, ErrBackoff) && !errors.Is(err, ErrBacklogged) {
			t.Fatalf("reset surfaced as a terminal error: %v", err)
		}
		_, ok := store.Latest(node)
		return ok
	}, 5*time.Second, "client never delivered after the reset")
	got, _ := store.Latest(node)
	if got.Values[0] != float64(got.Step) {
		t.Fatalf("stored %+v: values do not belong to the step", got)
	}
	if n := rc.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
	if n := srv.ProtocolErrors(); n != 0 {
		t.Fatalf("%d protocol errors for a vanished peer", n)
	}
}

// TestFaultStalledReader: the first connection's peer never reads. The
// flush must fail on its write deadline, that terminal error must retire
// the connection, and the redial (relayed faithfully) must deliver — with
// the records the stalled connection took down counted as dropped.
func TestFaultStalledReader(t *testing.T) {
	t.Parallel()
	const node = 8
	_, store, addr := startServer(t)
	proxy := newFaultProxy(t, addr, connFault{stall: true})

	rc := NewReconnectingClient(proxy.addr(), node, BatchOptions{
		BatchSize: 2, MaxPending: 64, Linger: time.Millisecond, WriteTimeout: 200 * time.Millisecond,
	})
	rc.SetBackoff(time.Millisecond, 10*time.Millisecond)
	defer rc.Close()
	big := make([]float64, 16384) // fills the kernel socket buffers quickly
	step := 0
	waitFor(t, func() bool {
		step++
		err := rc.Send(step, big)
		if err != nil && !errors.Is(err, ErrBacklogged) && !errors.Is(err, ErrBackoff) {
			t.Fatalf("stall surfaced as a terminal error: %v", err)
		}
		return rc.Reconnects() == 1
	}, 15*time.Second, "write deadline never retired the stalled connection")
	if rc.Dropped() == 0 {
		t.Fatal("records lost with the stalled connection were not counted")
	}

	step++
	waitFor(t, func() bool { return rc.Send(step, []float64{0.25}) == nil }, 5*time.Second,
		"send on the fresh connection")
	waitFor(t, func() bool { m, ok := store.Latest(node); return ok && m.Step == step },
		5*time.Second, "redialed connection never delivered")
}

// v1GobHello is what an agent of the retired gob protocol sends first: a
// recorded gob stream of its Envelope{Hello{Node: 3}} (type definitions
// followed by the value).
const v1GobHello = "1\x7f\x03\x01\x01\bEnvelope\x01\xff\x80\x00\x01\x02\x01\x05Hello\x01\xff\x82\x00\x01\vMeasurement\x01\xff\x84\x00\x00\x00" +
	"\x1c\xff\x81\x03\x01\x01\x05Hello\x01\xff\x82\x00\x01\x01\x01\x04Node\x01\x04\x00\x00\x00" +
	"7\xff\x83\x03\x01\x01\vMeasurement\x01\xff\x84\x00\x01\x03\x01\x04Node\x01\x04\x00\x01\x04Step\x01\x04\x00\x01\x06Values\x01\xff\x86\x00\x00\x00" +
	"\x17\xff\x85\x02\x01\x01\t[]float64\x01\xff\x86\x00\x01\b\x00\x00" +
	"\a\xff\x80\x01\x01\x06\x00\x00"

// TestFaultV1AgentRefused: a v1 agent is outside input now — dropped at the
// preamble, counted once, nothing stored.
func TestFaultV1AgentRefused(t *testing.T) {
	t.Parallel()
	srv, store, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(v1GobHello)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the collector to hang up on a v1 agent")
	}
	if n := srv.ProtocolErrors(); n != 1 {
		t.Fatalf("%d protocol errors, want 1", n)
	}
	if store.Len() != 0 || len(store.Stats()) != 0 {
		t.Fatal("a refused agent left something in the store")
	}
}
