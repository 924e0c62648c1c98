package agent

// The agent runs its sampling loop on its own goroutine; run these tests
// with the race detector when touching it:
//
//	go test -race ./internal/agent
//
// (CI runs the same invocation; see the ci target in the Makefile.)

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"orcf/internal/trace"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

// recordingSender captures sent measurements in memory.
type recordingSender struct {
	mu   sync.Mutex
	sent []transport.Measurement
	fail error
}

func (r *recordingSender) Send(step int, values []float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fail != nil {
		return r.fail
	}
	r.sent = append(r.sent, transport.Measurement{Step: step, Values: append([]float64(nil), values...)})
	return nil
}

func (r *recordingSender) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.sent)
}

func rows(n int, f func(i int) float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{f(i)}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	t.Parallel()
	policy, _ := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.3})
	src := ReplaySource(rows(3, func(int) float64 { return 0.5 }))
	snd := &recordingSender{}
	tests := []struct {
		name string
		cfg  Config
	}{
		{"nil policy", Config{Source: src, Sender: snd}},
		{"nil source", Config{Policy: policy, Sender: snd}},
		{"nil sender", Config{Policy: policy, Source: src}},
		{"negative node", Config{Node: -1, Policy: policy, Source: src, Sender: snd}},
		{"negative interval", Config{Policy: policy, Source: src, Sender: snd, Interval: -time.Millisecond}},
		{"negative max steps", Config{Policy: policy, Source: src, Sender: snd, MaxSteps: -1}},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := New(tt.cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("want ErrBadConfig, got %v", err)
			}
		})
	}
}

func TestRunReplayEndsAtSourceExhaustion(t *testing.T) {
	t.Parallel()
	snd := &recordingSender{}
	a, err := New(Config{
		Policy: transmit.Always{},
		Source: ReplaySource(rows(10, func(i int) float64 { return float64(i) / 10 })),
		Sender: snd,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a.Steps() != 10 || snd.count() != 10 {
		t.Fatalf("steps=%d sent=%d, want 10/10", a.Steps(), snd.count())
	}
	if a.Frequency() != 1 {
		t.Fatalf("frequency %v, want 1", a.Frequency())
	}
}

func TestRunRespectsBudget(t *testing.T) {
	t.Parallel()
	policy, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	snd := &recordingSender{}
	a, err := New(Config{
		Policy: policy,
		Source: LoopSource(rows(50, func(i int) float64 { return 0.3 + 0.3*math.Sin(float64(i)/7) })),
		Sender: snd,
		// No Interval: run at full speed.
		MaxSteps: 4000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if f := a.Frequency(); math.Abs(f-0.25) > 0.02 {
		t.Fatalf("frequency %v, want ≈ 0.25", f)
	}
}

func TestRunStopsOnSendFailure(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	snd := &recordingSender{fail: boom}
	a, err := New(Config{
		Policy:   transmit.Always{},
		Source:   LoopSource(rows(5, func(int) float64 { return 0.5 })),
		Sender:   snd,
		MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background()); !errors.Is(err, boom) {
		t.Fatalf("want send error, got %v", err)
	}
}

func TestRunHonorsContextCancel(t *testing.T) {
	t.Parallel()
	snd := &recordingSender{}
	a, err := New(Config{
		Policy:   transmit.Always{},
		Source:   LoopSource(rows(5, func(int) float64 { return 0.5 })),
		Sender:   snd,
		Interval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := a.Run(ctx); err != nil {
		t.Fatalf("cancel should end cleanly, got %v", err)
	}
	if a.Steps() == 0 {
		t.Fatal("agent never ran before cancellation")
	}
}

func TestSources(t *testing.T) {
	t.Parallel()
	r := ReplaySource(rows(2, func(i int) float64 { return float64(i) }))
	if _, ok := r(0); ok {
		t.Fatal("step 0 should be out of range")
	}
	if v, ok := r(2); !ok || v[0] != 1 {
		t.Fatalf("replay step 2 = %v/%v", v, ok)
	}
	if _, ok := r(3); ok {
		t.Fatal("replay should end after last row")
	}
	l := LoopSource(rows(2, func(i int) float64 { return float64(i) }))
	if v, ok := l(3); !ok || v[0] != 0 {
		t.Fatalf("loop step 3 = %v/%v, want wraparound", v, ok)
	}
	if _, ok := LoopSource(nil)(1); ok {
		t.Fatal("empty loop source should end immediately")
	}
}

// TestEndToEndOverTCP is the distributed integration test: several agents
// with adaptive policies stream a synthetic trace to a real TCP collector;
// the store must converge to fresh values and the fleet frequency must sit
// at the budget.
func TestEndToEndOverTCP(t *testing.T) {
	t.Parallel()
	const (
		nodes  = 6
		steps  = 800
		budget = 0.3
	)
	ds, err := trace.GoogleLike().Generate(nodes, steps, 3)
	if err != nil {
		t.Fatal(err)
	}
	store := transport.NewStore()
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var wg sync.WaitGroup
	agents := make([]*Agent, nodes)
	errs := make(chan error, nodes)
	for n := 0; n < nodes; n++ {
		client, err := transport.DialBatch(addr, n, transport.BatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		policy, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
		if err != nil {
			t.Fatal(err)
		}
		src := make([][]float64, steps)
		for s := 0; s < steps; s++ {
			src[s] = ds.At(s, n)
		}
		a, err := New(Config{
			Node:   n,
			Policy: policy,
			Source: ReplaySource(src),
			Sender: client,
		})
		if err != nil {
			t.Fatal(err)
		}
		agents[n] = a
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.Run(context.Background())
			if err == nil {
				err = client.Flush()
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Collector-side convergence: every node reported and the server has
	// drained the in-flight TCP stream down to near-final steps. The agents
	// have returned, but the server decodes asynchronously, so poll.
	converged := func() bool {
		if store.Len() < nodes {
			return false
		}
		for n := 0; n < nodes; n++ {
			m, ok := store.Latest(n)
			if !ok || m.Step < steps-80 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(5 * time.Second)
	for !converged() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Len() != nodes {
		t.Fatalf("store has %d nodes, want %d", store.Len(), nodes)
	}
	var freq float64
	for n := 0; n < nodes; n++ {
		m, ok := store.Latest(n)
		if !ok {
			t.Fatalf("node %d missing", n)
		}
		if m.Step < steps-80 {
			t.Fatalf("node %d last stored step %d is stale", n, m.Step)
		}
		freq += agents[n].Frequency()
	}
	freq /= nodes
	if math.Abs(freq-budget) > 0.05 {
		t.Fatalf("fleet frequency %v, want ≈ %v", freq, budget)
	}
}

// backpressureSender rejects every Nth policy-approved send with
// ErrBacklogged, like a BatchClient whose bounded queue is full.
type backpressureSender struct {
	recordingSender
	n     int
	calls int
}

func (b *backpressureSender) Send(step int, values []float64) error {
	b.calls++
	if b.n > 0 && b.calls%b.n == 0 {
		return transport.ErrBacklogged
	}
	return b.recordingSender.Send(step, values)
}

// TestRunTreatsBackpressureAsSuppressed: a queue-full rejection must not
// kill the agent; the step is accounted as not transmitted and the loop
// keeps running.
func TestRunTreatsBackpressureAsSuppressed(t *testing.T) {
	t.Parallel()
	snd := &backpressureSender{n: 4}
	a, err := New(Config{
		Policy:   transmit.Always{},
		Source:   LoopSource(rows(5, func(int) float64 { return 0.5 })),
		Sender:   snd,
		MaxSteps: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background()); err != nil {
		t.Fatalf("backpressure must not end the run: %v", err)
	}
	if a.Steps() != 100 {
		t.Fatalf("steps %d, want 100", a.Steps())
	}
	if a.Dropped() != 25 {
		t.Fatalf("dropped %d, want 25 (every 4th send rejected)", a.Dropped())
	}
	if snd.count() != 75 {
		t.Fatalf("sent %d, want 75", snd.count())
	}
	// The meter must count rejected sends as suppressed steps (eq. 5 is
	// about delivered transmissions, not attempted ones).
	if f := a.Frequency(); f != 0.75 {
		t.Fatalf("frequency %v, want 0.75", f)
	}
}

// TestCentralFrequencyMatchesMeterUnderAdaptivePolicy is the eq. 5
// accounting regression for the satellite bugfix: with a v2 batch client
// carrying the local clock, the collector-side frequency must equal the
// agent-side meter exactly, even though the adaptive policy suppresses most
// samples (the old denominator — last *accepted* step — overestimated
// whenever recent samples were suppressed).
func TestCentralFrequencyMatchesMeterUnderAdaptivePolicy(t *testing.T) {
	t.Parallel()
	const (
		node   = 4
		steps  = 600
		budget = 0.2
	)
	store := transport.NewStore()
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := transport.DialBatch(addr, node, transport.BatchOptions{
		BatchSize: 16, Linger: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	policy, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(Config{
		Node:   node,
		Policy: policy,
		Source: LoopSource(rows(50, func(i int) float64 { return 0.3 + 0.3*math.Sin(float64(i)/7) })),
		Sender: client,
		// The trailing steps are usually suppressed under a 0.2 budget —
		// exactly the case where the old accounting overestimated.
		MaxSteps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := client.Close(); err != nil { // flushes pending records + final clock
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for store.Stats()[node].LocalStep < steps && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := store.Stats()[node]
	if st.LocalStep != steps {
		t.Fatalf("central clock %d, want %d (suppressed steps must advance it)", st.LocalStep, steps)
	}
	if st.Frequency != a.Frequency() {
		t.Fatalf("central eq. 5 frequency %v != agent meter %v (updates %d over %d)",
			st.Frequency, a.Frequency(), st.Updates, st.LocalStep)
	}
	if math.Abs(st.Frequency-budget) > 0.05 {
		t.Fatalf("frequency %v far from budget %v", st.Frequency, budget)
	}
}

// TestRunSurvivesCollectorRestart is the nodeagent regression: with a plain
// BatchClient a collector restart made Run return the terminal write error
// and the process tore itself down. Over a ReconnectingClient the outage is
// a stretch of suppressed steps, and the restarted collector ends up with
// the agent's last step.
func TestRunSurvivesCollectorRestart(t *testing.T) {
	t.Parallel()
	const node, steps = 2, 400
	listen := func(addr string) (*transport.Server, *transport.Store, string) {
		store := transport.NewStore()
		srv, err := transport.NewServer(store, nil)
		if err != nil {
			t.Fatal(err)
		}
		var bound string
		deadline := time.Now().Add(3 * time.Second)
		for {
			if bound, err = srv.Listen(addr); err == nil {
				return srv, store, bound
			}
			if time.Now().After(deadline) {
				t.Fatalf("binding %s: %v", addr, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	srv1, store1, addr := listen("127.0.0.1:0")

	client := transport.NewReconnectingClient(addr, node, transport.BatchOptions{Linger: time.Millisecond})
	client.SetBackoff(time.Millisecond, 5*time.Millisecond)
	a, err := New(Config{
		Node:     node,
		Policy:   transmit.Always{},
		Source:   LoopSource(rows(5, func(i int) float64 { return float64(i) / 5 })),
		Sender:   client,
		Interval: time.Millisecond,
		MaxSteps: steps,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Run(context.Background()) }()

	arrived := func(s *transport.Store) bool { _, ok := s.Latest(node); return ok }
	for deadline := time.Now().Add(5 * time.Second); !arrived(store1); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("agent never reached the first collector")
		}
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}
	srv2, store2, _ := listen(addr)
	defer srv2.Close()

	if err := <-done; err != nil {
		t.Fatalf("collector restart ended the run: %v", err)
	}
	if err := client.Close(); err != nil { // flushes the last batch and clock
		t.Fatal(err)
	}
	if a.Steps() != steps {
		t.Fatalf("agent stopped after %d of %d steps", a.Steps(), steps)
	}
	if n := client.Reconnects(); n != 1 {
		t.Fatalf("reconnects = %d, want 1", n)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := store2.Stats()[node]
		if st.Latest.Step == steps && st.LocalStep == steps {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restarted collector holds %+v, want step %d", st, steps)
		}
	}
}
