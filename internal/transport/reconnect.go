package transport

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"orcf/internal/obs"
)

// ErrBackoff is returned by ReconnectingClient.Send while the collector is
// unreachable and redialing is governed by the backoff window (both when a
// dial just failed and while the next attempt is deliberately delayed). It
// is a temporary condition — the client is alive and will retry — and is
// distinct from ErrClosed, which is terminal. Callers polling with
// errors.Is(err, ErrClosed) must not mistake a backing-off client for a
// dead one; agent.Agent treats ErrBackoff like backpressure (the step is
// accounted as suppressed and the loop continues).
var ErrBackoff = errors.New("transport: redial backing off")

// ReconnectingClient wraps BatchClient with automatic redial. Monitoring
// semantics make this simple: measurements are idempotent snapshots keyed by
// (node, step) and the store keeps only the newest, so losing a few samples
// during an outage is acceptable — records queued on a connection that dies
// are dropped and counted (Dropped), the client re-establishes the stream,
// and the adaptive policy's future transmissions repair staleness.
//
// A BatchClient learns that its connection is dead from a failed write, and
// it writes only when it has a record or a clock advance to carry. Send and
// Advance both check for that terminal error, so a node whose policy
// suppresses every sample for a long stretch still notices the outage (its
// heartbeats fail) and redials instead of staying silently disconnected.
//
// One redial is attempted per call while the connection is down, with a
// capped, jittered exponential backoff between attempts: the backoff
// ceiling doubles per consecutive failure, and the actual wait is drawn
// uniformly from [ceiling/2, ceiling]. Without the jitter a collector
// restart would make every agent redial in lockstep (they all failed at the
// same moment and double deterministically), hammering the recovering
// collector with synchronized waves.
type ReconnectingClient struct {
	addr string
	node int
	opts BatchOptions

	// mu is never held across a record write: BatchClient.Send only
	// enqueues. It is held across a redial, which DialBatch bounds by
	// opts.WriteTimeout.
	mu          sync.Mutex
	client      *BatchClient
	closed      bool
	clock       int // highest local step seen, carried over to a new connection
	lost        int64
	nextAttempt time.Time
	backoff     time.Duration
	rng         *rand.Rand

	minBackoff time.Duration
	maxBackoff time.Duration

	// dials counts successful connections (so dials-1 is the redial count)
	// and dialFailures the attempts that opened or extended the backoff
	// window — the agent-side counterparts of the collector's
	// orcf_ingest_reconnects_total.
	dials        obs.Counter
	dialFailures obs.Counter
}

// NewReconnectingClient prepares a lazily-dialed client for the node; opts
// are handed to DialBatch on every (re)dial. No connection is attempted
// until the first Send or Advance.
func NewReconnectingClient(addr string, node int, opts BatchOptions) *ReconnectingClient {
	return &ReconnectingClient{
		addr:       addr,
		node:       node,
		opts:       opts,
		rng:        rand.New(rand.NewPCG(rand.Uint64(), uint64(node))),
		minBackoff: 50 * time.Millisecond,
		maxBackoff: 5 * time.Second,
	}
}

// SetBackoff overrides the redial backoff bounds (useful in tests).
func (r *ReconnectingClient) SetBackoff(minB, maxB time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if minB > 0 {
		r.minBackoff = minB
	}
	if maxB >= r.minBackoff {
		r.maxBackoff = maxB
	}
}

// Send enqueues one measurement, redialing first if the connection is down.
// ErrBacklogged (the live connection's queue is full) is passed through and
// never causes a redial. Any other error means the measurement was not
// accepted in this call; callers may simply try again on their next sample.
// While the redial backoff window is open the error matches ErrBackoff.
func (r *ReconnectingClient) Send(step int, values []float64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if step > r.clock {
		r.clock = step
	}
	var err error
	// Two rounds: a writer that fails between connLocked's check and the
	// enqueue costs one immediate redial, not the sample.
	for round := 0; round < 2; round++ {
		var c *BatchClient
		if c, err = r.connLocked(); err != nil {
			return err
		}
		if err = c.Send(step, values); err == nil || errors.Is(err, ErrBacklogged) {
			return err
		}
		r.retireLocked()
	}
	return fmt.Errorf("transport: send after redial: %w: %w", err, ErrBackoff)
}

// Advance moves the node's local clock forward without a measurement (see
// BatchClient.Advance), redialing first if the connection is down. With no
// connection the step is only remembered; the next successful dial carries
// it.
func (r *ReconnectingClient) Advance(step int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if step > r.clock {
		r.clock = step
	}
	if c, err := r.connLocked(); err == nil {
		c.Advance(step)
	}
}

// connLocked returns the live connection: it retires one whose writer hit a
// terminal error and dials when there is none, honoring the backoff window.
// The caller holds r.mu.
func (r *ReconnectingClient) connLocked() (*BatchClient, error) {
	if r.closed {
		return nil, ErrClosed
	}
	if r.client != nil {
		if r.client.writeErr() == nil {
			return r.client, nil
		}
		r.retireLocked()
	}
	now := time.Now()
	if now.Before(r.nextAttempt) {
		return nil, fmt.Errorf("transport: redial backoff until %s: %w",
			r.nextAttempt.Format(time.RFC3339Nano), ErrBackoff)
	}
	c, err := DialBatch(r.addr, r.node, r.opts)
	if err != nil {
		r.dialFailures.Inc()
		if r.backoff == 0 {
			r.backoff = r.minBackoff
		} else {
			r.backoff *= 2
			if r.backoff > r.maxBackoff {
				r.backoff = r.maxBackoff
			}
		}
		r.nextAttempt = now.Add(r.jitterLocked(r.backoff))
		// The failed dial opens (or extends) the backoff window, so this
		// too is the transient backing-off state, not a dead client.
		return nil, fmt.Errorf("transport: redial %s: %w: %w", r.addr, err, ErrBackoff)
	}
	r.client = c
	r.dials.Inc()
	r.backoff = 0
	r.nextAttempt = time.Time{}
	c.Advance(r.clock)
	return c, nil
}

// retireLocked discards the current connection, keeping its loss count.
// Its writer has already failed, so Close returns at once. The caller holds
// r.mu.
func (r *ReconnectingClient) retireLocked() {
	_ = r.client.Close()
	r.lost += r.client.Dropped()
	r.client = nil
}

// jitterLocked draws the actual redial wait uniformly from [b/2, b] ("equal
// jitter"), desynchronizing agents whose connections died simultaneously.
// The caller holds r.mu.
func (r *ReconnectingClient) jitterLocked(b time.Duration) time.Duration {
	half := b / 2
	return half + time.Duration(r.rng.Int64N(int64(half)+1))
}

// Reconnects reports how many times the client successfully redialed after
// its initial connection.
func (r *ReconnectingClient) Reconnects() int64 {
	if n := r.dials.Value(); n > 1 {
		return n - 1
	}
	return 0
}

// BackoffFailures reports how many dial attempts failed and opened (or
// extended) the backoff window.
func (r *ReconnectingClient) BackoffFailures() int64 { return r.dialFailures.Value() }

// Dropped reports how many measurements were lost across all connections:
// backpressure rejections plus records queued on a connection when it died.
func (r *ReconnectingClient) Dropped() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.client != nil {
		return r.lost + r.client.Dropped()
	}
	return r.lost
}

// Connected reports whether a live connection is currently held.
func (r *ReconnectingClient) Connected() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.client != nil
}

// Close flushes and tears down the connection (see BatchClient.Close);
// subsequent Sends fail with ErrClosed. Safe to call more than once.
func (r *ReconnectingClient) Close() error {
	r.mu.Lock()
	c := r.client
	r.client, r.closed = nil, true
	r.mu.Unlock()
	if c == nil {
		return nil
	}
	// Outside mu: the final flush may take BatchClient.Close's grace window.
	err := c.Close()
	r.mu.Lock()
	r.lost += c.Dropped()
	r.mu.Unlock()
	return err
}
