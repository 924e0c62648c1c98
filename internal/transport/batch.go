package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// ErrBacklogged is returned by BatchClient.Send when the bounded send queue
// is full — the collector (or the network) is not draining as fast as the
// node samples. The measurement is dropped; callers should treat the step
// as not transmitted (the agent loop records it as a suppressed step, so
// the adaptive policy's budget accounting stays truthful) and simply try
// again on the next sample. Send never blocks inside a network write.
var ErrBacklogged = errors.New("transport: send queue full (backpressure)")

// Default BatchOptions values.
const (
	DefaultBatchSize    = 64
	DefaultLinger       = 25 * time.Millisecond
	DefaultMaxPending   = 1024
	DefaultWriteTimeout = 10 * time.Second
)

// BatchOptions tunes a batching client. The zero value selects the
// defaults above.
type BatchOptions struct {
	// BatchSize flushes the queue as soon as this many records are
	// pending, regardless of the linger timer.
	BatchSize int
	// Linger is the maximum time a pending record waits before a
	// size-incomplete batch is flushed anyway. It is also the heartbeat
	// cadence: a linger tick with no pending records but an advanced local
	// clock sends a heartbeat frame instead.
	Linger time.Duration
	// MaxPending bounds the send queue; Send returns ErrBacklogged beyond
	// it instead of blocking.
	MaxPending int
	// WriteTimeout is the per-flush write deadline, and bounds the dial. A
	// collector that stops draining (or never answers the connect) fails
	// within this bound instead of wedging the client forever.
	WriteTimeout time.Duration
	// Compress DEFLATE-compresses batch bodies (cheapest level). Worth it
	// for large batches over slow links; off by default.
	Compress bool
	// Mux allows records for any node on this connection (SendNode), for
	// aggregators that forward a whole rack's measurements over one
	// socket. Non-mux connections reject foreign node ids server-side.
	Mux bool
}

// withDefaults fills zero fields.
func (o BatchOptions) withDefaults() BatchOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = DefaultBatchSize
	}
	if o.Linger <= 0 {
		o.Linger = DefaultLinger
	}
	if o.MaxPending < o.BatchSize {
		o.MaxPending = DefaultMaxPending
		if o.MaxPending < o.BatchSize {
			o.MaxPending = o.BatchSize
		}
	}
	if o.WriteTimeout <= 0 {
		o.WriteTimeout = DefaultWriteTimeout
	}
	return o
}

// BatchClient is the wire-protocol client: it coalesces measurements into
// framed batches flushed by size or linger, keeps the connection's send
// queue bounded (surfacing backpressure through ErrBacklogged), and carries
// the node's local clock so the collector's eq. 5 accounting stays exact
// even when the policy suppresses every sample. One BatchClient is one
// connection: a write error is terminal. ReconnectingClient redials.
//
// All methods are safe for concurrent use.
type BatchClient struct {
	conn    net.Conn
	node    int
	opts    BatchOptions
	metrics BatchClientMetrics

	mu sync.Mutex
	// pending's Values are cut from vals, back to back; a flush takes both
	// and hands them back as spare and spareVals once written.
	pending   []Measurement
	vals      []float64
	spare     []Measurement // recycled containers for the next generation
	spareVals []float64
	clock     int // highest local step observed (Send or Advance)
	clockSent int // highest local step already on the wire
	dropped   int64
	closed    bool
	err       error // terminal writer error

	kick    chan struct{}   // capacity 1: "a full batch is waiting"
	flushCh chan chan error // explicit Flush requests
	closeCh chan struct{}
	done    chan struct{} // writer exited
}

// DialBatch connects to the collector and sends the hello for this node. The
// connect and the hello write are each bounded by opts.WriteTimeout.
func DialBatch(addr string, node int, opts BatchOptions) (*BatchClient, error) {
	if node < 0 {
		return nil, fmt.Errorf("transport: negative node %d: %w", node, ErrProtocol)
	}
	opts = opts.withDefaults()
	conn, err := net.DialTimeout("tcp", addr, opts.WriteTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	var flags uint64
	if opts.Mux {
		flags |= helloFlagMux
	}
	preamble := append([]byte(nil), magicV2[:]...)
	preamble = appendFrame(preamble, frameHello, appendHelloPayload(nil, node, flags))
	_ = conn.SetWriteDeadline(time.Now().Add(opts.WriteTimeout))
	if _, err := conn.Write(preamble); err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: hello: %w", err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	c := &BatchClient{
		conn:    conn,
		node:    node,
		opts:    opts,
		kick:    make(chan struct{}, 1),
		flushCh: make(chan chan error),
		closeCh: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.writeLoop()
	return c, nil
}

// Send enqueues one measurement for the client's node. It never blocks on
// the network: a full queue returns ErrBacklogged, a dead connection
// returns the terminal write error (ErrClosed after Close).
func (c *BatchClient) Send(step int, values []float64) error {
	return c.SendNode(c.node, step, values)
}

// SendNode enqueues a measurement for an explicit node; the connection must
// have been dialed with Mux for nodes other than the hello identity.
func (c *BatchClient) SendNode(node, step int, values []float64) error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return ErrClosed
	}
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if !c.opts.Mux && node != c.node {
		c.mu.Unlock()
		return fmt.Errorf("transport: node %d on non-mux connection of node %d: %w",
			node, c.node, ErrProtocol)
	}
	if len(c.pending) >= c.opts.MaxPending {
		c.dropped++
		c.mu.Unlock()
		return ErrBacklogged
	}
	// A record cut before vals moved keeps its values in the array it was
	// cut from, which nothing writes again.
	start := len(c.vals)
	c.vals = append(c.vals, values...)
	c.pending = append(c.pending, Measurement{
		Node: node, Step: step, Values: c.vals[start:len(c.vals):len(c.vals)],
	})
	if !c.opts.Mux && step > c.clock {
		c.clock = step
	}
	full := len(c.pending) >= c.opts.BatchSize
	c.mu.Unlock()
	if full {
		select {
		case c.kick <- struct{}{}:
		default:
		}
	}
	return nil
}

// Advance moves the node's local clock forward without transmitting a
// measurement — called by the agent loop for policy-suppressed steps. The
// clock rides on the next batch header, or on a heartbeat frame at the next
// linger tick when nothing else is pending, keeping the collector's eq. 5
// denominator in step with the agent's.
func (c *BatchClient) Advance(step int) {
	c.mu.Lock()
	if !c.closed && step > c.clock {
		c.clock = step
	}
	c.mu.Unlock()
}

// Dropped returns how many measurements were lost on this client: rejected
// by Send with ErrBacklogged, or still queued when a write failed and the
// connection died under them.
func (c *BatchClient) Dropped() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropped
}

// writeErr returns the terminal write error, nil while the connection is
// usable.
func (c *BatchClient) writeErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Flush synchronously writes everything pending (including a bare clock
// advance) and returns the write error, if any.
func (c *BatchClient) Flush() error {
	ack := make(chan error, 1)
	select {
	case c.flushCh <- ack:
		select {
		case err := <-ack:
			return err
		case <-c.done:
			return ErrClosed
		}
	case <-c.done:
		return ErrClosed
	}
}

// Close flushes pending records, tears the connection down, and waits for
// the writer goroutine. The final flush gets a bounded grace window
// (min(WriteTimeout, 1s)); past it — a collector that stopped draining —
// the in-flight write is interrupted and whatever could not be flushed is
// dropped, so Close stays prompt instead of waiting out a long
// WriteTimeout. Safe to call more than once.
func (c *BatchClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.done
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	close(c.closeCh)
	// Interrupting immediately would race the writer's own final flush
	// (which re-arms the deadline) and could kill a perfectly healthy last
	// write; waiting for WriteTimeout could stall Close for minutes. The
	// grace window separates the two deterministically.
	grace := time.Second
	if c.opts.WriteTimeout < grace {
		grace = c.opts.WriteTimeout
	}
	select {
	case <-c.done:
	case <-time.After(grace):
		_ = c.conn.SetWriteDeadline(time.Now())
		<-c.done
	}
	return c.conn.Close()
}

// writeLoop is the single writer: it drains the queue on size kicks, linger
// ticks, explicit flushes, and close.
func (c *BatchClient) writeLoop() {
	defer close(c.done)
	enc := &batchEncoder{compress: c.opts.Compress}
	ticker := time.NewTicker(c.opts.Linger)
	defer ticker.Stop()
	for {
		select {
		case <-c.closeCh:
			_ = c.flush(enc, true)
			return
		case ack := <-c.flushCh:
			ack <- c.flush(enc, true)
		case <-c.kick:
			_ = c.flush(enc, false)
		case <-ticker.C:
			_ = c.flush(enc, true)
		}
	}
}

// flush writes one batch (or heartbeat) frame. With all=false it only acts
// on a size-complete batch — the kick path — leaving stragglers to the
// linger tick.
func (c *BatchClient) flush(enc *batchEncoder, all bool) error {
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	if len(c.pending) == 0 && c.clock <= c.clockSent {
		c.mu.Unlock()
		return nil
	}
	if !all && len(c.pending) < c.opts.BatchSize {
		c.mu.Unlock()
		return nil
	}
	recs, vals := c.pending, c.vals
	c.pending, c.vals = c.spare[:0], c.spareVals[:0]
	c.spare, c.spareVals = nil, nil
	clock := c.clock
	c.mu.Unlock()

	// The server only honors a batch header's localStep on non-mux
	// connections (on mux it is ambiguous — records span nodes), so a mux
	// client's clock travels exclusively on heartbeat frames: don't claim
	// it as sent with a batch, or quiet linger ticks would never emit the
	// heartbeat and the collector's eq. 5 denominator would stall.
	headerClock := clock
	clockDelivered := true
	if c.opts.Mux && len(recs) > 0 {
		headerClock = 0
		clockDelivered = false
	}
	var frame []byte
	if len(recs) == 0 {
		enc.raw = appendHeartbeatPayload(enc.raw[:0], c.node, clock)
		frame = appendFrame(enc.frame[:0], frameHeartbeat, enc.raw)
	} else {
		payload, err := enc.encode(headerClock, recs)
		if err != nil {
			return c.fail(err, len(recs))
		}
		frame = appendFrame(enc.frame[:0], frameBatch, payload)
	}
	enc.frame = frame
	_ = c.conn.SetWriteDeadline(time.Now().Add(c.opts.WriteTimeout))
	if _, err := c.conn.Write(frame); err != nil {
		return c.fail(fmt.Errorf("transport: batch write: %w", err), len(recs))
	}
	c.metrics.FramesOut.Inc()
	c.metrics.BytesOut.Add(int64(len(frame)))
	if len(recs) == 0 {
		c.metrics.HeartbeatsOut.Inc()
	} else {
		c.metrics.BatchesOut.Inc()
		c.metrics.RecordsOut.Add(int64(len(recs)))
	}
	c.mu.Lock()
	if clockDelivered && clock > c.clockSent {
		c.clockSent = clock
	}
	if c.spare == nil {
		c.spare, c.spareVals = recs[:0], vals[:0]
	}
	c.mu.Unlock()
	return nil
}

// fail makes err the client's terminal error (ErrClosed when Close caused
// it) and counts what the dead connection takes with it: the inFlight
// records of the failed flush plus everything still queued — Send enqueues
// nothing once the error is set.
func (c *BatchClient) fail(err error, inFlight int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		err = ErrClosed
	}
	c.err = err
	c.dropped += int64(inFlight + len(c.pending))
	c.pending, c.vals = nil, nil
	return err
}
