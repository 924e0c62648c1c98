// Package agent provides the node-side runtime of the collection plane: a
// loop that samples a measurement source, filters through a transmission
// policy (§V-A), and ships surviving measurements to the central collector.
// cmd/nodeagent is a thin wrapper around it.
//
// The transport is abstracted behind the Sender interface so the same loop
// runs over real TCP (transport.BatchClient, or transport.ReconnectingClient
// to outlive collector restarts) and over in-process fakes in tests.
//
// Fleet lifecycle: an agent needs no join or leave protocol. Its first
// delivered measurement makes the collector add the node to the fleet
// (warm-up behind the presence mask), and when the loop ends — source
// exhausted, MaxSteps reached, or context cancelled — the agent simply
// stops sampling, so its local clock stops advancing and the collector's
// absence timeout eventually evicts the node. Restarting an agent under
// the same node ID before the timeout resumes the same fleet member;
// restarting after eviction rejoins it with a fresh history.
package agent

import (
	"context"
	"errors"
	"fmt"
	"time"

	"orcf/internal/transmit"
	"orcf/internal/transport"
)

// ErrBadConfig reports invalid agent construction parameters.
var ErrBadConfig = errors.New("agent: invalid configuration")

// Source produces the node's measurement for a given 1-based step. The
// second return value is false when the source is exhausted, which ends the
// agent's run cleanly.
type Source func(step int) ([]float64, bool)

// Sender ships one measurement to the collector. transport.BatchClient and
// transport.ReconnectingClient satisfy this interface.
//
// A Sender may additionally implement Clock, and may report a transient
// rejection by returning transport.ErrBacklogged (queue full) or
// transport.ErrBackoff (collector outage being ridden out); see Agent.Run
// for how the loop reacts.
type Sender interface {
	Send(step int, values []float64) error
}

// Clock is optionally implemented by senders (both transport clients) that
// can carry the node's local step count to the collector independently of
// measurements. The agent advances it on every sampled step, so the
// central eq. 5 frequency accounting sees suppressed steps too.
type Clock interface {
	Advance(step int)
}

// Config assembles an Agent.
type Config struct {
	// Node is the agent's node identity.
	Node int
	// Policy decides per-step transmission; required.
	Policy transmit.Policy
	// Source produces measurements; required.
	Source Source
	// Sender ships measurements; required.
	Sender Sender
	// Interval is the sampling period. Zero means no pacing (run as fast
	// as the source allows) — useful for replay and tests. Negative is
	// rejected.
	Interval time.Duration
	// MaxSteps stops after this many steps (0 = until the source ends or
	// the context is cancelled). Negative is rejected.
	MaxSteps int
}

// Agent runs the per-node loop.
type Agent struct {
	cfg     Config
	meter   transmit.Meter
	stored  []float64
	clock   Clock // cfg.Sender when it implements Clock, else nil
	dropped int
}

// New validates the configuration.
func New(cfg Config) (*Agent, error) {
	if cfg.Policy == nil {
		return nil, fmt.Errorf("agent: nil policy: %w", ErrBadConfig)
	}
	if cfg.Source == nil {
		return nil, fmt.Errorf("agent: nil source: %w", ErrBadConfig)
	}
	if cfg.Sender == nil {
		return nil, fmt.Errorf("agent: nil sender: %w", ErrBadConfig)
	}
	if cfg.Node < 0 {
		return nil, fmt.Errorf("agent: node %d: %w", cfg.Node, ErrBadConfig)
	}
	if cfg.Interval < 0 {
		return nil, fmt.Errorf("agent: interval %v < 0: %w", cfg.Interval, ErrBadConfig)
	}
	if cfg.MaxSteps < 0 {
		return nil, fmt.Errorf("agent: max steps %d < 0: %w", cfg.MaxSteps, ErrBadConfig)
	}
	a := &Agent{cfg: cfg}
	a.clock, _ = cfg.Sender.(Clock)
	return a, nil
}

// Frequency returns the realized transmission frequency so far.
func (a *Agent) Frequency() float64 { return a.meter.Frequency() }

// Steps returns the number of processed steps.
func (a *Agent) Steps() int { return a.meter.Steps() }

// Dropped returns how many policy-approved transmissions the sender
// rejected transiently — backpressure (transport.ErrBacklogged) or a
// collector outage being ridden out (transport.ErrBackoff).
func (a *Agent) Dropped() int { return a.dropped }

// Run executes the loop until the context is cancelled, the source is
// exhausted, MaxSteps is reached, or a send fails. It returns nil on clean
// termination (including context cancellation).
//
// Backpressure is not a send failure: when the sender rejects a
// policy-approved transmission with transport.ErrBacklogged (bounded send
// queue full), the step is accounted as not transmitted — the meter records
// a suppressed step and the stored value stays stale, so the adaptive
// policy's drift term pushes it to retransmit once the queue drains. When
// the sender also implements Clock, every sampled step advances the
// collector-visible local clock regardless of the transmission decision.
func (a *Agent) Run(ctx context.Context) error {
	var ticker *time.Ticker
	if a.cfg.Interval > 0 {
		ticker = time.NewTicker(a.cfg.Interval)
		defer ticker.Stop()
	}
	for step := 1; a.cfg.MaxSteps == 0 || step <= a.cfg.MaxSteps; step++ {
		if ticker != nil {
			select {
			case <-ctx.Done():
				return nil
			case <-ticker.C:
			}
		} else if ctx.Err() != nil {
			return nil
		}
		x, ok := a.cfg.Source(step)
		if !ok {
			return nil
		}
		if a.clock != nil {
			a.clock.Advance(step)
		}
		transmitNow := a.cfg.Policy.Decide(step, x, a.stored)
		if transmitNow {
			switch err := a.cfg.Sender.Send(step, x); {
			case err == nil:
				a.stored = append(a.stored[:0], x...)
			case errors.Is(err, transport.ErrBacklogged), errors.Is(err, transport.ErrBackoff):
				// Transient: the send queue is full, or the reconnecting
				// client is riding out a collector outage. Either way the
				// step counts as suppressed and the loop goes on.
				transmitNow = false
				a.dropped++
			default:
				return fmt.Errorf("agent: node %d step %d: %w", a.cfg.Node, step, err)
			}
		}
		a.meter.Observe(transmitNow)
	}
	return nil
}

// ReplaySource adapts a dense measurement matrix (steps × resources) into a
// Source that ends after the last row.
func ReplaySource(rows [][]float64) Source {
	return func(step int) ([]float64, bool) {
		if step < 1 || step > len(rows) {
			return nil, false
		}
		return rows[step-1], true
	}
}

// LoopSource adapts a dense measurement matrix into a Source that wraps
// around forever.
func LoopSource(rows [][]float64) Source {
	return func(step int) ([]float64, bool) {
		if len(rows) == 0 {
			return nil, false
		}
		return rows[(step-1)%len(rows)], true
	}
}
