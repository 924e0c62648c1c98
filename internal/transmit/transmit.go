// Package transmit implements the measurement-collection policies of §V-A:
// the proposed Lyapunov drift-plus-penalty adaptive policy that decides, per
// time step, whether a local node uploads its latest measurement subject to a
// long-run transmission-frequency budget, plus the uniform-sampling baseline
// and the degenerate always-transmit policy used in tests and ablations.
//
// A policy sees the node's current true measurement x and the stale value z
// that the central node currently holds for this node (the last transmitted
// measurement), and returns the transmission indicator β ∈ {0,1}.
package transmit

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// ErrBadState reports state bytes that cannot restore a policy or meter.
var ErrBadState = errors.New("transmit: invalid state")

// ErrBadConfig is returned when a policy is constructed with invalid
// parameters.
var ErrBadConfig = errors.New("transmit: invalid configuration")

// Persistent is a Policy whose mutable decision state can be exported and
// restored, which is what lets a checkpointed pipeline resume with every
// node's adaptive policy exactly where it left off instead of re-learning
// its budget from scratch. MarshalState captures only the state that evolves
// across Decide calls (configuration is reconstructed by the caller);
// UnmarshalState replaces it. Restoring bytes produced by the same policy
// type and configuration yields bit-identical future decisions; bytes
// another policy type wrote should be rejected with ErrBadState, which is
// why this package's policies lead their state with a type tag.
type Persistent interface {
	Policy
	// MarshalState returns the policy's mutable decision state.
	MarshalState() ([]byte, error)
	// UnmarshalState replaces the policy's mutable decision state.
	UnmarshalState(data []byte) error
}

// Policy decides whether a node transmits at a given time step.
//
// The time step t is 1-based, matching the paper. x is the node's current
// measurement; z is the measurement currently stored at the central node for
// this node (nil before the first transmission). Both slices are only valid
// for the duration of the call — the central store reuses their backing
// arrays between steps — so implementations must copy any values they want
// to keep. Implementations may keep internal state and are not safe for
// concurrent use; each node owns its own Policy instance.
//
// What the edge walk of core.System.Step guarantees a policy it does not
// know: one Decide per step in which the node reports (none when silent), in
// ascending slot order on the stepping goroutine, with x the reported row
// and z the row stored for the node (nil until its first transmission); x
// is stored when Decide returns true, and always while z is nil (the
// central node stores every member's first report). A *Adaptive is the one policy the walk
// decides without this call — it computes the eq. 7 penalty from the store
// in place and calls DecidePenalty — so a type that wraps or embeds an
// Adaptive is decided through Decide, with the same result.
type Policy interface {
	// Decide returns true when the node should transmit at step t.
	Decide(t int, x, z []float64) bool
}

// Adaptive is the paper's drift-plus-penalty policy (§V-A).
//
// At each step it chooses β minimizing V_t·F_t(β) + Q(t)·Y(β) with
// F_t(0) = (1/d)‖z−x‖², F_t(1) = 0, Y(β) = β − B, and V_t = v0·(t+1)^γ.
// The virtual queue Q tracks cumulative budget violation:
// Q(t+1) = Q(t) + Y(β_t). The queue may go negative: a node whose data is
// static banks transmission budget it can spend in bursts when its
// measurements start changing.
type Adaptive struct {
	budget float64 // B, maximum long-run transmission frequency
	queue  float64
}

var _ Policy = (*Adaptive)(nil)

// The penalty weight V_t = v0·(t+1)^γ of eq. (9). γ is the paper's 0.65.
//
// On the scale of v0: the paper reports V0 = 1e-12, which only produces a
// meaningful penalty term when F is computed on raw-scale measurements
// (memory in bytes squares to ~1e18). This repository normalizes all
// measurements to [0,1], where F ≤ 1 and V0 = 1e-12 would make V_t·F
// vanish against the virtual queue — the decision would degenerate to a
// fixed near-uniform schedule with no error sensitivity. v0 is therefore
// 0.5, the equivalent operating point for normalized data: V_t·F is
// comparable to the queue's per-step movement, so large staleness errors
// trigger transmissions promptly while the queue drift still enforces the
// long-run budget (Q(t)/t → 0).
const (
	v0    = 0.5
	gamma = 0.65
)

// AdaptiveConfig parameterizes the Lyapunov policy.
type AdaptiveConfig struct {
	// Budget is B ∈ [0,1], the maximum long-run transmission frequency.
	Budget float64
}

// NewAdaptive builds the adaptive policy, validating the configuration.
func NewAdaptive(cfg AdaptiveConfig) (*Adaptive, error) {
	if cfg.Budget < 0 || cfg.Budget > 1 || math.IsNaN(cfg.Budget) {
		return nil, fmt.Errorf("transmit: budget %v outside [0,1]: %w", cfg.Budget, ErrBadConfig)
	}
	return &Adaptive{budget: cfg.Budget}, nil
}

// The factor (t+1)^γ of V_t is served from one table holding (t+1)^γ for
// t ∈ [0, len) as float64 bits, each entry computed on first use as
// math.Pow(float64(t)+1, γ) (0 bits mark an entry not computed yet). The
// table is published immutably through vtTable, so a hit is one atomic load
// and one index, with no math.Pow, no allocation and no lock, whatever order
// steps are asked in.
//
// The table starts at vtMinSteps entries and doubles to cover a t past it
// only once such a t is asked again (t ≤ vtMissed): a caller that only moves
// forward, as core's walk does with one call per step, keeps the first table
// and pays its math.Pow per step, while one that revisits steps (node-major
// replays, skewed goroutines) grows the table on its second pass. Memory is
// bounded at vtMaxSteps entries, 2^16 × 8 B = 512 KiB per process. Outside
// the table — t < 0 or t ≥ vtMaxSteps — StepPow is a plain math.Pow with no
// allocation.
const (
	vtMinSteps = 256
	vtMaxSteps = 1 << 16
)

var (
	vtTable  atomic.Pointer[[]atomic.Uint64]
	vtMu     sync.Mutex // guards growing the table, and vtMissed
	vtMissed int        // the largest t that missed the table
)

// StepPow returns (t+1)^γ, the time-varying factor of the penalty weight
// V_t = v0·(t+1)^γ. It is exactly math.Pow(float64(t)+1, γ), served from a
// table (see vtTable) so that a caller may decide at any step in any order
// for at most one math.Pow per call, and none once the entry is computed. It
// is what DecidePenalty takes as pow; a caller deciding many policies at one
// step takes it once.
func StepPow(t int) float64 {
	if tab := vtTable.Load(); tab != nil && uint(t) < uint(len(*tab)) {
		e := &(*tab)[t]
		if b := e.Load(); b != 0 {
			return math.Float64frombits(b)
		}
		p := math.Pow(float64(t)+1, gamma)
		e.Store(math.Float64bits(p))
		return p
	}
	return stepPowMiss(t)
}

// stepPowMiss serves a t past the table: it makes the first table, or grows
// the table to cover a t asked past it before, and publishes it, unless t
// lies outside the table's bounds. Entries are copied into a grown table as
// they stand; one computed concurrently into the old table is computed again
// on its next use.
func stepPowMiss(t int) float64 {
	p := math.Pow(float64(t)+1, gamma)
	if t < 0 || t >= vtMaxSteps {
		return p
	}
	vtMu.Lock()
	defer vtMu.Unlock()
	var old []atomic.Uint64
	if cur := vtTable.Load(); cur != nil {
		old = *cur
	}
	n := vtMinSteps
	switch {
	case old == nil:
		vtMissed = t
	case t < len(old):
		return p // grown since the miss
	case t > vtMissed:
		vtMissed = t // not asked before: grow on a second ask
		return p
	default:
		n = len(old)
		for n <= t {
			n *= 2
		}
	}
	pow := make([]atomic.Uint64, n)
	for j := range old {
		pow[j].Store(old[j].Load())
	}
	if t < n {
		pow[t].Store(math.Float64bits(p))
	}
	vtTable.Store(&pow)
	return p
}

// Decide implements Policy: the staleness penalty of eq. (7), then the
// drift-plus-penalty rule of eq. (8)-(9) in DecidePenalty.
func (a *Adaptive) Decide(t int, x, z []float64) bool {
	penalty := staleness(x, z)
	return a.DecidePenalty(StepPow(t), penalty)
}

// DecidePenalty is the drift-plus-penalty rule of eq. (8)-(9) — the one
// place a decision is taken and the virtual queue moves — given the
// staleness penalty F_t(0) = (1/d)‖z−x‖² of eq. (7) (+Inf while the central
// node holds nothing; F_t(1) is 0 by definition) and pow = StepPow(t).
// Decide computes both and calls it; core's ingest walk takes pow once per
// step and calls it directly with the penalty it takes straight off its
// store, so the two routes cannot drift apart. Small enough to inline into
// either.
//
// Value range. With x and z core.InRange values (finite, |v| ≤ 100) the
// penalty is at most (2·100)² = 4·10⁴, and V_t·F stays finite for every t:
// (t+1)^γ < 2.3·10¹² even at t = 2⁶³, so the product is below 10¹⁷. The only
// infinite penalty is the nothing-stored +Inf, which a finite queue always
// transmits on (pow ≥ 1, so v0·pow·(+Inf) is +Inf, never NaN). Outside the
// range a NaN penalty would make every compare false: the node would never
// transmit and its queue would only drain.
func (a *Adaptive) DecidePenalty(pow, penalty float64) bool {
	// Cost(β=0) = V_t·F − Q·B ; Cost(β=1) = Q·(1−B).
	// Transmitting wins iff Q(1−B) < V_t·F − Q·B ⇔ Q < V_t·F.
	transmit := a.queue < v0*pow*penalty

	// Virtual queue update Q ← Q + (β − B).
	if transmit {
		a.queue += 1 - a.budget
	} else {
		a.queue -= a.budget
	}
	return transmit
}

// MarshalState implements Persistent: the only state that evolves across
// decisions is the virtual queue Q.
func (a *Adaptive) MarshalState() ([]byte, error) { return marshalFloat('A', a.queue), nil }

// UnmarshalState implements Persistent.
func (a *Adaptive) UnmarshalState(data []byte) error {
	q, err := unmarshalFloat('A', data)
	if err != nil {
		return err
	}
	a.queue = q
	return nil
}

// marshalFloat encodes one float64 as the policy's type tag, then 8
// little-endian IEEE-754 bytes. Adaptive's tag is 'A' and Uniform's 'U':
// both hold one float64, so without the tag either would take the other's
// state.
func marshalFloat(tag byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(append(make([]byte, 0, 9), tag), math.Float64bits(v))
}

// unmarshalFloat decodes marshalFloat's bytes under the given tag. It also
// takes the 8 untagged bytes of states written before the tag.
func unmarshalFloat(tag byte, data []byte) (float64, error) {
	if len(data) == 9 && data[0] == tag {
		data = data[1:]
	}
	if len(data) != 8 {
		return 0, fmt.Errorf("transmit: state %x is no %q-tagged float64: %w", data, tag, ErrBadState)
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(data)), nil
}

// staleness is the paper's penalty F_t(0) = (1/d)·‖z − x‖². Before the first
// transmission the central node holds nothing, which we score as +Inf so any
// sane policy transmits immediately.
func staleness(x, z []float64) float64 {
	if len(z) == 0 {
		return math.Inf(1)
	}
	if len(x) != len(z) {
		return math.Inf(1)
	}
	var s float64
	for i := range x {
		d := x[i] - z[i]
		s += d * d
	}
	return s / float64(len(x))
}

// Uniform is the baseline that transmits at a fixed interval so the average
// frequency equals the budget. It accumulates budget credit each step and
// transmits whenever a full unit is available, which yields exactly-periodic
// behaviour when 1/B is an integer and near-periodic behaviour otherwise.
type Uniform struct {
	budget float64
	credit float64
}

var _ Policy = (*Uniform)(nil)

// NewUniform builds the uniform-sampling baseline with frequency budget b.
func NewUniform(b float64) (*Uniform, error) {
	if b < 0 || b > 1 || math.IsNaN(b) {
		return nil, fmt.Errorf("transmit: budget %v outside [0,1]: %w", b, ErrBadConfig)
	}
	// Start with a full credit so the first step always transmits, matching
	// the adaptive policy's cold-start behaviour.
	return &Uniform{budget: b, credit: 1}, nil
}

// Decide implements Policy; it ignores the measurement contents.
func (u *Uniform) Decide(int, []float64, []float64) bool {
	u.credit += u.budget
	if u.credit >= 1 {
		u.credit -= 1
		return true
	}
	return false
}

// MarshalState implements Persistent: the accumulated credit.
func (u *Uniform) MarshalState() ([]byte, error) { return marshalFloat('U', u.credit), nil }

// UnmarshalState implements Persistent.
func (u *Uniform) UnmarshalState(data []byte) error {
	c, err := unmarshalFloat('U', data)
	if err != nil {
		return err
	}
	u.credit = c
	return nil
}

// Always transmits every step (B = 1 upper bound).
type Always struct{}

var _ Policy = Always{}

// Decide implements Policy.
func (Always) Decide(int, []float64, []float64) bool { return true }

// MarshalState implements Persistent; Always carries no state.
func (Always) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements Persistent.
func (Always) UnmarshalState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("transmit: %d state bytes for Always, want 0: %w", len(data), ErrBadState)
	}
	return nil
}

// Meter tracks the realized transmission frequency of a node, used to produce
// Fig. 3 (requested vs actual frequency) and to verify the B-constraint.
type Meter struct {
	steps     int
	transmits int
}

// Observe records one decision.
func (m *Meter) Observe(transmitted bool) {
	m.steps++
	if transmitted {
		m.transmits++
	}
}

// Frequency returns the fraction of observed steps with a transmission, or 0
// before any observation.
func (m *Meter) Frequency() float64 {
	if m.steps == 0 {
		return 0
	}
	return float64(m.transmits) / float64(m.steps)
}

// Steps returns the number of observed decisions.
func (m *Meter) Steps() int { return m.steps }

// Transmits returns the number of observed transmissions.
func (m *Meter) Transmits() int { return m.transmits }

// Restore replaces the meter's counters, resuming eq. (5) frequency
// accounting from a checkpoint.
func (m *Meter) Restore(steps, transmits int) error {
	if steps < 0 || transmits < 0 || transmits > steps {
		return fmt.Errorf("transmit: meter counters %d/%d: %w", transmits, steps, ErrBadState)
	}
	m.steps, m.transmits = steps, transmits
	return nil
}
