package serve

import (
	"fmt"
	"math"
	"sort"

	"orcf/internal/core"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

// StoreStepper bridges the TCP collection plane into the pipeline: it drives
// a core.System from a transport.Store. Agents make the transmission
// decisions on their side (§V-A runs at the edge), so the central system
// must not re-filter — each Tick feeds the store's latest values through a
// policy that mirrors actual arrivals: a node "transmitted" in a tick iff a
// new measurement arrived since the previous tick. That keeps the system's
// z_t and per-node frequency accounting (eq. 5) faithful to what the network
// actually delivered.
//
// Fleet membership is elastic: the transport node IDs are the system's
// stable node IDs. Node IDs in [0, cfg.Nodes) are pre-registered at
// construction and gate the first step (every one of them must report
// before the pipeline starts); any other ID the store hears a measurement
// from afterwards joins the fleet at the next Tick, warms up behind the
// presence mask, and serves forecasts once its look-back fills. A member
// whose local clock stops advancing (no measurements and no heartbeats)
// stops counting as contacted; with cfg.AbsenceTimeout set it is evicted
// after that many silent ticks and its store entry released — rejoining
// later (same ID) starts a fresh lifecycle. Construction with cfg.Nodes ==
// 0 starts with an empty roster and gates the first step on K reporting
// nodes instead.
//
// Tick must be called from a single goroutine (it steps the System); the
// published snapshots make the results readable concurrently.
type StoreStepper struct {
	sys     *core.System
	store   *transport.Store
	log     StepLog
	dims    int
	k       int
	absence int // cfg.AbsenceTimeout: 0 = no liveness tracking
	started bool

	// Per-member delivery tracking, keyed by stable node ID. lastStep is
	// the newest measurement step consumed; lastClock the newest local
	// clock observed (measurements or heartbeats). Entries are dropped at
	// eviction, together with the store entry, so a rejoining agent that
	// restarted its local step counter is not stuck under a stale
	// watermark.
	lastStep  map[int]int
	lastClock map[int]int

	// Dense per-slot buffers, regrown as the fleet grows.
	arrived []bool
	x       [][]float64
	rows    [][]float64 // backing rows reused across ticks
}

// StepLog records completed steps for durability. persist.Manager satisfies
// it; the stepper calls LogStep after every successful Tick with the fleet
// roster at step entry, the measurements it fed to Step, and the
// fresh-arrival flags — exactly what a replay needs to reproduce the step,
// membership changes included (see SetLog and Replay).
type StepLog interface {
	// LogStep records one completed step.
	LogStep(step int, roster *core.Roster, x [][]float64, arrived []bool) error
}

// NewStoreStepper builds the system with an arrival-mirroring transmission
// policy and wires it to the store. cfg.Policy must be unset — the stepper
// owns the policy layer.
func NewStoreStepper(store *transport.Store, cfg core.Config) (*StoreStepper, error) {
	if store == nil {
		return nil, fmt.Errorf("serve: nil store: %w", ErrBadConfig)
	}
	if cfg.Policy != nil {
		return nil, fmt.Errorf("serve: store stepper owns the policy layer: %w", ErrBadConfig)
	}
	dims := cfg.Resources
	if dims == 0 {
		dims = 1
	}
	st := &StoreStepper{
		store:     store,
		dims:      dims,
		absence:   cfg.AbsenceTimeout,
		lastStep:  make(map[int]int),
		lastClock: make(map[int]int),
	}
	cfg.Policy = func(node int) (transmit.Policy, error) {
		return arrivalMirror{stepper: st, node: node}, nil
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	st.sys = sys
	st.k = sys.Clusters() // resolved K, not the raw zero-defaulted config
	st.grow(sys.Slots())
	return st, nil
}

// grow extends the dense per-slot buffers to n entries.
func (st *StoreStepper) grow(n int) {
	for len(st.arrived) < n {
		st.arrived = append(st.arrived, false)
	}
	for len(st.x) < n {
		st.x = append(st.x, nil)
		st.rows = append(st.rows, make([]float64, st.dims))
	}
}

// arrivalMirror reports a node as transmitting exactly when the stepper saw
// a new measurement for it this tick.
type arrivalMirror struct {
	stepper *StoreStepper
	node    int
}

// Decide implements transmit.Policy.
func (p arrivalMirror) Decide(t int, x, z []float64) bool {
	return p.stepper.arrived[p.node] || z == nil
}

// MarshalState implements transmit.Persistent. The mirror itself carries no
// state — the arrival flags it reads are recorded per step in the WAL and
// fed back through Replay during recovery.
func (p arrivalMirror) MarshalState() ([]byte, error) { return nil, nil }

// UnmarshalState implements transmit.Persistent.
func (p arrivalMirror) UnmarshalState(data []byte) error {
	if len(data) != 0 {
		return fmt.Errorf("serve: %d state bytes for arrival mirror, want 0: %w",
			len(data), ErrBadConfig)
	}
	return nil
}

// System returns the driven pipeline (hand it to serve.Config.Source).
func (st *StoreStepper) System() *core.System { return st.sys }

// SetLog attaches a step log (typically a persist.Manager): every
// subsequent successful Tick is recorded with its roster and arrival flags.
// Attach it after recovery, before the first Tick.
func (st *StoreStepper) SetLog(log StepLog) { st.log = log }

// Replay re-applies one recovered step: it reconciles the logged fleet
// roster (so joins and departures land at the exact steps they originally
// happened), installs the logged arrival flags (so the arrival-mirroring
// policies decide exactly as they did originally), and steps the system
// with the logged measurements. It has the persist.ReplayFunc shape — hand
// it to persist.Manager.Recover.
func (st *StoreStepper) Replay(step int, ids []int, alive []bool, x [][]float64, arrived []bool) error {
	if err := st.sys.ReconcileRoster(ids, alive); err != nil {
		return err
	}
	st.grow(st.sys.Slots())
	if len(x) != st.sys.Slots() || len(arrived) != st.sys.Slots() {
		return fmt.Errorf("serve: replay record for %d/%d slots, want %d: %w",
			len(x), len(arrived), st.sys.Slots(), core.ErrBadInput)
	}
	copy(st.arrived, arrived)
	st.started = true
	_, err := st.sys.Step(x)
	return err
}

// Tick ingests the store's current state as one pipeline step. Before the
// first step it returns ok=false without stepping until the bootstrap gate
// opens: every pre-registered node (or, from an empty roster, at least K
// distinct nodes) must have reported a first measurement. After that it
// joins newly heard node IDs, feeds every live member its latest stored
// values (nil — an absence-timeout tick — when the member's local clock has
// not advanced since the previous tick), and reports evictions in the step
// result. A measurement with a mismatched dimensionality fails the tick.
func (st *StoreStepper) Tick() (*core.StepResult, bool, error) {
	// The system may have been restored (roster and all) by a recovery that
	// replayed zero WAL records, bypassing Replay: resync the dense buffers
	// and the bootstrap flag with the recovered fleet.
	st.grow(st.sys.Slots())
	if !st.started && st.sys.Steps() > 0 {
		st.started = true
	}
	stats := st.store.Stats()

	// Join new reporters: IDs the system does not know that have delivered
	// at least one measurement (heartbeat-only nodes wait). A stale entry
	// of an evicted member cannot resurrect it because eviction releases
	// the member's store entry — only genuinely new data re-registers an
	// ID. Sorted for deterministic slot binding.
	var joiners []int
	for id, stat := range stats {
		if id < 0 || st.sys.HasNode(id) || len(stat.Latest.Values) == 0 {
			continue
		}
		joiners = append(joiners, id)
	}
	sort.Ints(joiners)

	if !st.started {
		// Bootstrap gate: every pre-registered member must report, and the
		// reporting fleet must at least reach K (the empty-roster elastic
		// start waits for K joiners).
		memberReported := 0
		for _, id := range st.sys.Members() {
			if stat, ok := stats[id]; ok && len(stat.Latest.Values) > 0 {
				memberReported++
			}
		}
		if memberReported < st.sys.LiveNodes() || memberReported+len(joiners) < st.k {
			return nil, false, nil
		}
	}
	if len(joiners) > 0 {
		if err := st.sys.AddNodes(joiners...); err != nil {
			return nil, st.started, fmt.Errorf("serve: joining nodes: %w", err)
		}
		st.grow(st.sys.Slots())
	}

	roster := st.sys.Roster()
	for i := 0; i < roster.Slots(); i++ {
		st.x[i] = nil
		st.arrived[i] = false
		id, live := roster.IDAt(i)
		if !live {
			continue
		}
		stat, ok := stats[id]
		if !ok || len(stat.Latest.Values) == 0 {
			continue // pre-registered, never reported: absence tick
		}
		if len(stat.Latest.Values) != st.dims {
			return nil, st.started, fmt.Errorf("serve: node %d sent %d values, want %d: %w",
				id, len(stat.Latest.Values), st.dims, core.ErrBadInput)
		}
		// Reject non-finite measurements at the door: a NaN admitted here
		// poisons every window mean, centroid, and forecast it touches, and
		// encoding/json cannot marshal it on the way back out. This is the
		// primary defense; the Finite* guards on response assembly are the
		// belt-and-braces fence.
		for _, v := range stat.Latest.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, st.started, fmt.Errorf("serve: node %d sent non-finite value %v: %w",
					id, v, core.ErrBadInput)
			}
		}
		// With liveness tracking off (no AbsenceTimeout), a quiet member
		// keeps being fed its last stored values — the pre-churn behavior.
		// With it on, a member whose local clock stalled (no measurements
		// and no heartbeats — agents heartbeat through suppressed steps)
		// takes an absence tick instead.
		fresh := stat.Latest.Step > st.lastStep[id]
		contacted := fresh || stat.LocalStep > st.lastClock[id] || !st.started || st.absence == 0
		if fresh {
			st.lastStep[id] = stat.Latest.Step
		}
		if stat.LocalStep > st.lastClock[id] {
			st.lastClock[id] = stat.LocalStep
		}
		if !contacted {
			continue // clock stalled: absence tick for this member
		}
		st.arrived[i] = fresh
		copy(st.rows[i], stat.Latest.Values)
		st.x[i] = st.rows[i]
	}

	res, err := st.sys.Step(st.x[:roster.Slots()])
	if err != nil {
		return nil, true, err
	}
	st.started = true
	// Release evicted members' store entries and delivery watermarks so the
	// stepper does not grow without bound under churn; a rejoining node
	// (whose restarted agent may well restart its step counter) re-registers
	// itself with its next measurement and starts fresh accounting.
	for _, id := range res.Evicted {
		st.store.Forget(id)
		delete(st.lastStep, id)
		delete(st.lastClock, id)
	}
	if st.log != nil {
		if err := st.log.LogStep(res.T, roster, st.x[:roster.Slots()], st.arrived[:roster.Slots()]); err != nil {
			return nil, true, fmt.Errorf("serve: logging step %d: %w", res.T, err)
		}
	}
	return res, true, nil
}
