package serve

import (
	"fmt"
	"math"
	"sort"

	"orcf/internal/core"
	"orcf/internal/mat"
	"orcf/internal/obs"
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

	// Per-node delivery tracking, keyed by stable node ID. lastStep is the
	// newest measurement step consumed or rejected; lastClock the newest
	// local clock observed (measurements or heartbeats). Entries are dropped
	// at eviction, together with the store entry, so a rejoining agent that
	// restarted its local step counter is not stuck under a stale
	// watermark.
	lastStep  map[int]int
	lastClock map[int]int
	rejected  obs.Counter // malformed records kept out of the pipeline

	// Dense per-slot buffers, regrown as the fleet grows: x[i] is nil or
	// rows[i], the view of slot i's row in the one frame every tick reads
	// the store into.
	arrived []bool
	x       [][]float64
	frame   *mat.Frame
	rows    [][]float64
	joiners []transport.NodeStat // newly heard nodes of the tick in flight
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
		frame:     mat.NewFrame(0, dims),
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
	if n <= len(st.x) {
		return
	}
	for len(st.x) < n {
		st.arrived = append(st.arrived, false)
		st.x = append(st.x, nil)
	}
	// Growing may move the frame's backing; every row fed to Step is written
	// afresh each tick, so only the views need re-taking.
	st.frame.Grow(n)
	st.rows = st.frame.RowViews(st.rows)
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
// result.
//
// A malformed record — the wrong dimensionality, a NaN or an infinity; the
// wire decoder admits any float bits — never enters the pipeline and never
// fails the tick: it counts as if the node had not reported (a member takes
// an absence tick, a new node is not joined) until the node's next record
// replaces it, and is counted once in orcf_ingest_rejected_records_total.
// Tick fails only when the step itself or its logging does.
//
// The store is read in place, under its lock, straight into the stepper's
// frame: one walk over the nodes that have reported, no per-tick copy of the
// store.
func (st *StoreStepper) Tick() (*core.StepResult, bool, error) {
	// The system may have been restored (roster and all) by a recovery that
	// replayed zero WAL records, bypassing Replay: resync the dense buffers
	// and the bootstrap flag with the recovered fleet.
	st.grow(st.sys.Slots())
	if !st.started && st.sys.Steps() > 0 {
		st.started = true
	}
	if !st.started && !st.gateOpen() {
		return nil, false, nil
	}

	// Members are fed as the walk meets them. IDs the system does not know
	// that have delivered at least one measurement are new reporters
	// (heartbeat-only nodes wait); they are kept aside and joined after the
	// walk. A stale entry of an evicted member cannot resurrect it because
	// eviction releases the member's store entry — only genuinely new data
	// re-registers an ID.
	n := st.sys.Slots()
	clear(st.x[:n])
	clear(st.arrived[:n])
	st.joiners = st.joiners[:0]
	st.store.EachReported(func(stat transport.NodeStat) {
		if !st.admit(stat) {
			return
		}
		if slot, member := st.sys.SlotOf(stat.Latest.Node); member {
			st.feed(slot, stat)
		} else {
			st.joiners = append(st.joiners, stat)
		}
	})
	if len(st.joiners) > 0 {
		// Sorted for deterministic slot binding.
		sort.Slice(st.joiners, func(a, b int) bool { return st.joiners[a].Latest.Node < st.joiners[b].Latest.Node })
		ids := make([]int, len(st.joiners))
		for j, stat := range st.joiners {
			ids[j] = stat.Latest.Node
		}
		if err := st.sys.AddNodes(ids...); err != nil {
			return nil, st.started, fmt.Errorf("serve: joining nodes: %w", err)
		}
		st.grow(st.sys.Slots())
		for _, stat := range st.joiners {
			slot, _ := st.sys.SlotOf(stat.Latest.Node)
			st.feed(slot, stat)
		}
	}

	roster := st.sys.Roster()
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

// gateOpen is the bootstrap gate: every pre-registered member must have
// reported, and the reporting fleet must at least reach K (the empty-roster
// elastic start waits for K joiners).
func (st *StoreStepper) gateOpen() bool {
	members, newcomers := 0, 0
	st.store.EachReported(func(stat transport.NodeStat) {
		switch {
		case !st.admit(stat):
		case st.sys.HasNode(stat.Latest.Node):
			members++
		default:
			newcomers++
		}
	})
	return members >= st.sys.LiveNodes() && members+newcomers >= st.k
}

// admit reports whether a node's latest record may enter the pipeline: it
// must come from a real node ID and carry dims finite values. A record that
// does not is counted the first time it is met (the store keeps it as the
// node's latest until a newer one arrives, and lastStep remembers it).
func (st *StoreStepper) admit(stat transport.NodeStat) bool {
	id, values := stat.Latest.Node, stat.Latest.Values
	if id < 0 || len(values) == 0 {
		return false // no node, or heartbeats only so far
	}
	ok := len(values) == st.dims
	// A NaN admitted here poisons every window mean, centroid, and forecast
	// it touches, and encoding/json cannot marshal it on the way back out.
	// This is the primary defense; the Finite* guards on response assembly
	// are the belt-and-braces fence.
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
	}
	if !ok && stat.Latest.Step > st.lastStep[id] {
		st.lastStep[id] = stat.Latest.Step
		st.rejected.Inc()
	}
	return ok
}

// RegisterMetrics exposes the stepper's rejected-record counter on reg.
func (st *StoreStepper) RegisterMetrics(reg *obs.Registry) {
	reg.Counter("orcf_ingest_rejected_records_total",
		"Malformed measurements (wrong dimensionality, NaN, ±Inf) kept out of the pipeline.", &st.rejected)
}

// feed copies the member in slot's admitted latest measurement into the
// slot's frame row for the step, unless the member takes an absence tick.
func (st *StoreStepper) feed(slot int, stat transport.NodeStat) {
	id := stat.Latest.Node
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
		return // clock stalled: absence tick for this member
	}
	st.arrived[slot] = fresh
	copy(st.rows[slot], stat.Latest.Values)
	st.x[slot] = st.rows[slot]
}
