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
//
// The stepper keeps no map. What it remembers per node between ticks is a
// watermark column indexed by the store's entries (see
// transport.Store.EachReported): the newest measurement step consumed or
// rejected, the newest local clock seen, and the node's roster slot, each
// tagged with the entry generation it belongs to — a changed generation
// resets the watermark, so eviction only has to Forget the store entry —
// and the slot also with the roster it was looked up in, so SlotOf runs only
// for a node first seen or after a membership change.
type StoreStepper struct {
	sys     *core.System
	store   *transport.Store
	log     StepLog
	dims    int
	k       int
	absence int // cfg.AbsenceTimeout: 0 = no liveness tracking
	started bool

	marks    []watermark  // per store entry, grown as the store grows
	roster   *core.Roster // the membership cached slots were looked up in
	epoch    uint32       // bumped with every new roster; marks' slots of another epoch are stale
	rejected obs.Counter  // malformed records kept out of the pipeline

	// Dense per-slot buffers, regrown as the fleet grows: x[i] is nil or
	// rows[i], the view of slot i's row in the one frame every tick reads
	// the store into.
	arrived []bool
	x       [][]float64
	frame   *mat.Frame
	rows    [][]float64
	joiners []joiner // newly heard nodes of the tick in flight
}

// watermark is the stepper's delivery state for one store entry.
type watermark struct {
	gen   uint32 // the store entry generation the fields below belong to
	epoch uint32 // the roster epoch slot belongs to; 0 = not looked up
	step  int    // newest measurement step consumed or rejected
	clock int    // newest local clock observed (measurements or heartbeats)
	slot  int    // the node's roster slot, -1 when it is not a member
}

// joiner is a newly heard node of the tick in flight and its store entry.
type joiner struct {
	entry int
	stat  transport.NodeStat
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
		store:   store,
		dims:    dims,
		absence: cfg.AbsenceTimeout,
		frame:   mat.NewFrame(0, dims),
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
// frame: one walk over the store's entries, no per-tick copy of the store and
// no map lookup for a node whose entry and roster slot the stepper already
// knows.
func (st *StoreStepper) Tick() (*core.StepResult, bool, error) {
	// The system may have been restored (roster and all) by a recovery that
	// replayed zero WAL records, bypassing Replay: resync the dense buffers
	// and the bootstrap flag with the recovered fleet.
	st.grow(st.sys.Slots())
	if !st.started && st.sys.Steps() > 0 {
		st.started = true
	}
	st.syncRoster()
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
	st.store.EachReported(func(entry int, gen uint32, stat transport.NodeStat) {
		w := st.mark(entry, gen)
		if !st.admit(w, stat.Latest) {
			return
		}
		if slot := st.slotOf(w, stat.Latest.Node); slot >= 0 {
			st.feed(slot, w, stat)
		} else {
			st.joiners = append(st.joiners, joiner{entry: entry, stat: stat})
		}
	})
	if len(st.joiners) > 0 {
		// Sorted for deterministic slot binding.
		sort.Slice(st.joiners, func(a, b int) bool {
			return st.joiners[a].stat.Latest.Node < st.joiners[b].stat.Latest.Node
		})
		ids := make([]int, len(st.joiners))
		for j, jn := range st.joiners {
			ids[j] = jn.stat.Latest.Node
		}
		if err := st.sys.AddNodes(ids...); err != nil {
			return nil, st.started, fmt.Errorf("serve: joining nodes: %w", err)
		}
		st.grow(st.sys.Slots())
		for _, jn := range st.joiners {
			slot, _ := st.sys.SlotOf(jn.stat.Latest.Node)
			st.feed(slot, &st.marks[jn.entry], jn.stat)
		}
	}

	roster := st.sys.Roster()
	res, err := st.sys.Step(st.x[:roster.Slots()])
	if err != nil {
		return nil, true, err
	}
	st.started = true
	// Release evicted members' store entries so the store does not grow
	// without bound under churn. Their watermarks go with them: the next
	// tenant of a freed entry (a rejoining node whose restarted agent may
	// well restart its step counter, or another node) carries a new entry
	// generation, and mark resets the watermark when it sees one.
	for _, id := range res.Evicted {
		st.store.Forget(id)
	}
	if st.log != nil {
		if err := st.log.LogStep(res.T, roster, st.x[:roster.Slots()], st.arrived[:roster.Slots()]); err != nil {
			return nil, true, fmt.Errorf("serve: logging step %d: %w", res.T, err)
		}
	}
	return res, true, nil
}

// syncRoster starts a new slot-cache epoch when the membership changed since
// the last walk. A roster is immutable and the system hands out the same one
// until its membership changes, so pointer identity is the test; holding the
// pointer keeps it from being recycled into a false match.
func (st *StoreStepper) syncRoster() {
	if r := st.sys.Roster(); r != st.roster {
		st.roster = r
		st.epoch++
	}
}

// mark returns the watermark of a store entry, reset when the entry has
// changed hands since the stepper last saw it.
func (st *StoreStepper) mark(entry int, gen uint32) *watermark {
	if entry >= len(st.marks) {
		st.marks = append(st.marks, make([]watermark, entry+1-len(st.marks))...)
	}
	w := &st.marks[entry]
	if w.gen != gen {
		*w = watermark{gen: gen}
	}
	return w
}

// slotOf returns the roster slot of the entry's node, -1 when it is not a
// member, looking it up only when the cached answer belongs to an older
// roster.
func (st *StoreStepper) slotOf(w *watermark, id int) int {
	if w.epoch != st.epoch {
		slot, ok := st.roster.SlotOf(id)
		if !ok {
			slot = -1
		}
		w.slot, w.epoch = slot, st.epoch
	}
	return w.slot
}

// gateOpen is the bootstrap gate: every pre-registered member must have
// reported, and the reporting fleet must at least reach K (the empty-roster
// elastic start waits for K joiners).
func (st *StoreStepper) gateOpen() bool {
	members, newcomers := 0, 0
	st.store.EachReported(func(entry int, gen uint32, stat transport.NodeStat) {
		w := st.mark(entry, gen)
		switch {
		case !st.admit(w, stat.Latest):
		case st.slotOf(w, stat.Latest.Node) >= 0:
			members++
		default:
			newcomers++
		}
	})
	return members >= st.sys.LiveNodes() && members+newcomers >= st.k
}

// admit reports whether a node's latest record may enter the pipeline: it
// must come from a real node ID and carry dims finite values. A record that
// does not — a zero-width one included — is counted the first time it is met
// (the store keeps it as the node's latest until a newer one arrives, and the
// watermark remembers it).
func (st *StoreStepper) admit(w *watermark, m transport.Measurement) bool {
	if m.Node < 0 {
		return false
	}
	ok := len(m.Values) == st.dims
	// A NaN admitted here poisons every window mean, centroid, and forecast
	// it touches, and encoding/json cannot marshal it on the way back out.
	// This is the primary defense; the Finite* guards on response assembly
	// are the belt-and-braces fence.
	for _, v := range m.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
	}
	if !ok && m.Step > w.step {
		w.step = m.Step
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
func (st *StoreStepper) feed(slot int, w *watermark, stat transport.NodeStat) {
	// With liveness tracking off (no AbsenceTimeout), a quiet member
	// keeps being fed its last stored values — the pre-churn behavior.
	// With it on, a member whose local clock stalled (no measurements
	// and no heartbeats — agents heartbeat through suppressed steps)
	// takes an absence tick instead.
	fresh := stat.Latest.Step > w.step
	contacted := fresh || stat.LocalStep > w.clock || !st.started || st.absence == 0
	if fresh {
		w.step = stat.Latest.Step
	}
	if stat.LocalStep > w.clock {
		w.clock = stat.LocalStep
	}
	if !contacted {
		return // clock stalled: absence tick for this member
	}
	st.arrived[slot] = fresh
	copy(st.rows[slot], stat.Latest.Values)
	st.x[slot] = st.rows[slot]
}
