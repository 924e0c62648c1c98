package serve

import (
	"fmt"
	"sort"

	"orcf/internal/core"
	"orcf/internal/mat"
	"orcf/internal/obs"
	"orcf/internal/transport"
)

// StoreStepper bridges the TCP collection plane into the pipeline: it drives
// an edge-less core.System (core.NewCentral) from a transport.Store. Agents
// make the transmission decisions on their side (§V-A runs at the edge), so
// the central node runs no policy — each Tick hands the store's latest
// values to System.StepArrivals with a node's row flagged as arrived iff a
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
// transport.Store.EachWritten): the newest measurement step consumed or
// rejected, the newest local clock seen, and the node's roster slot, each
// tagged with the entry generation it belongs to — a changed generation
// resets the watermark, so eviction only has to Forget the store entry —
// and the slot also with the roster it was looked up in, so SlotOf runs only
// for a node first seen or after a membership change.
//
// A tick reads only the store entries written since the previous tick: the
// rows and flags of the last tick stand for every other member. It is the
// stepper's single consumer of the store's written set.
type StoreStepper struct {
	sys     *core.System
	store   *transport.Store
	log     StepLog
	absence int // cfg.AbsenceTimeout: 0 = no liveness tracking

	marks    []watermark  // per store entry, grown as the store grows
	roster   *core.Roster // the membership cached slots were looked up in
	epoch    uint32       // bumped with every new roster; marks' slots of another epoch are stale
	rejected obs.Counter  // malformed records kept out of the pipeline

	// Dense per-slot buffers, regrown as the fleet grows: x[i] is nil or
	// the view of slot i's row in the one frame every tick reads the store
	// into, and src[i] the store entry that row was read from. They persist
	// between ticks: a tick rewrites the rows of written entries.
	arrived []bool
	x       [][]float64
	src     []int32
	frame   *mat.Frame
	joiners []joiner // newly heard nodes of the tick in flight
	// joinVals holds the joiners' values, back to back: the store's copy
	// may change once EachWritten has released its lock.
	joinVals []float64
}

// watermark is the stepper's delivery state for one store entry.
type watermark struct {
	gen   uint32 // the store entry generation the fields below belong to
	epoch uint32 // the roster epoch slot belongs to; 0 = not looked up
	step  int    // newest measurement step consumed or rejected
	clock int    // newest local clock observed (measurements or heartbeats)
	slot  int    // the node's roster slot, -1 when it is not a member
}

// joiner is a newly heard node of the tick in flight and its store entry;
// stat.Latest.Values is cut from StoreStepper.joinVals.
type joiner struct {
	entry int
	stat  transport.NodeStat
}

// StepLog records completed steps for durability. persist.Manager satisfies
// it; the stepper calls LogStep after every successful Tick with the fleet
// roster at step entry and the measurements and fresh-arrival flags it fed
// to StepArrivals — exactly what a replay needs to reproduce the step,
// membership changes included (see SetLog and Replay).
type StepLog interface {
	// LogStep records one completed step.
	LogStep(step int, roster *core.Roster, x [][]float64, arrived []bool) error
}

// NewStoreStepper builds an edge-less system (core.NewCentral, which ignores
// cfg.Policy) and wires it to the store.
func NewStoreStepper(store *transport.Store, cfg core.Config) (*StoreStepper, error) {
	if store == nil {
		return nil, fmt.Errorf("serve: nil store: %w", ErrBadConfig)
	}
	sys, err := core.NewCentral(cfg)
	if err != nil {
		return nil, err
	}
	// One frame row per slot, as wide as core resolves Resources (0 means 1).
	st := &StoreStepper{sys: sys, store: store, absence: cfg.AbsenceTimeout, frame: mat.NewFrame(0, max(cfg.Resources, 1))}
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
		st.src = append(st.src, -1)
	}
	// Growing may move the frame's backing. The membership grew with it, so
	// the next tick walks every entry and takes every row it feeds afresh.
	st.frame.Grow(n)
}

// System returns the driven pipeline (hand it to serve.Config.Source).
func (st *StoreStepper) System() *core.System { return st.sys }

// SetLog attaches a step log (typically a persist.Manager): every
// subsequent successful Tick is recorded with its roster and arrival flags.
// Attach it after recovery, before the first Tick.
func (st *StoreStepper) SetLog(log StepLog) { st.log = log }

// Replay re-applies one recovered step: it reconciles the logged fleet
// roster (so joins and departures land at the exact steps they originally
// happened) and hands StepArrivals the logged rows and arrival flags. It has
// the persist.ReplayFunc shape — hand it to persist.Manager.Recover.
func (st *StoreStepper) Replay(step int, ids []int, alive []bool, x [][]float64, arrived []bool) error {
	if err := st.sys.ReconcileRoster(ids, alive); err != nil {
		return err
	}
	_, err := st.sys.StepArrivals(x, arrived)
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
// frame, and only where it was written since the previous tick
// (transport.Store.EachWritten): a member whose entry nobody wrote keeps the
// previous tick's row, not arrived — or, with an AbsenceTimeout, takes an
// absence tick, since its clock did not move. Only the bootstrap ticks and
// the first tick after a membership change (or a failed join) walk every
// entry.
func (st *StoreStepper) Tick() (*core.StepResult, bool, error) {
	// A recovery that replayed no WAL record restored the fleet without a
	// Replay: size the dense buffers to it.
	st.grow(st.sys.Slots())
	all := st.syncRoster() || st.sys.Steps() == 0
	if st.sys.Steps() == 0 && !st.gateOpen() {
		return nil, false, nil
	}

	// Members are fed as the walk meets them. IDs the system does not know
	// that have delivered at least one measurement are new reporters
	// (heartbeat-only nodes wait); they are kept aside and joined after the
	// walk. A stale entry of an evicted member cannot resurrect it because
	// eviction releases the member's store entry — only genuinely new data
	// re-registers an ID.
	n := st.sys.Slots()
	if all || st.absence > 0 {
		clear(st.x[:n])
	}
	clear(st.arrived[:n])
	st.joiners, st.joinVals = st.joiners[:0], st.joinVals[:0]
	st.store.EachWritten(all, func(entry int, gen uint32, stat transport.NodeStat) {
		w := st.mark(entry, gen, stat)
		if w == nil {
			return // released, or known only through heartbeats
		}
		if !st.admit(w, stat.Latest) {
			// The record replaced one the member may have been fed.
			if slot := st.slotOf(w, stat.Latest.Node); slot >= 0 {
				st.x[slot] = nil
			}
			return
		}
		if slot := st.slotOf(w, stat.Latest.Node); slot >= 0 {
			st.feed(slot, entry, w, stat)
			return
		}
		// A joiner cut before joinVals moved keeps its values in the array
		// it was cut from, which nothing writes again.
		start := len(st.joinVals)
		st.joinVals = append(st.joinVals, stat.Latest.Values...)
		stat.Latest.Values = st.joinVals[start:len(st.joinVals):len(st.joinVals)]
		st.joiners = append(st.joiners, joiner{entry: entry, stat: stat})
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
			// The joiners' entries are not written again: forget the
			// roster, so the next tick walks every entry.
			st.roster = nil
			return nil, st.sys.Steps() > 0, fmt.Errorf("serve: joining nodes: %w", err)
		}
		st.grow(st.sys.Slots())
		for _, jn := range st.joiners {
			slot, _ := st.sys.SlotOf(jn.stat.Latest.Node)
			st.feed(slot, jn.entry, &st.marks[jn.entry], jn.stat)
		}
	}

	roster := st.sys.Roster()
	res, err := st.sys.StepArrivals(st.x[:roster.Slots()], st.arrived[:roster.Slots()])
	if err != nil {
		return nil, true, err
	}
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
// the last walk, and reports whether it did. A roster is immutable and the
// system hands out the same one until its membership changes, so pointer
// identity is the test; holding the pointer keeps it from being recycled
// into a false match.
func (st *StoreStepper) syncRoster() bool {
	r := st.sys.Roster()
	if r == st.roster {
		return false
	}
	st.roster = r
	st.epoch++
	return true
}

// mark returns the watermark of a store entry, reset when the entry has
// changed hands since the stepper last saw it, or nil when the entry holds
// no measurement. A tenancy that ended — the entry released, or taken again
// — first takes back the row it fed, unless that row is another entry's by
// now (the node's new entry, met earlier in the walk).
func (st *StoreStepper) mark(entry int, gen uint32, stat transport.NodeStat) *watermark {
	if entry >= len(st.marks) {
		st.marks = append(st.marks, make([]watermark, entry+1-len(st.marks))...)
	}
	w := &st.marks[entry]
	if w.gen != gen || stat.Updates == 0 {
		if slot := w.slot; w.epoch == st.epoch && slot >= 0 && st.src[slot] == int32(entry) {
			st.x[slot] = nil
		}
		if w.gen != gen {
			*w = watermark{gen: gen}
		}
		if stat.Updates == 0 {
			return nil
		}
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
		w := st.mark(entry, gen, stat)
		switch {
		case !st.admit(w, stat.Latest):
		case st.slotOf(w, stat.Latest.Node) >= 0:
			members++
		default:
			newcomers++
		}
	})
	return members >= st.sys.LiveNodes() && members+newcomers >= st.sys.Clusters()
}

// admit reports whether a node's latest record may enter the pipeline: it
// must come from a real node ID and carry dims values that core.InRange
// accepts. A record that does not — a zero-width one included — is counted
// the first time it is met (the store keeps it as the node's latest until a
// newer one arrives, and the watermark remembers it).
func (st *StoreStepper) admit(w *watermark, m transport.Measurement) bool {
	if m.Node < 0 {
		return false
	}
	ok := len(m.Values) == st.frame.Cols()
	// A record admitted here that core's checkStep rejects would fail the
	// whole step. A NaN would also poison every window mean, centroid and
	// forecast it touched: the Finite* guards on response assembly are the
	// belt-and-braces fence.
	for _, v := range m.Values {
		ok = ok && core.InRange(v)
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
		"Malformed measurements (wrong dimensionality, NaN, ±Inf, beyond ±100) kept out of the pipeline.", &st.rejected)
}

// feed copies the member in slot's admitted latest measurement, read from
// the store entry, into the slot's frame row for the step, unless the member
// takes an absence tick.
func (st *StoreStepper) feed(slot, entry int, w *watermark, stat transport.NodeStat) {
	// With liveness tracking off (no AbsenceTimeout), a quiet member
	// keeps being fed its last stored values — the pre-churn behavior.
	// With it on, a member whose local clock stalled (no measurements
	// and no heartbeats — agents heartbeat through suppressed steps)
	// takes an absence tick instead.
	fresh := stat.Latest.Step > w.step
	contacted := fresh || stat.LocalStep > w.clock || st.sys.Steps() == 0 || st.absence == 0
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
	st.x[slot] = st.frame.Row(slot)
	copy(st.x[slot], stat.Latest.Values)
	st.src[slot] = int32(entry)
}
