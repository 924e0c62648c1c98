package serve

// The differential oracle for the collector's one store: the map-based
// transport.Store and the StoreStepper walk over it as they were before the
// store became an index map over dense entries and the stepper's watermarks
// an entry-indexed column. Two deliberate differences from that code, both
// shared with the production code: a zero-width record is counted as
// rejected like any other wrong-width record (it used to leave the counter
// alone), and forget releases a node's store entry and watermarks together,
// as eviction always did — the old code only ever called Store.Forget at
// eviction, so a Forget from outside had no watermark rule to copy. The
// oracle is driven against the production pair by store_test.go.

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"orcf/internal/core"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

// oracleStore is the three-map store.
type oracleStore struct {
	mu      sync.RWMutex
	latest  map[int]transport.Measurement
	updates map[int]int
	clock   map[int]int // highest known local step per node (≥ latest.Step)
}

func newOracleStore() *oracleStore {
	return &oracleStore{
		latest:  make(map[int]transport.Measurement),
		updates: make(map[int]int),
		clock:   make(map[int]int),
	}
}

func (s *oracleStore) Apply(m transport.Measurement) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m.Step > s.clock[m.Node] {
		s.clock[m.Node] = m.Step
	}
	if prev, ok := s.latest[m.Node]; ok && prev.Step >= m.Step {
		return
	}
	s.latest[m.Node] = m
	s.updates[m.Node]++
}

func (s *oracleStore) Advance(node, step int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if step > s.clock[node] {
		s.clock[node] = step
	}
}

func (s *oracleStore) Forget(node int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.latest, node)
	delete(s.updates, node)
	delete(s.clock, node)
}

func (s *oracleStore) Latest(node int) (transport.Measurement, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.latest[node]
	return m, ok
}

func (s *oracleStore) Snapshot() map[int]transport.Measurement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]transport.Measurement, len(s.latest))
	for k, v := range s.latest {
		out[k] = v
	}
	return out
}

func (s *oracleStore) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.latest)
}

func (s *oracleStore) Stats() map[int]transport.NodeStat {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[int]transport.NodeStat, len(s.clock))
	for node := range s.clock {
		out[node] = s.statLocked(node)
	}
	for node := range s.latest {
		if _, ok := out[node]; !ok {
			out[node] = s.statLocked(node)
		}
	}
	return out
}

func (s *oracleStore) EachReported(fn func(transport.NodeStat)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for node := range s.latest {
		fn(s.statLocked(node))
	}
}

func (s *oracleStore) statLocked(node int) transport.NodeStat {
	st := transport.NodeStat{Latest: s.latest[node], Updates: s.updates[node], LocalStep: s.clock[node]}
	if st.LocalStep > 0 {
		st.Frequency = float64(st.Updates) / float64(st.LocalStep)
	}
	return st
}

// oracleStepper is the StoreStepper of the map-based store, without the step
// log.
type oracleStepper struct {
	sys     *core.System
	store   *oracleStore
	dims    int
	k       int
	absence int
	started bool

	lastStep  map[int]int
	lastClock map[int]int
	rejected  int

	arrived []bool
	x       [][]float64
	rows    [][]float64
	joiners []transport.NodeStat
}

type oracleMirror struct {
	stepper *oracleStepper
	node    int
}

func (p oracleMirror) Decide(t int, x, z []float64) bool {
	return p.stepper.arrived[p.node] || z == nil
}

func newOracleStepper(store *oracleStore, cfg core.Config) (*oracleStepper, error) {
	dims := cfg.Resources
	if dims == 0 {
		dims = 1
	}
	st := &oracleStepper{
		store:     store,
		dims:      dims,
		absence:   cfg.AbsenceTimeout,
		lastStep:  make(map[int]int),
		lastClock: make(map[int]int),
	}
	cfg.Policy = func(node int) (transmit.Policy, error) {
		return oracleMirror{stepper: st, node: node}, nil
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	st.sys = sys
	st.k = sys.Clusters()
	st.grow(sys.Slots())
	return st, nil
}

func (st *oracleStepper) grow(n int) {
	for len(st.x) < n {
		st.arrived = append(st.arrived, false)
		st.x = append(st.x, nil)
		st.rows = append(st.rows, make([]float64, st.dims))
	}
}

// forget releases a node's store entry and its delivery watermarks.
func (st *oracleStepper) forget(id int) {
	st.store.Forget(id)
	delete(st.lastStep, id)
	delete(st.lastClock, id)
}

func (st *oracleStepper) Tick() (*core.StepResult, bool, error) {
	st.grow(st.sys.Slots())
	if !st.started && st.sys.Steps() > 0 {
		st.started = true
	}
	if !st.started && !st.gateOpen() {
		return nil, false, nil
	}
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
	res, err := st.sys.Step(st.x[:st.sys.Slots()])
	if err != nil {
		return nil, true, err
	}
	st.started = true
	for _, id := range res.Evicted {
		st.forget(id)
	}
	return res, true, nil
}

func (st *oracleStepper) gateOpen() bool {
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

func (st *oracleStepper) admit(stat transport.NodeStat) bool {
	id, values := stat.Latest.Node, stat.Latest.Values
	if id < 0 {
		return false
	}
	ok := len(values) == st.dims
	for _, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			ok = false
		}
	}
	if !ok && stat.Latest.Step > st.lastStep[id] {
		st.lastStep[id] = stat.Latest.Step
		st.rejected++
	}
	return ok
}

func (st *oracleStepper) feed(slot int, stat transport.NodeStat) {
	id := stat.Latest.Node
	fresh := stat.Latest.Step > st.lastStep[id]
	contacted := fresh || stat.LocalStep > st.lastClock[id] || !st.started || st.absence == 0
	if fresh {
		st.lastStep[id] = stat.Latest.Step
	}
	if stat.LocalStep > st.lastClock[id] {
		st.lastClock[id] = stat.LocalStep
	}
	if !contacted {
		return
	}
	st.arrived[slot] = fresh
	copy(st.rows[slot], stat.Latest.Values)
	st.x[slot] = st.rows[slot]
}
