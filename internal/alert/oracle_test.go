package alert

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// referenceKey addresses one (rule, target) automaton. Rule names are unique
// and each rule has a fixed scope, so (name, target) cannot collide across
// scopes.
type referenceKey struct {
	rule   string
	target int
}

// referenceInstance is one live automaton plus its display state.
type referenceInstance struct {
	rule      *Rule
	cluster   int // -1 for node scope
	node      int // -1 for cluster scope
	m         *StateMachine
	sinceStep int
	sinceGen  uint64
}

// referenceEngine is the map-keyed Engine kept verbatim (names prefixed) as
// TestEngineMatchesReference's oracle: every evaluation looks each (rule,
// target) instance up by stable ID in one map and walks that map for
// departures. A rewrite of the engine's walk — a slot-indexed instance
// table, say — must reproduce its events, order included, its Stats and its
// Active.
type referenceEngine struct {
	cfg   Config
	rules *RuleSet

	mu        sync.Mutex
	instances map[referenceKey]*referenceInstance
	lastGen   uint64
	firing    int
	fires     int64
	resolves  int64
	evals     int64
	nanSkips  int64
	targetErr int64
}

// newReferenceEngine validates the configuration and builds the engine.
func newReferenceEngine(cfg Config) (*referenceEngine, error) {
	if cfg.Rules == nil {
		return nil, fmt.Errorf("alert: nil rule set: %w", ErrBadRule)
	}
	if err := cfg.Rules.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxHorizon > 0 && cfg.Rules.MaxHorizon() > cfg.MaxHorizon {
		return nil, fmt.Errorf("alert: rule horizon %d exceeds snapshot horizon %d: %w",
			cfg.Rules.MaxHorizon(), cfg.MaxHorizon, ErrBadRule)
	}
	return &referenceEngine{
		cfg:       cfg,
		rules:     cfg.Rules,
		instances: make(map[referenceKey]*referenceInstance),
	}, nil
}

// Evaluate runs every rule against one published snapshot and delivers the
// resulting transition events to the sinks, in deterministic order (rule
// order, then ascending target). It is a no-op for a nil snapshot, a
// generation at or below the newest one already evaluated, or a snapshot
// whose models are not trained yet. The returned events are the caller's to
// keep. Reading forecasts off a published snapshot cannot fail, so the error
// is always nil; it stays in the signature for the callers that check it.
func (e *referenceEngine) Evaluate(snap *core.Snapshot) ([]Event, error) {
	if snap == nil {
		return nil, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if snap.Generation() <= e.lastGen {
		return nil, nil
	}
	e.lastGen = snap.Generation()
	if !snap.Ready() {
		return nil, nil
	}

	var events []Event
	for i := range e.rules.Rules {
		r := &e.rules.Rules[i]
		if r.Tracker >= snap.Trackers() || r.Horizon > snap.MaxHorizon() {
			e.targetErr++
			continue
		}
		switch r.Scope {
		case ScopeCluster:
			events = e.evalClusterRule(snap, r, events)
		case ScopeNode:
			events = e.evalNodeRule(snap, r, events)
		}
	}
	events = append(events, e.dropDeparted(snap)...)

	for _, ev := range events {
		for _, s := range e.cfg.Sinks {
			s.Deliver(ev)
		}
	}
	return events, nil
}

// evalClusterRule evaluates one cluster-scope rule against the snapshot's
// precomputed centroid forecasts.
func (e *referenceEngine) evalClusterRule(snap *core.Snapshot, r *Rule, events []Event) []Event {
	lo, hi := 0, snap.Clusters()
	if r.Cluster >= 0 {
		if r.Cluster >= snap.Clusters() {
			e.targetErr++
			return events
		}
		lo, hi = r.Cluster, r.Cluster+1
	}
	for j := lo; j < hi; j++ {
		first, okFirst := snap.CentroidForecastAt(r.Tracker, j, r.Dim, 0)
		at, okAt := snap.CentroidForecastAt(r.Tracker, j, r.Dim, r.Horizon-1)
		if !okFirst || !okAt {
			e.targetErr++
			continue
		}
		events = e.observe(snap, r, j, -1, e.ruleValue(r, first, at), events)
	}
	return events
}

// evalNodeRule evaluates one node-scope rule against the per-node forecasts:
// eq. (12) makes each the centroid forecast plus the node's offset, read
// through the snapshot's forecast plan (built when the snapshot was
// published, shared with the serving plane) at the one or two horizons the
// rule needs.
func (e *referenceEngine) evalNodeRule(snap *core.Snapshot, r *Rule, events []Event) []Event {
	// The resource is dimension Dim of the rule's tracker: the tracker's
	// own resource under scalar clustering, resource Dim under joint.
	width := snap.Resources() / snap.Trackers()
	if r.Dim >= width {
		e.targetErr++
		return events
	}
	res := r.Tracker*width + r.Dim
	plan := snap.Plan()
	roster := snap.Roster()
	for slot := 0; slot < snap.Nodes(); slot++ {
		id, live := roster.IDAt(slot)
		if !live {
			continue
		}
		v := e.ruleValue(r, plan.At(slot, res, 0), plan.At(slot, res, r.Horizon-1))
		events = e.observe(snap, r, -1, id, v, events)
	}
	return events
}

// ruleValue turns the two ends of one forecast series — the values at
// horizon 1 and at the rule's horizon — into the rule's evaluated value: the
// value at the horizon for threshold rules, the per-hour slope across the
// horizon for trend rules. NaN propagates (a warming row stays a skip).
func (e *referenceEngine) ruleValue(r *Rule, first, at float64) float64 {
	if r.Kind == KindThreshold {
		return at
	}
	return (at - first) / float64(r.Horizon-1) * float64(e.rules.StepsPerHour)
}

// observe feeds one evaluated value to the (rule, target) instance, creating
// it on first contact, and appends any transition event.
func (e *referenceEngine) observe(snap *core.Snapshot, r *Rule, cluster, node int, v float64, events []Event) []Event {
	if math.IsNaN(v) {
		e.nanSkips++
		return events
	}
	target := cluster
	if r.Scope == ScopeNode {
		target = node
	}
	key := referenceKey{rule: r.Name, target: target}
	inst := e.instances[key]
	if inst == nil {
		inst = &referenceInstance{rule: r, cluster: cluster, node: node, m: NewStateMachine(r)}
		e.instances[key] = inst
	}
	e.evals++
	switch inst.m.Observe(v) {
	case TransitionFire:
		e.fires++
		e.firing++
		inst.sinceStep = snap.Steps()
		inst.sinceGen = snap.Generation()
		events = append(events, e.event(snap, inst, StateFiring, v, ""))
	case TransitionResolve:
		e.resolves++
		e.firing--
		events = append(events, e.event(snap, inst, StateResolved, v, ""))
	}
	return events
}

// dropDeparted retires instances whose node left the fleet, resolving any
// that were firing (reason "departed") in deterministic order.
func (e *referenceEngine) dropDeparted(snap *core.Snapshot) []Event {
	roster := snap.Roster()
	var gone []referenceKey
	for key, inst := range e.instances {
		if inst.node < 0 {
			continue
		}
		if _, ok := roster.SlotOf(inst.node); !ok {
			gone = append(gone, key)
		}
	}
	sort.Slice(gone, func(i, j int) bool {
		if gone[i].rule != gone[j].rule {
			return gone[i].rule < gone[j].rule
		}
		return gone[i].target < gone[j].target
	})
	var events []Event
	for _, key := range gone {
		inst := e.instances[key]
		delete(e.instances, key)
		if inst.m.Firing() {
			e.resolves++
			e.firing--
			last, _ := inst.m.Last()
			events = append(events, e.event(snap, inst, StateResolved, last, "departed"))
		}
	}
	return events
}

// event assembles one transition event from an referenceInstance.
func (e *referenceEngine) event(snap *core.Snapshot, inst *referenceInstance, state string, v float64, reason string) Event {
	return Event{
		Rule:       inst.rule.Name,
		Kind:       inst.rule.Kind,
		Scope:      inst.rule.Scope,
		State:      state,
		Tracker:    inst.rule.Tracker,
		Cluster:    inst.cluster,
		Node:       inst.node,
		Value:      v,
		Threshold:  inst.rule.Threshold,
		Horizon:    inst.rule.Horizon,
		Generation: snap.Generation(),
		Step:       snap.Steps(),
		Reason:     reason,
	}
}

// Active returns the currently firing instances, sorted by rule name then
// target, with their latest evaluated values.
func (e *referenceEngine) Active() []Active {
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []Active
	for _, inst := range e.instances {
		if !inst.m.Firing() {
			continue
		}
		last, _ := inst.m.Last()
		out = append(out, Active{
			Rule:            inst.rule.Name,
			Kind:            inst.rule.Kind,
			Scope:           inst.rule.Scope,
			Tracker:         inst.rule.Tracker,
			Cluster:         inst.cluster,
			Node:            inst.node,
			Value:           last,
			Threshold:       inst.rule.Threshold,
			SinceStep:       inst.sinceStep,
			SinceGeneration: inst.sinceGen,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rule != out[j].Rule {
			return out[i].Rule < out[j].Rule
		}
		if out[i].Cluster != out[j].Cluster {
			return out[i].Cluster < out[j].Cluster
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Stats returns the engine's cumulative accounting, including aggregated
// sink delivery stats.
func (e *referenceEngine) Stats() Stats {
	e.mu.Lock()
	st := Stats{
		Rules:          len(e.rules.Rules),
		Firing:         e.firing,
		Fires:          e.fires,
		Resolves:       e.resolves,
		Evaluations:    e.evals,
		NaNSkips:       e.nanSkips,
		TargetErrors:   e.targetErr,
		LastGeneration: e.lastGen,
	}
	e.mu.Unlock()
	for _, s := range e.cfg.Sinks {
		if sr, ok := s.(StatsReporter); ok {
			ss := sr.SinkStats()
			st.Sinks.Delivered += ss.Delivered
			st.Sinks.Retries += ss.Retries
			st.Sinks.Dropped += ss.Dropped
		}
	}
	return st
}

// oracleRules is the differential's rule set: node and cluster scope,
// threshold and trend, short streaks so instances cycle, a rule whose
// tracker no snapshot has, and names that sort against rule order so the
// departure resolves' order is under test. %d/%d are the ramp rule's tracker
// and dimension.
const oracleRules = `{"steps_per_hour": 12, "rules": [
 {"name": "z-node-high", "kind": "threshold", "scope": "node", "horizon": 2,
  "above": true, "threshold": 0.55, "fire_streak": 1, "clear_streak": 1},
 {"name": "m-cluster-high", "kind": "threshold", "scope": "cluster", "horizon": 2,
  "above": true, "threshold": 0.5, "fire_streak": 1, "clear_streak": 1},
 {"name": "b-node-ramp", "kind": "trend", "scope": "node", "tracker": %d, "dim": %d,
  "horizon": 4, "above": true, "threshold": 0.05, "fire_streak": 1, "clear_streak": 2},
 {"name": "k-no-tracker", "kind": "threshold", "scope": "node", "tracker": 7,
  "above": true, "threshold": 0.5},
 {"name": "a-node-low", "kind": "threshold", "scope": "node", "horizon": 1,
  "above": false, "threshold": 0.4, "fire_streak": 2, "clear_streak": 1, "clear_margin": 0.02}]}`

// oracleCoverage counts what the differential's schedules reached, so a
// scenario change that stops reaching a path fails the test.
type oracleCoverage struct {
	events, departed, recycled, moved, restores, skipped, nanSkips int
}

// TestEngineMatchesReference drives the Engine and the map-keyed
// referenceEngine through randomized schedules on one fleet — joins, removals
// and absence evictions, slots recycled for newer members, joiners warming
// behind NaN rows, skipped and repeated generations, and restores into a new
// System, whose roster is a new object with the same members — and requires
// the same events in the same order, the same Stats and the same Active
// after every evaluation.
func TestEngineMatchesReference(t *testing.T) {
	t.Parallel()
	seeds := 24
	if testing.Short() {
		seeds = 8
	}
	var cov oracleCoverage
	for seed := 1; seed <= seeds; seed++ {
		driveAgainstReference(t, uint64(seed), &cov)
	}
	if cov.events == 0 || cov.departed == 0 || cov.recycled == 0 || cov.restores == 0 ||
		cov.skipped == 0 || cov.nanSkips == 0 {
		t.Fatalf("schedules lost coverage: %+v", cov)
	}
	t.Logf("coverage over %d seeds: %+v", seeds, cov)
}

// schedule is where a differential run draws its choices from: a seeded
// generator (driveAgainstReference) or a fuzzer's bytes (byteSchedule).
type schedule interface {
	IntN(n int) int
	Float64() float64
}

// driveAgainstReference runs one differential schedule drawn from seed.
func driveAgainstReference(t *testing.T, seed uint64, cov *oracleCoverage) {
	driveSchedule(t, seed, rand.New(rand.NewPCG(seed, 28)), cov)
}

// driveSchedule steps one fleet for 90 steps, with its size, clustering,
// membership changes, silences, restores and evaluation counts drawn from
// rng and its measurements from seed, and evaluates the Engine and the
// referenceEngine side by side.
func driveSchedule(t *testing.T, seed uint64, rng schedule, cov *oracleCoverage) {
	joint := rng.IntN(3) == 0
	cfg := core.Config{
		Nodes: 4 + rng.IntN(8), Resources: 2, K: 2 + rng.IntN(2), JointClustering: joint,
		InitialCollection: 6, RetrainEvery: 10, MPrime: 2, SnapshotHorizon: 6,
		AbsenceTimeout: 3, Seed: seed,
		Policy: func(int) (transmit.Policy, error) { return transmit.Always{}, nil },
		Zoo: forecast.Pinned(func() forecast.Model {
			m, err := forecast.NewHolt(0.5, 0.3, 1)
			if err != nil {
				panic(err)
			}
			return m
		}),
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tracker, dim := 1, 0
	if joint {
		tracker, dim = 0, 1
	}
	rules, err := ParseRules(fmt.Appendf(nil, oracleRules, tracker, dim))
	if err != nil {
		t.Fatal(err)
	}
	got, err := New(Config{Rules: rules, MaxHorizon: cfg.SnapshotHorizon})
	if err != nil {
		t.Fatal(err)
	}
	want, err := newReferenceEngine(Config{Rules: rules, MaxHorizon: cfg.SnapshotHorizon})
	if err != nil {
		t.Fatal(err)
	}

	// value is member id's measurement of resource r at a step: a level of
	// its own, a swing across the thresholds and a little noise.
	value := func(id, step, r int) float64 {
		h := rand.New(rand.NewPCG(seed^uint64(id)<<20, uint64(step*2+r)))
		base := 0.2 + 0.6*float64((id*7+r*3)%10)/9
		return math.Min(1, math.Max(0, base+0.3*math.Sin(float64(step)*(0.2+0.05*float64(id%5))+float64(id))+0.05*h.NormFloat64()))
	}
	silent := map[int]int{} // id → steps left without a report
	next := 1000
	var lastIDs []int
	for step := 1; step <= 90; step++ {
		prev := sys.Roster()
		members := prev.Members()
		switch p := rng.Float64(); {
		case p < 0.15:
			if err := sys.AddNodes(next); err != nil {
				t.Fatal(err)
			}
			silent[next] = rng.IntN(3)
			next++
		case p < 0.27 && len(members) > cfg.K+2:
			if err := sys.RemoveNodes(members[rng.IntN(len(members))]); err != nil {
				t.Fatal(err)
			}
		case p < 0.35 && len(members) > cfg.K+2:
			silent[members[rng.IntN(len(members))]] = 1 + rng.IntN(4)
		case p < 0.38 && sys.Ready():
			st, err := sys.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			if sys, err = core.NewSystem(cfg); err != nil {
				t.Fatal(err)
			}
			if err := sys.RestoreState(st); err != nil {
				t.Fatal(err)
			}
			cov.restores++
		case p < 0.42 && len(members) > cfg.K+2:
			// A member leaves and rejoins within the step: it stays live,
			// in the lowest free slot, which may not be its old one.
			id := members[rng.IntN(len(members))]
			if err := sys.RemoveNodes(id); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddNodes(id); err != nil {
				t.Fatal(err)
			}
		}
		roster := sys.Roster()
		for slot := range prev.Slots() {
			if id, live := prev.IDAt(slot); live {
				if now, ok := roster.SlotOf(id); ok && now != slot {
					cov.moved++
				}
			}
		}
		for slot, id := range lastIDs {
			if now, live := roster.IDAt(slot); live && now != id {
				cov.recycled++
			}
		}
		lastIDs = lastIDs[:0]
		x := make([][]float64, roster.Slots())
		reporting := 0
		for slot := range x {
			id, live := roster.IDAt(slot)
			lastIDs = append(lastIDs, id)
			if live && silent[id] == 0 {
				x[slot] = []float64{value(id, step, 0), value(id, step, 1)}
				reporting++
			}
		}
		for slot := range x {
			// Clustering needs K reporting members; the silences give way.
			if id, live := roster.IDAt(slot); live && silent[id] > 0 {
				if reporting < cfg.K+1 {
					x[slot] = []float64{value(id, step, 0), value(id, step, 1)}
					reporting++
					silent[id] = 0
				} else {
					silent[id]--
				}
			}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatalf("seed %d step %d: %v", seed, step, err)
		}

		evaluations := 1
		switch p := rng.Float64(); {
		case p < 0.2:
			evaluations = 0
			cov.skipped++
		case p < 0.3:
			evaluations = 2
		}
		for range evaluations {
			snap := sys.Snapshot()
			gotEv, err1 := got.Evaluate(snap)
			wantEv, err2 := want.Evaluate(snap)
			if err1 != nil || err2 != nil {
				t.Fatalf("seed %d step %d: errors %v / %v", seed, step, err1, err2)
			}
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("seed %d step %d: events\n got %+v\nwant %+v", seed, step, gotEv, wantEv)
			}
			if g, w := got.Stats(), want.Stats(); g != w {
				t.Fatalf("seed %d step %d: stats\n got %+v\nwant %+v", seed, step, g, w)
			}
			if g, w := got.Active(), want.Active(); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d step %d: active\n got %+v\nwant %+v", seed, step, g, w)
			}
			cov.events += len(gotEv)
			for _, ev := range gotEv {
				if ev.Reason == "departed" {
					cov.departed++
				}
			}
		}
	}
	cov.nanSkips += int(got.Stats().NaNSkips)
}
