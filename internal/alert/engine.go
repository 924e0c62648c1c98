package alert

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"orcf/internal/core"
)

// Event is one alert transition, delivered to every sink and recorded in
// /v1/alerts history. All float fields are finite: transitions only happen
// on finite observations, and departure resolves carry the last observed
// value.
type Event struct {
	// Rule is the name of the rule that transitioned.
	Rule string `json:"rule"`
	// Kind is the rule's kind.
	Kind Kind `json:"kind"`
	// Scope is the rule's scope.
	Scope Scope `json:"scope"`
	// State is "firing" or "resolved".
	State string `json:"state"`
	// Tracker is the rule's cluster tracker.
	Tracker int `json:"tracker"`
	// Cluster is the targeted cluster index (-1 for node scope).
	Cluster int `json:"cluster"`
	// Node is the targeted stable node ID (-1 for cluster scope).
	Node int `json:"node"`
	// Value is the evaluated value at the transition (the last observed
	// value for a departure resolve).
	Value float64 `json:"value"`
	// Threshold is the rule's threshold.
	Threshold float64 `json:"threshold"`
	// Horizon is the rule's forecast look-ahead in steps.
	Horizon int `json:"horizon"`
	// Generation is the snapshot generation the transition happened at.
	Generation uint64 `json:"generation"`
	// Step is the pipeline step the transition happened at.
	Step int `json:"step"`
	// Reason is empty for forecast-driven transitions, "departed" when a
	// firing node-scope instance resolved because its member left the fleet.
	Reason string `json:"reason,omitempty"`
}

// The Event.State values.
const (
	// StateFiring marks a fire transition.
	StateFiring = "firing"
	// StateResolved marks a resolve transition.
	StateResolved = "resolved"
)

// Active is one currently firing instance, as reported by Engine.Active and
// /v1/alerts.
type Active struct {
	// Rule is the firing rule's name.
	Rule string `json:"rule"`
	// Kind is the rule's kind.
	Kind Kind `json:"kind"`
	// Scope is the rule's scope.
	Scope Scope `json:"scope"`
	// Tracker is the rule's cluster tracker.
	Tracker int `json:"tracker"`
	// Cluster is the targeted cluster (-1 for node scope).
	Cluster int `json:"cluster"`
	// Node is the targeted stable node ID (-1 for cluster scope).
	Node int `json:"node"`
	// Value is the most recent evaluated value.
	Value float64 `json:"value"`
	// Threshold is the rule's threshold.
	Threshold float64 `json:"threshold"`
	// SinceStep is the pipeline step the instance fired at.
	SinceStep int `json:"since_step"`
	// SinceGeneration is the snapshot generation the instance fired at.
	SinceGeneration uint64 `json:"since_generation"`
}

// Stats is the engine's cumulative accounting, surfaced by /v1/stats and the
// orcf_alert_* metrics.
type Stats struct {
	// Rules is the number of loaded rules.
	Rules int `json:"rules"`
	// Firing is the number of currently firing instances.
	Firing int `json:"firing"`
	// Fires counts fire transitions.
	Fires int64 `json:"fires"`
	// Resolves counts resolve transitions (departures included).
	Resolves int64 `json:"resolves"`
	// Evaluations counts rule-instance evaluations with data.
	Evaluations int64 `json:"evaluations"`
	// NaNSkips counts evaluations skipped on a NaN forecast row (members
	// warming up behind the presence mask).
	NaNSkips int64 `json:"nan_skips"`
	// TargetErrors counts evaluations skipped because a rule referenced a
	// tracker, cluster, dimension, or horizon the snapshot does not have.
	TargetErrors int64 `json:"target_errors"`
	// LastGeneration is the newest snapshot generation evaluated.
	LastGeneration uint64 `json:"last_generation"`
	// Sinks aggregates delivery accounting across all attached sinks.
	Sinks SinkStats `json:"sinks"`
}

// Config assembles an Engine.
type Config struct {
	// Rules is the validated rule set; required (may hold zero rules).
	Rules *RuleSet
	// Sinks receive every transition event, in order. Optional.
	Sinks []Sink
	// MaxHorizon, when positive, rejects rule sets whose rules look further
	// ahead than the snapshots will serve (core.Config.SnapshotHorizon).
	MaxHorizon int
}

// instanceKey addresses one (rule, target) automaton. Rule names are unique
// and each rule has a fixed scope, so (name, target) cannot collide across
// scopes.
type instanceKey struct {
	rule   string
	target int
}

// instance is one live automaton plus its display state.
type instance struct {
	rule      *Rule
	cluster   int // -1 for node scope
	node      int // -1 for cluster scope
	m         *StateMachine
	sinceStep int
	sinceGen  uint64
}

// Engine evaluates a rule set against published snapshots and drives the
// per-instance state machines. All methods are safe for concurrent use;
// evaluation of one generation is serialized and idempotent (a snapshot
// generation already evaluated is a no-op), so any number of goroutines may
// hand it snapshots concurrently with stepping and serving.
type Engine struct {
	cfg   Config
	rules *RuleSet

	mu        sync.Mutex
	instances map[instanceKey]*instance
	lastGen   uint64
	firing    int
	fires     int64
	resolves  int64
	evals     int64
	nanSkips  int64
	targetErr int64
}

// New validates the configuration and builds the engine.
func New(cfg Config) (*Engine, error) {
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
	return &Engine{
		cfg:       cfg,
		rules:     cfg.Rules,
		instances: make(map[instanceKey]*instance),
	}, nil
}

// Rules returns the engine's rule set (shared, treat as immutable).
func (e *Engine) Rules() *RuleSet { return e.rules }

// Evaluate runs every rule against one published snapshot and delivers the
// resulting transition events to the sinks, in this deterministic order:
// the rules in rule-set order, a cluster-scope rule's events by ascending
// cluster index and a node-scope rule's by ascending slot — which is not
// ascending node ID once churn has handed a recycled slot to a newer member
// — and after all of them the resolves of departed members (reason
// "departed"), by rule name, then node ID. It is a no-op for a nil
// snapshot, a generation at or below the newest one already evaluated, or
// a snapshot whose models are not trained yet. The returned events are the
// caller's to keep. Reading forecasts off a published snapshot cannot fail,
// so the error is always nil; it stays in the signature for the callers
// that check it.
func (e *Engine) Evaluate(snap *core.Snapshot) ([]Event, error) {
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
func (e *Engine) evalClusterRule(snap *core.Snapshot, r *Rule, events []Event) []Event {
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
func (e *Engine) evalNodeRule(snap *core.Snapshot, r *Rule, events []Event) []Event {
	if r.Dim >= snap.Resources() {
		e.targetErr++
		return events
	}
	plan := snap.Plan()
	roster := snap.Roster()
	for slot := 0; slot < snap.Nodes(); slot++ {
		id, live := roster.IDAt(slot)
		if !live {
			continue
		}
		v := e.ruleValue(r, plan.At(slot, r.Dim, 0), plan.At(slot, r.Dim, r.Horizon-1))
		events = e.observe(snap, r, -1, id, v, events)
	}
	return events
}

// ruleValue turns the two ends of one forecast series — the values at
// horizon 1 and at the rule's horizon — into the rule's evaluated value: the
// value at the horizon for threshold rules, the per-hour slope across the
// horizon for trend rules. NaN propagates (a warming row stays a skip).
func (e *Engine) ruleValue(r *Rule, first, at float64) float64 {
	if r.Kind == KindThreshold {
		return at
	}
	return (at - first) / float64(r.Horizon-1) * float64(e.rules.StepsPerHour)
}

// observe feeds one evaluated value to the (rule, target) instance, creating
// it on first contact, and appends any transition event.
func (e *Engine) observe(snap *core.Snapshot, r *Rule, cluster, node int, v float64, events []Event) []Event {
	if math.IsNaN(v) {
		e.nanSkips++
		return events
	}
	target := cluster
	if r.Scope == ScopeNode {
		target = node
	}
	key := instanceKey{rule: r.Name, target: target}
	inst := e.instances[key]
	if inst == nil {
		inst = &instance{rule: r, cluster: cluster, node: node, m: NewStateMachine(r)}
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

// dropDeparted retires the instances whose node is not a member of the
// snapshot's roster, resolving any that were firing (reason "departed") by
// rule name, then node ID.
func (e *Engine) dropDeparted(snap *core.Snapshot) []Event {
	roster := snap.Roster()
	var gone []instanceKey
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

// event assembles one transition event from an instance.
func (e *Engine) event(snap *core.Snapshot, inst *instance, state string, v float64, reason string) Event {
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
func (e *Engine) Active() []Active {
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
func (e *Engine) Stats() Stats {
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
