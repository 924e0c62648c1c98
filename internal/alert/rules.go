// Package alert is the forecast-consuming plane: a rule engine that
// evaluates threshold and trend rules against the per-cluster centroid and
// per-node forecasts published in core.Snapshot, drives a firing→resolved
// state machine with hysteresis (a consecutive-breach streak to fire, a
// clear margin plus streak to resolve, so flapping forecasts do not flap
// alerts), fans transition events out to sinks (structured log, webhook with
// bounded retry), and proposes per-cluster scale-up/scale-down node deltas
// from horizon-h centroid forecasts.
//
// The engine reads exclusively through immutable snapshots, so evaluation
// runs concurrently with pipeline stepping, query serving, and fleet churn
// without locks on the hot path. Forecast rows of members still warming up
// behind the presence mask are NaN; the engine skips them without touching
// any streak, so joining or flapping nodes can never fire a false alert.
package alert

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// ErrBadRule reports an invalid rule or rule-set configuration.
var ErrBadRule = errors.New("alert: invalid rule")

// Kind discriminates how a rule turns a forecast series into the evaluated
// value it compares against Threshold.
type Kind string

// The registered rule kinds. docs/OPERATIONS.md's "Alerting" section carries
// a two-way-checked table of these (a docscheck reference), so adding a kind
// here without documenting it fails CI.
const (
	// KindThreshold compares the forecast value at the rule's horizon
	// against Threshold.
	KindThreshold Kind = "threshold"
	// KindTrend compares the forecast slope — (value at horizon h minus
	// value at horizon 1) / (h-1), scaled to per-hour by the rule set's
	// StepsPerHour — against Threshold.
	KindTrend Kind = "trend"
)

// Scope selects what a rule targets: one instance per cluster centroid or
// one instance per live fleet member.
type Scope string

// The rule scopes.
const (
	// ScopeCluster evaluates the rule against centroid forecasts, one
	// instance per targeted cluster.
	ScopeCluster Scope = "cluster"
	// ScopeNode evaluates the rule against per-node forecasts, one instance
	// per live member (warming NaN rows are skipped).
	ScopeNode Scope = "node"
)

// Hysteresis defaults applied by ParseRules and Rule.Normalize.
const (
	// DefaultFireStreak is the consecutive-breach count required to fire
	// when a rule does not set fire_streak.
	DefaultFireStreak = 3
	// DefaultClearStreak is the consecutive-clear count required to resolve
	// when a rule does not set clear_streak.
	DefaultClearStreak = 3
)

// Rule is one alerting rule. The zero value is not valid; build rules in Go
// with Normalize + Validate, or parse a rules file with ParseRules (which
// applies the same defaults).
//
// Breach and clear are deliberately asymmetric around Threshold so the
// semantics of a value exactly at the threshold are pinned: for direction
// "above" a value v breaches iff v >= Threshold and clears iff
// v < Threshold - ClearMargin; for "below" v breaches iff v <= Threshold and
// clears iff v > Threshold + ClearMargin. Values inside the margin band
// neither breach nor clear: they reset a fire streak but freeze a clear
// streak's progress at zero.
type Rule struct {
	// Name identifies the rule in events, endpoints, and logs. Required,
	// unique within a rule set.
	Name string `json:"name"`
	// Kind is threshold or trend.
	Kind Kind `json:"kind"`
	// Scope is cluster or node.
	Scope Scope `json:"scope"`
	// Tracker is the cluster-tracker index the rule reads (one tracker per
	// resource under scalar clustering, a single tracker under joint).
	Tracker int `json:"tracker"`
	// Cluster narrows a cluster-scope rule to one cluster index; -1 (the
	// parse default) targets every cluster. Ignored for node scope.
	Cluster int `json:"cluster"`
	// Dim is the measurement dimension read within the tracker (always 0
	// under scalar clustering; the resource index under joint clustering).
	Dim int `json:"dim"`
	// Horizon is the forecast look-ahead in steps the rule evaluates at
	// (>= 1; trend rules need >= 2 to have a slope). Defaults to 1.
	Horizon int `json:"horizon"`
	// Above selects the breach direction: true alerts on values at or above
	// Threshold, false on values at or below it.
	Above bool `json:"above"`
	// Threshold is the breach limit: a forecast value for threshold rules,
	// a per-hour slope for trend rules (see RuleSet.StepsPerHour).
	Threshold float64 `json:"threshold"`
	// FireStreak is how many consecutive breaching evaluations fire the
	// alert (>= 1; default DefaultFireStreak).
	FireStreak int `json:"fire_streak"`
	// ClearStreak is how many consecutive clearing evaluations resolve a
	// firing alert (>= 1; default DefaultClearStreak).
	ClearStreak int `json:"clear_streak"`
	// ClearMargin widens the hysteresis band: a firing alert only counts an
	// evaluation toward resolution once the value is this far inside the
	// safe side of Threshold (>= 0).
	ClearMargin float64 `json:"clear_margin"`
}

// Normalize fills unset fields with the parse defaults: horizon 1, fire and
// clear streaks of DefaultFireStreak/DefaultClearStreak. It does not touch
// Cluster — a zero Cluster targets cluster 0; use -1 for every cluster.
func (r *Rule) Normalize() {
	if r.Horizon == 0 {
		r.Horizon = 1
	}
	if r.FireStreak == 0 {
		r.FireStreak = DefaultFireStreak
	}
	if r.ClearStreak == 0 {
		r.ClearStreak = DefaultClearStreak
	}
}

// Validate reports whether the rule is well-formed (after Normalize).
func (r *Rule) Validate() error {
	if r.Name == "" {
		return fmt.Errorf("alert: rule has no name: %w", ErrBadRule)
	}
	if r.Kind != KindThreshold && r.Kind != KindTrend {
		return fmt.Errorf("alert: rule %q: unknown kind %q: %w", r.Name, r.Kind, ErrBadRule)
	}
	if r.Scope != ScopeCluster && r.Scope != ScopeNode {
		return fmt.Errorf("alert: rule %q: unknown scope %q: %w", r.Name, r.Scope, ErrBadRule)
	}
	if r.Tracker < 0 || r.Dim < 0 {
		return fmt.Errorf("alert: rule %q: negative tracker/dim: %w", r.Name, ErrBadRule)
	}
	if r.Cluster < -1 {
		return fmt.Errorf("alert: rule %q: cluster %d (use -1 for all): %w", r.Name, r.Cluster, ErrBadRule)
	}
	if r.Horizon < 1 {
		return fmt.Errorf("alert: rule %q: horizon %d < 1: %w", r.Name, r.Horizon, ErrBadRule)
	}
	if r.Kind == KindTrend && r.Horizon < 2 {
		return fmt.Errorf("alert: rule %q: trend needs horizon >= 2, got %d: %w", r.Name, r.Horizon, ErrBadRule)
	}
	if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
		return fmt.Errorf("alert: rule %q: non-finite threshold: %w", r.Name, ErrBadRule)
	}
	if r.FireStreak < 1 || r.ClearStreak < 1 {
		return fmt.Errorf("alert: rule %q: streaks must be >= 1: %w", r.Name, ErrBadRule)
	}
	if math.IsNaN(r.ClearMargin) || math.IsInf(r.ClearMargin, 0) || r.ClearMargin < 0 {
		return fmt.Errorf("alert: rule %q: clear margin %v: %w", r.Name, r.ClearMargin, ErrBadRule)
	}
	return nil
}

// Breached reports whether v counts as a breach under the rule's direction.
// A value exactly at Threshold breaches (pinned tie semantics). NaN never
// breaches.
func (r *Rule) Breached(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	if r.Above {
		return v >= r.Threshold
	}
	return v <= r.Threshold
}

// Cleared reports whether v counts toward resolving a firing alert: it must
// be strictly inside the safe side of Threshold by at least ClearMargin. NaN
// never clears.
func (r *Rule) Cleared(v float64) bool {
	if math.IsNaN(v) {
		return false
	}
	if r.Above {
		return v < r.Threshold-r.ClearMargin
	}
	return v > r.Threshold+r.ClearMargin
}

// RuleSet is a parsed, validated collection of rules plus set-wide settings.
type RuleSet struct {
	// StepsPerHour converts trend slopes from per-step to per-hour so trend
	// thresholds can be stated in operator units (e.g. 12 for a 5-minute
	// step). Defaults to 1, i.e. thresholds are per-step.
	StepsPerHour int `json:"steps_per_hour"`
	// Rules are the rules in evaluation order.
	Rules []Rule `json:"rules"`
}

// MaxHorizon returns the largest forecast horizon any rule evaluates at (0
// for an empty set).
func (rs *RuleSet) MaxHorizon() int {
	h := 0
	for i := range rs.Rules {
		if rs.Rules[i].Horizon > h {
			h = rs.Rules[i].Horizon
		}
	}
	return h
}

// Validate checks every rule plus the set-wide invariants (unique names,
// positive StepsPerHour).
func (rs *RuleSet) Validate() error {
	if rs.StepsPerHour < 1 {
		return fmt.Errorf("alert: steps_per_hour %d < 1: %w", rs.StepsPerHour, ErrBadRule)
	}
	seen := make(map[string]bool, len(rs.Rules))
	for i := range rs.Rules {
		r := &rs.Rules[i]
		if err := r.Validate(); err != nil {
			return err
		}
		if seen[r.Name] {
			return fmt.Errorf("alert: duplicate rule name %q: %w", r.Name, ErrBadRule)
		}
		seen[r.Name] = true
	}
	return nil
}

// Marshal renders the rule set as canonical indented JSON. ParseRules of the
// output reproduces the set exactly (the fuzz target pins the round-trip).
func (rs *RuleSet) Marshal() ([]byte, error) {
	return json.MarshalIndent(rs, "", "  ")
}

// rawRule carries one rule through parsing with parse defaults that differ
// from Go zero values pre-applied (Cluster -1 = all clusters).
type rawRule Rule

// UnmarshalJSON applies the parse defaults before decoding, rejecting
// unknown fields so a typoed rule file fails loudly instead of silently
// alerting on the wrong thing.
func (r *rawRule) UnmarshalJSON(data []byte) error {
	type plain rawRule
	p := plain{Cluster: -1}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return err
	}
	*r = rawRule(p)
	return nil
}

// rawRuleSet mirrors RuleSet for parsing.
type rawRuleSet struct {
	StepsPerHour int       `json:"steps_per_hour"`
	Rules        []rawRule `json:"rules"`
}

// ParseRules parses, defaults, and validates a JSON rules file (the -rules
// flag of cmd/forecastd; see docs/OPERATIONS.md for the format). Unknown
// fields are rejected. It never panics on hostile input — the FuzzParseRules
// target enforces that, plus Marshal/ParseRules round-trip identity.
func ParseRules(data []byte) (*RuleSet, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw rawRuleSet
	if err := dec.Decode(&raw); err != nil {
		return nil, fmt.Errorf("alert: parsing rules: %w", err)
	}
	// A second document in the stream is a malformed file, not trailing
	// whitespace.
	if dec.More() {
		return nil, fmt.Errorf("alert: trailing data after rules document: %w", ErrBadRule)
	}
	rs := &RuleSet{StepsPerHour: raw.StepsPerHour, Rules: make([]Rule, len(raw.Rules))}
	if rs.StepsPerHour == 0 {
		rs.StepsPerHour = 1
	}
	for i := range raw.Rules {
		rs.Rules[i] = Rule(raw.Rules[i])
		rs.Rules[i].Normalize()
	}
	if err := rs.Validate(); err != nil {
		return nil, err
	}
	return rs, nil
}
