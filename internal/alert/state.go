package alert

import "math"

// Transition is what one observation did to a state machine.
type Transition int

// The possible per-observation outcomes.
const (
	// TransitionNone: the state did not change (streak bookkeeping only).
	TransitionNone Transition = iota
	// TransitionFire: the instance crossed from inactive to firing.
	TransitionFire
	// TransitionResolve: the instance crossed from firing back to inactive.
	TransitionResolve
)

// StateMachine is the firing→resolved hysteresis automaton of one (rule,
// target) instance. It is deliberately tiny and free-standing so the
// property test can pit it against a brute-force oracle over arbitrary
// observation sequences.
//
// Semantics (pinned by TestStateMachineMatchesOracle):
//
//   - A NaN observation is "no data" (a warming or tombstoned forecast row):
//     it is skipped entirely — no streak moves, no transition. A flapping
//     node can therefore never fire or resolve an alert through its warmup
//     NaNs alone.
//   - While inactive, each breaching observation (Rule.Breached; ties breach)
//     extends the fire streak and each non-breaching one resets it to zero.
//     Reaching FireStreak fires, resets both streaks, and consumes the
//     observation (it does not also count toward clearing).
//   - While firing, each clearing observation (Rule.Cleared; must pass the
//     margin) extends the clear streak and each non-clearing one — breaching
//     or inside the margin band — resets it to zero. Reaching ClearStreak
//     resolves, resets both streaks, and consumes the observation.
type StateMachine struct {
	rule   *Rule
	breach int
	clear  int
	last   float64 // latest non-NaN observation
	firing bool
	seen   bool // whether last is meaningful
}

// NewStateMachine builds the automaton for one rule instance. The rule must
// be normalized and valid; it is not copied, so share one Rule across the
// rule's instances.
func NewStateMachine(r *Rule) *StateMachine {
	return &StateMachine{rule: r, last: math.NaN()}
}

// Observe feeds one evaluated value and returns the transition it caused.
func (m *StateMachine) Observe(v float64) Transition {
	if math.IsNaN(v) {
		return TransitionNone
	}
	m.last = v
	m.seen = true
	if !m.firing {
		if m.rule.Breached(v) {
			m.breach++
		} else {
			m.breach = 0
		}
		if m.breach >= m.rule.FireStreak {
			m.firing = true
			m.breach = 0
			m.clear = 0
			return TransitionFire
		}
		return TransitionNone
	}
	if m.rule.Cleared(v) {
		m.clear++
	} else {
		m.clear = 0
	}
	if m.clear >= m.rule.ClearStreak {
		m.firing = false
		m.breach = 0
		m.clear = 0
		return TransitionResolve
	}
	return TransitionNone
}

// Firing reports whether the instance is currently firing.
func (m *StateMachine) Firing() bool { return m.firing }

// Last returns the latest non-NaN observation and whether one exists.
func (m *StateMachine) Last() (float64, bool) { return m.last, m.seen }
