package core

import (
	"sync/atomic"
	"time"
)

// StepPhase identifies one sub-phase of System.Step for instrumentation.
// Phases partition a step's wall-clock work; the two fan-out phases
// (PhaseCluster, PhaseRefit) report CPU time summed across trackers, so
// under parallel stepping they can exceed the step's wall-clock span.
type StepPhase uint8

// The sub-phases of one Step, in execution order.
const (
	// PhaseIngest covers transmission decisions, the store writes, absence
	// accounting and eviction.
	PhaseIngest StepPhase = iota
	// PhaseCluster covers per-tracker online cluster updates (§V-B), summed
	// across trackers.
	PhaseCluster
	// PhaseRefit covers per-tracker ensemble maintenance — observing the new
	// centroids and any (re)training they trigger — summed across trackers.
	PhaseRefit
	// PhaseForecast covers the snapshot's centroid-forecast precompute (zero
	// when snapshot publishing is disabled).
	PhaseForecast
	// PhasePublish covers snapshot assembly, the ring commit (which
	// re-seeds the store for the next step), and the lock-free publication.
	PhasePublish

	// NumStepPhases is the number of step sub-phases.
	NumStepPhases = int(PhasePublish) + 1
)

// String names the phase for logs and metric series.
func (p StepPhase) String() string {
	switch p {
	case PhaseIngest:
		return "ingest"
	case PhaseCluster:
		return "cluster"
	case PhaseRefit:
		return "refit"
	case PhaseForecast:
		return "forecast"
	case PhasePublish:
		return "publish"
	}
	return "unknown"
}

// PhaseObserver receives the wall-clock duration of every Step sub-phase.
// Timing is observational only — it never influences step results, which
// stay bit-identical with or without an observer. Step calls the observer
// from its own goroutine once per phase per successful step (failed steps
// report the phases that completed); implementations must be cheap and must
// not call back into the System.
type PhaseObserver interface {
	// ObserveStepPhase records one completed sub-phase.
	ObserveStepPhase(phase StepPhase, d time.Duration)
}

// phaseTimer attributes the time of Step's per-phase calls to the
// PhaseObserver: run times one call and adds it to its phase's total, report
// hands a finished phase's total to the observer. Totals are atomics because
// the cluster and refit calls of different trackers run concurrently. With
// no observer attached nothing reads the clock.
type phaseTimer struct {
	ob    PhaseObserver
	nanos [NumStepPhases]atomic.Int64
}

// reset forgets what an earlier, failed step left unreported.
func (pt *phaseTimer) reset() {
	if pt.ob == nil {
		return
	}
	for p := range pt.nanos {
		pt.nanos[p].Store(0)
	}
}

// run calls fn as part of phase p.
func (pt *phaseTimer) run(p StepPhase, fn func() error) error {
	if pt.ob == nil {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	pt.nanos[p].Add(int64(time.Since(t0)))
	return err
}

// report hands phase p's total to the observer.
func (pt *phaseTimer) report(p StepPhase) {
	if pt.ob != nil {
		pt.ob.ObserveStepPhase(p, time.Duration(pt.nanos[p].Load()))
	}
}
