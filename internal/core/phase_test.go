package core

import (
	"sync"
	"testing"
	"time"
)

// phaseRecorder collects observed phase durations.
type phaseRecorder struct {
	mu   sync.Mutex
	seen map[StepPhase][]time.Duration
}

func (r *phaseRecorder) ObserveStepPhase(p StepPhase, d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seen == nil {
		r.seen = make(map[StepPhase][]time.Duration)
	}
	r.seen[p] = append(r.seen[p], d)
}

// TestStepPhaseObserver checks every sub-phase is reported exactly once per
// step, that timing does not perturb results (bit-identical to an
// unobserved run), and that the phase names are stable (they become metric
// series names).
func TestStepPhaseObserver(t *testing.T) {
	rec := &phaseRecorder{}
	mk := func(observer PhaseObserver) *System {
		sys, err := NewSystem(Config{
			Nodes: 6, Resources: 2, K: 2, InitialCollection: 3, RetrainEvery: 4,
			SnapshotHorizon: 2, Seed: 11, PhaseObserver: observer,
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	observed, plain := mk(rec), mk(nil)

	const steps = 8
	x := make([][]float64, 6)
	for step := 1; step <= steps; step++ {
		for i := range x {
			x[i] = []float64{float64(i) * 0.1, float64((i + step) % 5)}
		}
		ro, err := observed.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		rp, err := plain.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		for tr := range ro.PerResource {
			for j, c := range ro.PerResource[tr].Centroids {
				for d, v := range c {
					if v != rp.PerResource[tr].Centroids[j][d] {
						t.Fatalf("step %d: observed run diverged at tracker %d centroid %d dim %d",
							step, tr, j, d)
					}
				}
			}
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	wantNames := map[StepPhase]string{
		PhaseIngest: "ingest", PhaseCluster: "cluster", PhaseRefit: "refit",
		PhaseForecast: "forecast", PhasePublish: "publish",
	}
	if len(wantNames) != NumStepPhases {
		t.Fatalf("test covers %d phases, core has %d", len(wantNames), NumStepPhases)
	}
	for p, name := range wantNames {
		if p.String() != name {
			t.Fatalf("phase %d named %q, want %q", p, p.String(), name)
		}
		if got := len(rec.seen[p]); got != steps {
			t.Fatalf("phase %s observed %d times, want %d", name, got, steps)
		}
		for _, d := range rec.seen[p] {
			if d < 0 {
				t.Fatalf("phase %s observed negative duration %v", name, d)
			}
		}
	}
	// The fan-out phases do real work every step.
	for _, p := range []StepPhase{PhaseCluster, PhaseRefit} {
		var total time.Duration
		for _, d := range rec.seen[p] {
			total += d
		}
		if total == 0 {
			t.Fatalf("phase %s reported zero total time over %d steps", p, steps)
		}
	}
}
