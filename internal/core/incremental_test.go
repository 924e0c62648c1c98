package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
)

// sameForecasts fails unless the two h×N×d forecast tensors are bitwise
// identical (NaN compares equal to NaN).
func sameForecasts(t *testing.T, tag string, got, want [][][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d horizons, want %d", tag, len(got), len(want))
	}
	for hi := range want {
		for i := range want[hi] {
			for d := range want[hi][i] {
				g, w := got[hi][i][d], want[hi][i][d]
				if math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: forecast[%d][%d][%d]=%v, want %v (bitwise)", tag, hi, i, d, g, w)
				}
			}
		}
	}
}

// TestIncrementalRefitForcedFallbackMatchesPlain is the system-level
// differential boundary: IncrementalRefit with a negative churn threshold
// forces a full refit every step and must be bit-identical — step results,
// forecasts, and refit accounting — to a system with the feature off.
func TestIncrementalRefitForcedFallbackMatchesPlain(t *testing.T) {
	t.Parallel()
	base := Config{
		Nodes: 12, Resources: 2, K: 2, M: 2, MPrime: 3,
		InitialCollection: 15, RetrainEvery: 10, Policy: alwaysPolicy, Seed: 6,
	}
	forced := base
	forced.IncrementalRefit = true
	forced.IncrementalChurn = -1
	plain, err := NewSystem(base)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := NewSystem(forced)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 0))
	for step := 0; step < 40; step++ {
		x := noisyStep(rng, 12)
		ra, err := plain.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := inc.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		for tr := range ra.PerResource {
			for i := range ra.PerResource[tr].Assignments {
				if ra.PerResource[tr].Assignments[i] != rb.PerResource[tr].Assignments[i] {
					t.Fatalf("step %d: assignment (%d,%d) diverged", step, tr, i)
				}
			}
			for j, c := range ra.PerResource[tr].Centroids {
				for d := range c {
					if math.Float64bits(c[d]) != math.Float64bits(rb.PerResource[tr].Centroids[j][d]) {
						t.Fatalf("step %d: centroid (%d,%d,%d) diverged", step, tr, j, d)
					}
				}
			}
		}
		if plain.Ready() {
			fa, err := plain.Forecast(3)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := inc.Forecast(3)
			if err != nil {
				t.Fatal(err)
			}
			sameForecasts(t, fmt.Sprintf("step %d", step), fb, fa)
		}
	}
	if w, f := inc.RefitStats(); w != 0 || f != 40*2 {
		t.Fatalf("forced fallback RefitStats = (%d,%d), want (0,80)", w, f)
	}
	if w, f := plain.RefitStats(); w != 0 || f != 40*2 {
		t.Fatalf("plain RefitStats = (%d,%d), want (0,80)", w, f)
	}
}

// TestIncrementalRefitWarmStartsEndToEnd drives the real incremental path
// through the full pipeline: on a stable workload warm refits must dominate,
// and a state exported once the warm path runs must restore into a fresh
// system that continues bit for bit — step results, forecasts, warm/full
// refit counts and the final exported state — over the next 50 steps. The
// warm start's seed is not in the trackers' state: restore takes it from the
// newest look-back slot, and a restore without it runs a full refit first.
func TestIncrementalRefitWarmStartsEndToEnd(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes: 12, Resources: 2, K: 2, M: 2, MPrime: 3,
		InitialCollection: 15, RetrainEvery: 10, Policy: alwaysPolicy, Seed: 2,
		IncrementalRefit: true,
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(14, 0))
	for step := 0; step < 30; step++ {
		if _, err := s.Step(noisyStep(rng, 12)); err != nil {
			t.Fatal(err)
		}
	}
	warm, full := s.RefitStats()
	if warm == 0 {
		t.Fatal("no warm refits on a stable workload; incremental path vacuous")
	}
	if warm+full != 30*2 {
		t.Fatalf("RefitStats %d+%d != %d tracker steps", warm, full, 30*2)
	}

	st, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.RestoreState(gobRoundTrip(t, st)); err != nil {
		t.Fatal(err)
	}
	before, _ := s.RefitStats()
	for step := 0; step < 50; step++ {
		x := noisyStep(rng, 12)
		want := observeStep(t, s, x)
		got := observeStep(t, restored, x)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored step %d diverged from the uninterrupted run:\n got %+v\nwant %+v", step, got, want)
		}
	}
	if w, _ := s.RefitStats(); w == before {
		t.Fatal("no warm refits after the export; restore property vacuous")
	}
	gw, gf := restored.RefitStats()
	ww, wf := s.RefitStats()
	if gw != ww-warm || gf != wf-full {
		t.Fatalf("restored run refit (%d warm, %d full), uninterrupted (%d, %d) since the export",
			gw, gf, ww-warm, wf-full)
	}
	got, err := restored.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []*State{got, want} {
		for _, e := range st.Ensembles {
			e.TrainTime = 0 // wall clock
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("state after 50 restored steps diverges from the uninterrupted run")
	}
}

// TestFingerprintIncrementalRefit pins the state-compatibility rule: the
// fingerprint is unchanged for existing configurations, but incremental runs
// (which consume the RNG differently) fingerprint distinctly, including per
// churn threshold.
func TestFingerprintIncrementalRefit(t *testing.T) {
	t.Parallel()
	base := Config{Nodes: 8, Resources: 2, K: 2, Seed: 3}
	plain := base.Fingerprint()
	fallback := base
	fallback.IncrementalChurn = 0.5 // ignored without IncrementalRefit
	if fallback.Fingerprint() != plain {
		t.Fatal("IncrementalChurn without IncrementalRefit must not change the fingerprint")
	}
	inc := base
	inc.IncrementalRefit = true
	if inc.Fingerprint() == plain {
		t.Fatal("IncrementalRefit must change the fingerprint")
	}
	inc2 := inc
	inc2.IncrementalChurn = 0.5
	if inc2.Fingerprint() == inc.Fingerprint() {
		t.Fatal("distinct churn thresholds must fingerprint distinctly")
	}
}
