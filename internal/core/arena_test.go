package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
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

func TestSnapshotKeepValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewSystem(Config{Nodes: 4, K: 2, SnapshotHorizon: 3, SnapshotKeep: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative keep: want ErrBadConfig, got %v", err)
	}
	if _, err := NewSystem(Config{Nodes: 4, K: 2, SnapshotKeep: 2}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("keep without horizon: want ErrBadConfig, got %v", err)
	}
	if _, err := NewSystem(Config{Nodes: 4, K: 2, SnapshotHorizon: 3, SnapshotKeep: 2, Policy: alwaysPolicy}); err != nil {
		t.Fatalf("valid keep: %v", err)
	}
}

// TestSnapshotKeepDifferential pins the arena bit-identical: a system
// recycling snapshot slots (SnapshotKeep > 0) must publish exactly the same
// snapshots — measurements, memberships, centroids, and served forecasts —
// as one that never recycles, step for step, including across membership
// churn (which exercises the stale-window rebuild path that drops the whole
// previous window into the arena).
func TestSnapshotKeepDifferential(t *testing.T) {
	t.Parallel()
	build := func(keep int) *System {
		s, err := NewSystem(Config{
			Nodes: 12, Resources: 2, K: 2, InitialCollection: 15, RetrainEvery: 10,
			MPrime: 3, Policy: alwaysPolicy, Seed: 9, SnapshotHorizon: 4, SnapshotKeep: keep,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref, arena := build(0), build(3)
	nextID := 12
	for step := 0; step < 60; step++ {
		if step%11 == 10 {
			// Churn: depart one member and rejoin a fresh one into its slot,
			// staling the shared publication window.
			victim := ref.Members()[step%len(ref.Members())]
			for _, s := range []*System{ref, arena} {
				if err := s.RemoveNodes(victim); err != nil {
					t.Fatal(err)
				}
				if err := s.AddNodes(nextID); err != nil {
					t.Fatal(err)
				}
			}
			nextID++
		}
		x := noisyStep(rand.New(rand.NewPCG(uint64(step), 7)), ref.Slots())
		if _, err := ref.Step(x); err != nil {
			t.Fatalf("ref step %d: %v", step, err)
		}
		if _, err := arena.Step(x); err != nil {
			t.Fatalf("arena step %d: %v", step, err)
		}
		a, b := ref.Snapshot(), arena.Snapshot()
		if a.Generation() != b.Generation() || a.Steps() != b.Steps() {
			t.Fatalf("step %d: gen/steps diverged", step)
		}
		for i := 0; i < a.Nodes(); i++ {
			if a.Present(i) != b.Present(i) {
				t.Fatalf("step %d: presence of slot %d diverged", step, i)
			}
			za, zb := a.Latest(i), b.Latest(i)
			for d := range za {
				if math.Float64bits(za[d]) != math.Float64bits(zb[d]) {
					t.Fatalf("step %d: Latest(%d)[%d] diverged", step, i, d)
				}
			}
			for tr := 0; tr < a.Trackers(); tr++ {
				if a.Assignment(tr, i) != b.Assignment(tr, i) {
					t.Fatalf("step %d: assignment (%d,%d) diverged", step, tr, i)
				}
			}
		}
		for tr := 0; tr < a.Trackers(); tr++ {
			ca, cb := a.Centroids(tr), b.Centroids(tr)
			for j := range ca {
				for d := range ca[j] {
					if math.Float64bits(ca[j][d]) != math.Float64bits(cb[j][d]) {
						t.Fatalf("step %d: centroid (%d,%d,%d) diverged", step, tr, j, d)
					}
				}
			}
		}
		if a.Ready() != b.Ready() {
			t.Fatalf("step %d: readiness diverged", step)
		}
		if a.Ready() {
			fa, err := a.Forecast(4)
			if err != nil {
				t.Fatal(err)
			}
			fb, err := b.Forecast(4)
			if err != nil {
				t.Fatal(err)
			}
			sameForecasts(t, fmt.Sprintf("step %d", step), fb, fa)
		}
	}
}

// TestSnapshotArenaRecyclesSlots pins the generation-stamped free list
// directly: with SnapshotKeep = k, a window slot dropped at generation g must
// reappear (same pointer) in the window published at generation g+k+1 — and
// never earlier, so every snapshot within the retention window stays intact.
func TestSnapshotArenaRecyclesSlots(t *testing.T) {
	t.Parallel()
	const keep = 2
	s, err := NewSystem(Config{
		Nodes: 8, Resources: 1, K: 2, InitialCollection: 100,
		MPrime: 2, Policy: alwaysPolicy, Seed: 1, SnapshotHorizon: 2, SnapshotKeep: keep,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := twoGroupStep(8, 0.2, 0.8)
	// droppedAt[p] is the generation whose publish dropped slot pointer p.
	droppedAt := map[*ringSlot]uint64{}
	var prevWin map[*ringSlot]bool
	for step := 0; step < 30; step++ {
		if _, err := s.Step(x); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		win := map[*ringSlot]bool{}
		for _, p := range snap.slots {
			win[p] = true
		}
		for _, p := range snap.slots {
			if g, ok := droppedAt[p]; ok {
				if age := snap.gen - g; age <= keep {
					t.Fatalf("gen %d: slot dropped at gen %d recycled after only %d generations", snap.gen, g, age)
				}
				delete(droppedAt, p)
			}
		}
		for p := range prevWin {
			if !win[p] {
				droppedAt[p] = snap.gen
			}
		}
		prevWin = win
	}
	// Steady state drops one slot per publish; with retention keep the free
	// list must stay bounded instead of leaking one slot per step.
	if len(s.retired) > keep+1 {
		t.Fatalf("arena holds %d retirees, want ≤ %d", len(s.retired), keep+1)
	}
	if len(droppedAt) > keep+1 {
		t.Fatalf("%d dropped slots never recycled", len(droppedAt))
	}
}

// TestSnapshotKeepRetentionWindow pins the reader contract: a snapshot of
// generation g is immutable until generation g+keep is published — its served
// forecasts must not change while later steps publish (and recycle) away.
func TestSnapshotKeepRetentionWindow(t *testing.T) {
	t.Parallel()
	const keep = 3
	s, err := NewSystem(Config{
		Nodes: 10, Resources: 2, K: 2, InitialCollection: 10, RetrainEvery: 8,
		MPrime: 2, Policy: alwaysPolicy, Seed: 4, SnapshotHorizon: 3, SnapshotKeep: keep,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(5, 0))
	for step := 0; step < 20; step++ {
		if _, err := s.Step(noisyStep(rng, 10)); err != nil {
			t.Fatal(err)
		}
	}
	snap := s.Snapshot()
	want, err := snap.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	// keep-1 further publishes: generation snap.gen+keep has not been
	// published yet, so the snapshot must still serve identical bytes.
	for step := 0; step < keep-1; step++ {
		if _, err := s.Step(noisyStep(rng, 10)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := snap.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	sameForecasts(t, "within retention", got, want)
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
// and export/restore must resume the warm stream bit-identically.
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
	if err := restored.RestoreState(st); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 15; step++ {
		x := noisyStep(rng, 12)
		ra, err := s.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := restored.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		for tr := range ra.PerResource {
			for j, c := range ra.PerResource[tr].Centroids {
				for d := range c {
					if math.Float64bits(c[d]) != math.Float64bits(rb.PerResource[tr].Centroids[j][d]) {
						t.Fatalf("restored step %d: centroid (%d,%d,%d) diverged", step, tr, j, d)
					}
				}
			}
		}
	}
	w2, _ := restored.RefitStats()
	if w2 == 0 {
		t.Fatal("restored system never warm-started; prevCents restore vacuous")
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

// TestSnapshotArenaAllocs compares steady-state Step allocations with and
// without the arena: recycling must eliminate the per-step window-slot
// allocation, which dominates at large N.
func TestSnapshotArenaAllocs(t *testing.T) {
	build := func(keep int) *System {
		s, err := NewSystem(Config{
			Nodes: 400, Resources: 1, K: 2, InitialCollection: 1 << 20,
			MPrime: 3, Policy: alwaysPolicy, Seed: 7, SnapshotHorizon: 2, SnapshotKeep: keep,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	x := twoGroupStep(400, 0.2, 0.8)
	measure := func(s *System) float64 {
		for step := 0; step < 8; step++ {
			if _, err := s.Step(x); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(10, func() {
			if _, err := s.Step(x); err != nil {
				t.Fatal(err)
			}
		})
	}
	noArena := measure(build(0))
	arena := measure(build(2))
	// Without the arena every publish deep-copies a fresh 400-slot window
	// entry (z frame, presence, per-tracker assignment vectors ≈ 7+ objects,
	// two of them O(N)); with it the copy lands in a recycled slot.
	if arena >= noArena {
		t.Fatalf("arena Step allocates %v objects, no-arena %v — recycling ineffective", arena, noArena)
	}
	if arena > noArena-5 {
		t.Fatalf("arena saves only %v allocations per step (%v → %v)", noArena-arena, noArena, arena)
	}
}
