package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"orcf/internal/forecast"
)

// noisyStep returns N two-resource measurements wandering around two group
// levels, deterministic per (step, node).
func noisyStep(rng *rand.Rand, n int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		level := 0.25
		if i >= n/2 {
			level = 0.75
		}
		x[i] = []float64{
			math.Min(1, math.Max(0, level+0.05*rng.NormFloat64())),
			math.Min(1, math.Max(0, 1-level+0.05*rng.NormFloat64())),
		}
	}
	return x
}

func snapshotConfig(horizon int) Config {
	return Config{
		Nodes: 12, Resources: 2, K: 2, InitialCollection: 20, RetrainEvery: 15,
		MPrime: 3, Policy: alwaysPolicy, Seed: 3, SnapshotHorizon: horizon,
	}
}

func newSnapshotSystem(t *testing.T, horizon int) *System {
	t.Helper()
	s, err := NewSystem(snapshotConfig(horizon))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSnapshotDisabledByDefault(t *testing.T) {
	t.Parallel()
	s, err := NewSystem(Config{Nodes: 4, K: 2, Policy: alwaysPolicy})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(twoGroupStep(4, 0.2, 0.8)); err != nil {
		t.Fatal(err)
	}
	if s.Snapshot() != nil {
		t.Fatal("Snapshot must be nil when SnapshotHorizon is 0")
	}
}

func TestSnapshotHorizonValidation(t *testing.T) {
	t.Parallel()
	_, err := NewSystem(Config{Nodes: 4, K: 2, SnapshotHorizon: -1})
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

// TestSnapshotForecastMatchesSystemForecast is not parallel: it sets
// GOMAXPROCS.
func TestSnapshotForecastMatchesSystemForecast(t *testing.T) {
	s := newSnapshotSystem(t, 8)
	rng := rand.New(rand.NewPCG(11, 0))
	for step := 0; step < 40; step++ {
		if _, err := s.Step(noisyStep(rng, 12)); err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		if snap == nil {
			t.Fatal("snapshot must be published after every step")
		}
		if snap.Generation() != uint64(step+1) || snap.Steps() != step+1 {
			t.Fatalf("gen=%d steps=%d at step %d", snap.Generation(), snap.Steps(), step+1)
		}
		if !snap.Ready() {
			continue
		}
		for _, h := range []int{1, 3, 8} {
			direct, err := s.Forecast(h)
			if err != nil {
				t.Fatal(err)
			}
			served, err := snap.Forecast(h)
			if err != nil {
				t.Fatal(err)
			}
			// The same plan kernel at explicit pool widths: the published
			// snapshot's own is the default (0).
			for _, procs := range []int{0, 1, 4} {
				if procs > 0 {
					prev := runtime.GOMAXPROCS(procs)
					served = s.reconEnv().plan(snap.plan.cent).tensor(h)
					runtime.GOMAXPROCS(prev)
				}
				for hi := range direct {
					for i := range direct[hi] {
						for d := range direct[hi][i] {
							if direct[hi][i][d] != served[hi][i][d] {
								t.Fatalf("step %d h=%d GOMAXPROCS=%d: snapshot forecast [%d][%d][%d]=%v, system says %v",
									step+1, h, procs, hi, i, d, served[hi][i][d], direct[hi][i][d])
							}
						}
					}
				}
			}
		}
	}
	if !s.Ready() {
		t.Fatal("system never became ready")
	}
}

func TestSnapshotIsolationFromLaterSteps(t *testing.T) {
	t.Parallel()
	s := newSnapshotSystem(t, 4)
	rng := rand.New(rand.NewPCG(13, 0))
	for step := 0; step < 25; step++ {
		if _, err := s.Step(noisyStep(rng, 12)); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Snapshot()
	before, err := old.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	z0 := old.Latest(0)
	for step := 0; step < 10; step++ {
		if _, err := s.Step(noisyStep(rng, 12)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Snapshot() == old {
		t.Fatal("later steps must publish new snapshots")
	}
	after, err := old.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	for hi := range before {
		for i := range before[hi] {
			for d := range before[hi][i] {
				if before[hi][i][d] != after[hi][i][d] {
					t.Fatalf("old snapshot's forecast changed at [%d][%d][%d]", hi, i, d)
				}
			}
		}
	}
	for d, v := range old.Latest(0) {
		if v != z0[d] {
			t.Fatal("old snapshot's stored measurement changed")
		}
	}
}

func TestSnapshotErrorsAndAccessors(t *testing.T) {
	t.Parallel()
	s := newSnapshotSystem(t, 4)
	rng := rand.New(rand.NewPCG(17, 0))
	if _, err := s.Step(noisyStep(rng, 12)); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Ready() {
		t.Fatal("snapshot before warmup must not be ready")
	}
	if _, err := snap.Forecast(1); !errors.Is(err, ErrNotReady) {
		t.Fatalf("want ErrNotReady, got %v", err)
	}
	for s.Steps() < 20 {
		if _, err := s.Step(noisyStep(rng, 12)); err != nil {
			t.Fatal(err)
		}
	}
	snap = s.Snapshot()
	if !snap.Ready() {
		t.Fatal("snapshot after warmup must be ready")
	}
	if _, err := snap.Forecast(0); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h=0: want ErrBadInput, got %v", err)
	}
	if _, err := snap.Forecast(5); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h>max: want ErrBadInput, got %v", err)
	}
	if snap.MaxHorizon() != 4 || snap.Nodes() != 12 || snap.Resources() != 2 ||
		snap.Trackers() != 2 || snap.Clusters() != 2 {
		t.Fatal("snapshot shape accessors disagree with config")
	}
	if got := snap.Assignment(0, 0); got < 0 || got >= 2 {
		t.Fatalf("assignment out of range: %d", got)
	}
	if snap.Assignment(2, 0) != -1 || snap.Assignment(0, 99) != -1 {
		t.Fatal("out-of-range assignment must be -1")
	}
	if snap.Latest(99) != nil || snap.Latest(-1) != nil {
		t.Fatal("out-of-range Latest must be nil")
	}
	for _, slot := range []int{-1, math.MinInt, 12, 99} {
		if snap.Present(slot) || snap.WindowFill(slot) != 0 {
			t.Fatalf("out-of-range slot %d: Present %v, WindowFill %d, want false and 0",
				slot, snap.Present(slot), snap.WindowFill(slot))
		}
	}
	if fill := snap.WindowFill(3); fill != 4 {
		t.Fatalf("WindowFill(3) = %d after %d steps of an always-reporting fleet, want the window length 4", fill, s.Steps())
	}
	if len(snap.Latest(3)) != 2 {
		t.Fatal("Latest must return the d-dimensional stored row")
	}
	if c := snap.Centroids(0); len(c) != 2 || len(c[0]) != 1 {
		t.Fatalf("centroids shape %v", c)
	}
	if snap.Centroids(5) != nil {
		t.Fatal("out-of-range Centroids must be nil")
	}
	if f := snap.Frequency(0); f <= 0 || f > 1 {
		t.Fatalf("frequency %v out of (0,1]", f)
	}
	if snap.Frequency(-3) != 0 {
		t.Fatal("out-of-range Frequency must be 0")
	}
	if snap.MeanFrequency() <= 0 {
		t.Fatal("mean frequency must be positive with Always policy")
	}
}

// TestSnapshotConcurrentReaders exercises the snapshot plane under the race
// detector: one goroutine keeps stepping while many readers grab snapshots
// and forecast from them.
func TestSnapshotConcurrentReaders(t *testing.T) {
	t.Parallel()
	s, err := NewSystem(Config{
		Nodes: 16, Resources: 2, K: 2, InitialCollection: 10, RetrainEvery: 8,
		MPrime: 2, Policy: alwaysPolicy, Seed: 5, SnapshotHorizon: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(23, 0))
	for step := 0; step < 12; step++ {
		if _, err := s.Step(noisyStep(rng, 16)); err != nil {
			t.Fatal(err)
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				snap := s.Snapshot()
				if snap == nil {
					t.Error("nil snapshot after warm start")
					return
				}
				if _, err := snap.Forecast(1 + r%6); err != nil {
					t.Errorf("reader forecast: %v", err)
					return
				}
			}
		}(r)
	}
	for step := 0; step < 60; step++ {
		if _, err := s.Step(noisyStep(rng, 16)); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
}

// TestFleetPlanAllocations pins what a fleet plan build allocates: the plan
// and its mode/offset/fill arrays plus the fan-out's constant — the block scratch
// comes back from planScratches — so the object count is the same at N = 256
// (two blocks) as at N = 4096, and the bytes beyond the two arrays stay under
// 1 KiB. The plan is built on every step that publishes a snapshot, where
// scratch allocated per build, even per worker, shows up at once. GC is off
// while measuring, since a collection empties the pool. Both are measured at
// GOMAXPROCS 1 (serial) and 2 (the blocks fanned out on two workers). A
// pool keeps one item per P that other Ps cannot take, so at GOMAXPROCS 2 a
// build that moves between Ps can miss once mid-reading; each size keeps the
// cheapest of several windows, while scratch allocated per build would show
// in every one. Not parallel: it sets GOMAXPROCS.
func TestFleetPlanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the block scratch comes from a sync.Pool, which -race makes drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(n int) (objects, extraBytes float64) {
		cfg := churnConfig(n)
		cfg.SnapshotHorizon = 4
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; !sys.Ready(); step++ {
			stepFleet(t, sys, step, nil)
		}
		snap := sys.Snapshot()
		env := sys.reconEnv()
		for range 4 { // fill the scratch pool on every P
			env.plan(snap.plan.cent)
		}
		const windows, runs = 4, 50
		objects, extraBytes = math.Inf(1), math.Inf(1)
		arrays := n * (4*snap.nTracker + 8*snap.resources + 4)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				env.plan(snap.plan.cent)
			}
			runtime.ReadMemStats(&after)
			// Whole objects per build, as testing.AllocsPerRun counts them.
			objects = min(objects, float64((after.Mallocs-before.Mallocs)/runs))
			extraBytes = min(extraBytes, float64(after.TotalAlloc-before.TotalAlloc)/runs-float64(arrays))
		}
		return objects, extraBytes
	}
	for _, procs := range []int{1, 2} {
		setMaxProcs(t, procs)
		small, smallExtra := build(256)
		large, largeExtra := build(4096)
		t.Logf("GOMAXPROCS=%d: %v objects per fleet plan build at either fleet size, %v/%v bytes beyond the plan's arrays",
			procs, small, smallExtra, largeExtra)
		if small != large {
			t.Fatalf("GOMAXPROCS=%d: a fleet plan build allocates %v objects at N=256, %v at N=4096", procs, small, large)
		}
		if smallExtra > 1024 || largeExtra > 1024 {
			t.Fatalf("GOMAXPROCS=%d: a fleet plan build allocates %v bytes at N=256 and %v at N=4096 beyond its mode/offset/fill arrays, want < 1 KiB",
				procs, smallExtra, largeExtra)
		}
	}
}

// TestPlanRepeatsPrevious pins what the served bodies rely on when they
// write a repeated horizon from the bytes of the one before: wherever
// RepeatsPrevious(hi) holds, Row(slot, hi) equals Row(slot, hi−1) bit for bit
// for every slot, and it never holds at hi = 0 or before training. The
// level families repeat every horizon after the first and holt none, so
// both sides of the predicate are reached, scalar and joint.
func TestPlanRepeatsPrevious(t *testing.T) {
	t.Parallel()
	const horizon = 6
	for _, tc := range []struct {
		family  string
		repeats bool
	}{
		{"sample-and-hold", true}, {"ses", true}, {"historical-mean", true}, {"holt", false},
	} {
		for _, joint := range []bool{false, true} {
			zoo, err := forecast.Zoo(tc.family)
			if err != nil {
				t.Fatal(err)
			}
			cfg := snapshotConfig(horizon)
			cfg.Zoo, cfg.JointClustering = zoo, joint
			s, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(5, 0))
			a, b := make([]float64, cfg.Resources), make([]float64, cfg.Resources)
			for step := 0; step < 30; step++ {
				if _, err := s.Step(noisyStep(rng, cfg.Nodes)); err != nil {
					t.Fatal(err)
				}
				plan := s.Snapshot().Plan()
				for hi := 0; hi < horizon; hi++ {
					got := plan.RepeatsPrevious(hi)
					if got && (hi == 0 || !s.Ready()) {
						t.Fatalf("%s joint=%v step %d: RepeatsPrevious(%d) with ready=%v", tc.family, joint, step+1, hi, s.Ready())
					}
					if s.Ready() && hi > 0 && got != tc.repeats {
						t.Fatalf("%s joint=%v step %d: RepeatsPrevious(%d) = %v, want %v", tc.family, joint, step+1, hi, got, tc.repeats)
					}
					if !got {
						continue
					}
					for slot := 0; slot < cfg.Nodes; slot++ {
						plan.Row(slot, hi, a)
						plan.Row(slot, hi-1, b)
						for r := range a {
							if math.Float64bits(a[r]) != math.Float64bits(b[r]) {
								t.Fatalf("%s joint=%v step %d slot %d: horizon %d repeats the one before, yet its row is %v against %v",
									tc.family, joint, step+1, slot, hi, a, b)
							}
						}
					}
				}
			}
			if !s.Ready() {
				t.Fatalf("%s joint=%v: never ready", tc.family, joint)
			}
			if !tc.repeats {
				continue
			}
			// One flipped bit of any centroid forecast of a horizon breaks
			// its repeat.
			plan := *s.Snapshot().Plan()
			for hi := 1; hi < horizon; hi++ {
				for i := hi * plan.stride; i < (hi+1)*plan.stride; i++ {
					flipped := plan
					flipped.cent = slices.Clone(plan.cent)
					flipped.cent[i] = math.Float64frombits(math.Float64bits(plan.cent[i]) ^ 1)
					if flipped.RepeatsPrevious(hi) {
						t.Fatalf("%s joint=%v: horizon %d repeats the one before with entry %d flipped", tc.family, joint, hi, i)
					}
				}
			}
		}
	}
}
