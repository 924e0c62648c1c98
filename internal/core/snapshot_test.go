package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
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

func newSnapshotSystem(t *testing.T, horizon int) *System {
	t.Helper()
	s, err := NewSystem(Config{
		Nodes: 12, Resources: 2, K: 2, InitialCollection: 20, RetrainEvery: 15,
		MPrime: 3, Policy: alwaysPolicy, Seed: 3, SnapshotHorizon: horizon,
	})
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

func TestSnapshotForecastMatchesSystemForecast(t *testing.T) {
	t.Parallel()
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
			for _, workers := range []int{1, 4} {
				served, err := snap.Forecast(h, workers)
				if err != nil {
					t.Fatal(err)
				}
				for hi := range direct {
					for i := range direct[hi] {
						for d := range direct[hi][i] {
							if direct[hi][i][d] != served[hi][i][d] {
								t.Fatalf("step %d h=%d workers=%d: snapshot forecast [%d][%d][%d]=%v, system says %v",
									step+1, h, workers, hi, i, d, served[hi][i][d], direct[hi][i][d])
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
	before, err := old.Forecast(4, 1)
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
	after, err := old.Forecast(4, 1)
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
	if _, err := snap.Forecast(1, 1); !errors.Is(err, ErrNotReady) {
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
	if _, err := snap.Forecast(0, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("h=0: want ErrBadInput, got %v", err)
	}
	if _, err := snap.Forecast(5, 1); !errors.Is(err, ErrBadInput) {
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
				if _, err := snap.Forecast(1+r%6, 2); err != nil {
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
// and its mode/offset arrays plus the fan-out's constant — the block scratch
// comes back from planScratches — so the object count is the same at N = 256
// (two blocks) as at N = 4096, and the bytes beyond the two arrays stay under
// 1 KiB. The plan is built on every step that feeds the alert rules, where
// scratch allocated per build, even per worker, shows up at once. GC is off
// while measuring, since a collection empties the pool.
func TestFleetPlanAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the block scratch comes from a sync.Pool, which -race makes drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	build := func(n, workers int) (objects, extraBytes float64) {
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
		env := snap.reconEnv()
		run := func() { env.plan(snap.centF, 0, snap.nodes, workers) }
		objects = testing.AllocsPerRun(50, run)
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		arrays := n * (4*snap.nTracker + 8*snap.resources)
		return objects, float64(after.TotalAlloc-before.TotalAlloc)/runs - float64(arrays)
	}
	for _, workers := range []int{1, 2} {
		small, smallExtra := build(256, workers)
		large, largeExtra := build(4096, workers)
		t.Logf("workers=%d: %v objects per fleet plan build at either fleet size, %v/%v bytes beyond the plan's arrays",
			workers, small, smallExtra, largeExtra)
		if small != large {
			t.Fatalf("workers=%d: a fleet plan build allocates %v objects at N=256, %v at N=4096", workers, small, large)
		}
		if smallExtra > 1024 || largeExtra > 1024 {
			t.Fatalf("workers=%d: a fleet plan build allocates %v bytes at N=256 and %v at N=4096 beyond its mode/offset arrays, want < 1 KiB",
				workers, smallExtra, largeExtra)
		}
	}
}
