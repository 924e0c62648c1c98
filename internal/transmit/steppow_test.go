package transmit

import (
	"math"
	"sync"
	"testing"
)

// resetVtTable drops the (t+1)^γ table, so that a test starts from an empty
// process-wide table. Only sequential tests call it: parallel tests of this
// package start after all of them have returned.
func resetVtTable() { vtTable.Store(nil) }

// checkStepPow fails unless StepPow(t) has the bits of the oracle
// math.Pow(float64(t)+1, γ).
func checkStepPow(tb testing.TB, t int) {
	tb.Helper()
	got, want := StepPow(t), math.Pow(float64(t)+1, gamma)
	if math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("StepPow(%d) = %v (%#x), want %v (%#x)",
			t, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestStepPowMatchesMathPow is the oracle: under every access order a caller
// produces, StepPow has the bits of math.Pow(float64(t)+1, γ), on a
// computed entry, on a first use, across growth and outside the table.
func TestStepPowMatchesMathPow(t *testing.T) {
	const nodes, steps = 24, 1100 // past two doublings of a first table
	orders := []struct {
		name string
		walk func(visit func(t int))
	}{
		{"step-major", func(visit func(int)) {
			for s := 1; s <= steps; s++ {
				for range nodes {
					visit(s)
				}
			}
		}},
		{"node-major", func(visit func(int)) {
			for range nodes {
				for s := 1; s <= steps; s++ {
					visit(s)
				}
			}
		}},
		{"descending", func(visit func(int)) {
			for s := steps; s >= 0; s-- {
				visit(s)
			}
		}},
		{"bounds", func(visit func(int)) {
			for _, s := range []int{-1, -2, math.MinInt, 0, vtMaxSteps - 2, vtMaxSteps - 1, vtMaxSteps, vtMaxSteps + 1, 1 << 40, math.MaxInt} {
				for range 3 {
					visit(s)
				}
			}
		}},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			resetVtTable()
			for range 2 { // the second pass reads computed entries
				o.walk(func(s int) { checkStepPow(t, s) })
			}
		})
	}
}

// TestStepPowMemoryBound pins the documented bound: one table of at most
// vtMaxSteps entries, grown only for a t asked a second time and only as far
// as that t rounded up to a power of two, and the cases outside the table
// served by a plain math.Pow without an allocation or growth.
func TestStepPowMemoryBound(t *testing.T) {
	resetVtTable()
	size := func() int {
		if cur := vtTable.Load(); cur != nil {
			return len(*cur)
		}
		return 0
	}
	checkStepPow(t, 3)
	if got := size(); got != vtMinSteps {
		t.Fatalf("first table holds %d entries, want %d", got, vtMinSteps)
	}
	// A caller moving forward past the table (core's walk) leaves it as it
	// is; asking a t again grows it.
	for s := vtMinSteps; s < 700; s++ {
		checkStepPow(t, s)
	}
	if got := size(); got != vtMinSteps {
		t.Fatalf("forward walk grew the table to %d entries", got)
	}
	checkStepPow(t, 699)
	if got := size(); got != 1024 {
		t.Fatalf("table for t = 699 asked again holds %d entries, want 1024", got)
	}
	checkStepPow(t, vtMaxSteps-1)
	checkStepPow(t, vtMaxSteps-1)
	if got := size(); got != vtMaxSteps {
		t.Fatalf("table at the cap holds %d entries, want %d", got, vtMaxSteps)
	}

	// Outside the table: no growth, no allocation.
	for _, s := range []int{vtMaxSteps, vtMaxSteps + 1, math.MaxInt, -1, math.MinInt} {
		checkStepPow(t, s)
		if allocs := testing.AllocsPerRun(20, func() { StepPow(s) }); allocs != 0 {
			t.Fatalf("StepPow(%d) allocates %v times", s, allocs)
		}
	}
	if got := size(); got != vtMaxSteps {
		t.Fatalf("table after out-of-bound calls holds %d entries", got)
	}
}

// TestStepPowConcurrentSkewedSteps runs eight goroutines deciding at steps
// skewed against each other, across table growth; run it under -race.
func TestStepPowConcurrentSkewedSteps(t *testing.T) {
	resetVtTable()
	const workers, steps = 8, 2500
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range steps {
				s := (k + w*steps/workers) % steps
				if w%2 == 1 {
					s = steps - 1 - s
				}
				if got, want := StepPow(s), math.Pow(float64(s)+1, gamma); math.Float64bits(got) != math.Float64bits(want) {
					errs <- "StepPow mismatch under concurrency"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for s := range steps {
		checkStepPow(t, s)
	}
}

// TestAdaptiveDecideNodeMajorAllocatesNothing is the allocation guard: a
// node-major sweep — every step of one node, then the next, as an agent or
// a set-up replaying a trace decides — allocates nothing once its table
// exists.
func TestAdaptiveDecideNodeMajorAllocatesNothing(t *testing.T) {
	resetVtTable()
	const nodes, steps = 16, 900
	policies := make([]*Adaptive, nodes)
	for i := range policies {
		p, err := NewAdaptive(AdaptiveConfig{Budget: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		policies[i] = p
	}
	x, z := []float64{0.4, 0.6}, []float64{0.5, 0.5}
	sweep := func() {
		for _, p := range policies {
			for s := 1; s <= steps; s++ {
				p.Decide(s, x, z)
			}
		}
	}
	if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
		t.Fatalf("node-major sweep of %d decisions allocates %v times", nodes*steps, allocs)
	}
}
