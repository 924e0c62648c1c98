package transmit

import (
	"math"
	"sync"
	"testing"
)

// resetVtTables drops every (t+1)^γ table, so that a test starts from an
// empty process-wide set. Only sequential tests call it: parallel tests of
// this package start after all of them have returned.
func resetVtTables() { vtTables.Store(nil) }

// checkStepPow fails unless StepPow(t, γ) has the bits of the oracle
// math.Pow(float64(t)+1, γ).
func checkStepPow(tb testing.TB, t int, gamma float64) {
	tb.Helper()
	got, want := StepPow(t, gamma), math.Pow(float64(t)+1, gamma)
	if math.Float64bits(got) != math.Float64bits(want) {
		tb.Fatalf("StepPow(%d, %v) = %v (%#x), want %v (%#x)",
			t, gamma, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestStepPowMatchesMathPow is the oracle: under every access order a caller
// produces, StepPow has the bits of math.Pow(float64(t)+1, γ), on a
// computed entry, on a first use, across growth and outside the tables.
func TestStepPowMatchesMathPow(t *testing.T) {
	const nodes, steps = 24, 1100 // past two doublings of a first table
	orders := []struct {
		name string
		walk func(visit func(t int, gamma float64))
	}{
		{"step-major", func(visit func(int, float64)) {
			for s := 1; s <= steps; s++ {
				for range nodes {
					visit(s, 0.65)
				}
			}
		}},
		{"node-major", func(visit func(int, float64)) {
			for range nodes {
				for s := 1; s <= steps; s++ {
					visit(s, 0.65)
				}
			}
		}},
		{"two-gammas-interleaved", func(visit func(int, float64)) {
			for s := 1; s <= steps; s++ {
				for i := range nodes {
					visit(s, []float64{0.5, 0.8}[i%2])
				}
			}
		}},
		{"two-gammas-node-major", func(visit func(int, float64)) {
			for i := range nodes {
				for s := 1; s <= steps; s++ {
					visit(s, []float64{0.5, 0.8}[i%2])
				}
			}
		}},
		{"descending", func(visit func(int, float64)) {
			for s := steps; s >= 0; s-- {
				visit(s, 0.3)
				visit(s, 0.65)
			}
		}},
		{"bounds", func(visit func(int, float64)) {
			for _, s := range []int{-1, -2, math.MinInt, 0, vtMaxSteps - 2, vtMaxSteps - 1, vtMaxSteps, vtMaxSteps + 1, 1 << 40, math.MaxInt} {
				for range 3 {
					visit(s, 0.65)
				}
			}
		}},
		{"odd-gammas", func(visit func(int, float64)) {
			odd := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), -0.5, 1, 2.5, -1e300, 1e300,
				math.SmallestNonzeroFloat64}
			for s := -1; s <= 600; s++ {
				for _, g := range odd {
					visit(s, g)
				}
			}
		}},
	}
	for _, o := range orders {
		t.Run(o.name, func(t *testing.T) {
			resetVtTables()
			for range 2 { // the second pass reads computed entries
				o.walk(func(s int, g float64) { checkStepPow(t, s, g) })
			}
		})
	}
}

// TestStepPowSignedZeroGamma: γ = +0 and γ = −0 compare equal and so share
// one table, which is sound only because (t+1)^±0 is 1 either way.
func TestStepPowSignedZeroGamma(t *testing.T) {
	resetVtTables()
	negZero := math.Copysign(0, -1)
	for s := range 300 {
		checkStepPow(t, s, 0)
		checkStepPow(t, s, negZero)
		if got := StepPow(s, negZero); got != 1 {
			t.Fatalf("StepPow(%d, -0) = %v, want 1", s, got)
		}
	}
	if tabs := *vtTables.Load(); len(tabs) != 1 {
		t.Fatalf("±0 hold %d tables, want 1", len(tabs))
	}
}

// TestStepPowMemoryBound pins the documented bound: at most vtMaxGammas
// tables of at most vtMaxSteps entries, a table grown only for a t asked a
// second time and only as far as that t rounded up to a power of two, and
// the cases outside the tables served by a plain math.Pow without an
// allocation or a new table.
func TestStepPowMemoryBound(t *testing.T) {
	resetVtTables()
	lens := func() map[float64]int {
		m := map[float64]int{}
		if cur := vtTables.Load(); cur != nil {
			for _, tab := range *cur {
				m[tab.gamma] = len(tab.pow)
			}
		}
		return m
	}
	checkStepPow(t, 3, 0.65)
	if got := lens()[0.65]; got != vtMinSteps {
		t.Fatalf("first table holds %d entries, want %d", got, vtMinSteps)
	}
	// A caller moving forward past the table (core's walk of a uniform
	// fleet) leaves it as it is; asking a t again grows it.
	for s := vtMinSteps; s < 700; s++ {
		checkStepPow(t, s, 0.65)
	}
	if got := lens()[0.65]; got != vtMinSteps {
		t.Fatalf("forward walk grew the table to %d entries", got)
	}
	checkStepPow(t, 699, 0.65)
	if got := lens()[0.65]; got != 1024 {
		t.Fatalf("table for t = 699 asked again holds %d entries, want 1024", got)
	}
	checkStepPow(t, vtMaxSteps-1, 0.65)
	checkStepPow(t, vtMaxSteps-1, 0.65)
	if got := lens()[0.65]; got != vtMaxSteps {
		t.Fatalf("table at the cap holds %d entries, want %d", got, vtMaxSteps)
	}

	// Outside the tables: no growth, no new table, no allocation.
	outside := []struct {
		t     int
		gamma float64
	}{{vtMaxSteps, 0.65}, {vtMaxSteps + 1, 0.65}, {math.MaxInt, 0.65}, {-1, 0.65}, {math.MinInt, 0.65}, {5, math.NaN()}}
	for _, c := range outside {
		checkStepPow(t, c.t, c.gamma)
		if allocs := testing.AllocsPerRun(20, func() { StepPow(c.t, c.gamma) }); allocs != 0 {
			t.Fatalf("StepPow(%d, %v) allocates %v times", c.t, c.gamma, allocs)
		}
	}
	if m := lens(); len(m) != 1 || m[0.65] != vtMaxSteps {
		t.Fatalf("tables after out-of-bound calls: %v", m)
	}

	// γ values past the set.
	for k := 1; k <= vtMaxGammas+3; k++ {
		g := float64(k) / 16
		for s := 0; s < 2*vtMinSteps; s += 37 {
			checkStepPow(t, s, g)
		}
	}
	m := lens()
	if len(m) != vtMaxGammas {
		t.Fatalf("%d tables, want the cap %d", len(m), vtMaxGammas)
	}
	past := float64(vtMaxGammas+3) / 16
	if _, ok := m[past]; ok {
		t.Fatalf("γ = %v past the set got a table", past)
	}
	if allocs := testing.AllocsPerRun(20, func() { StepPow(9, past) }); allocs != 0 {
		t.Fatalf("StepPow at a γ past the set allocates %v times", allocs)
	}
	for _, n := range m {
		if n > vtMaxSteps {
			t.Fatalf("a table holds %d entries, past the cap %d", n, vtMaxSteps)
		}
	}
}

// TestStepPowConcurrentSkewedSteps runs eight goroutines deciding at steps
// skewed against each other, two γ values interleaved, across table growth;
// run it under -race.
func TestStepPowConcurrentSkewedSteps(t *testing.T) {
	resetVtTables()
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
				for _, g := range []float64{0.65, 0.5} {
					if got, want := StepPow(s, g), math.Pow(float64(s)+1, g); math.Float64bits(got) != math.Float64bits(want) {
						errs <- "StepPow mismatch under concurrency"
						return
					}
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
		checkStepPow(t, s, 0.65)
		checkStepPow(t, s, 0.5)
	}
}

// TestAdaptiveDecideNodeMajorAllocatesNothing is the allocation guard: a
// node-major sweep — every step of one node, then the next, as an agent or
// a set-up replaying a trace decides — allocates nothing once its tables
// exist.
func TestAdaptiveDecideNodeMajorAllocatesNothing(t *testing.T) {
	resetVtTables()
	const nodes, steps = 16, 900
	policies := make([]*Adaptive, nodes)
	for i := range policies {
		p, err := NewAdaptive(AdaptiveConfig{Budget: 0.3, Gamma: []float64{0.65, 0.5}[i%2]})
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
