package optimize

import (
	"errors"
	"math"
	"testing"
)

func TestNelderMeadQuadratic(t *testing.T) {
	t.Parallel()
	f := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2)
	}
	res, err := minimize(new(Workspace), f, []float64{0, 0}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-3) > 1e-3 || math.Abs(res.X[1]+2) > 1e-3 {
		t.Fatalf("minimum at %v, want (3,-2)", res.X)
	}
	if !res.Converged {
		t.Fatal("should converge on a quadratic")
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	t.Parallel()
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	res, err := minimize(new(Workspace), f, []float64{-1.2, 1}, Options{MaxEvaluations: 5000, Tolerance: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-1) > 1e-2 || math.Abs(res.X[1]-1) > 1e-2 {
		t.Fatalf("Rosenbrock minimum at %v, want (1,1)", res.X)
	}
}

func TestNelderMeadOneDimensional(t *testing.T) {
	t.Parallel()
	f := func(x []float64) float64 { return math.Abs(x[0] - 0.5) }
	res, err := minimize(new(Workspace), f, []float64{-4}, Options{MaxEvaluations: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-0.5) > 1e-3 {
		t.Fatalf("minimum at %v, want 0.5", res.X[0])
	}
}

func TestNelderMeadInfeasibleRegion(t *testing.T) {
	t.Parallel()
	// Objective defined only for x > 0; +Inf outside. The optimizer must
	// stay in the feasible region and find the minimum at x=2.
	f := func(x []float64) float64 {
		if x[0] <= 0 {
			return math.Inf(1)
		}
		return (x[0] - 2) * (x[0] - 2)
	}
	res, err := minimize(new(Workspace), f, []float64{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.X[0]-2) > 1e-3 {
		t.Fatalf("constrained minimum at %v, want 2", res.X[0])
	}
}

func TestNelderMeadNaNTreatedAsInf(t *testing.T) {
	t.Parallel()
	f := func(x []float64) float64 {
		if x[0] < 0 {
			return math.NaN()
		}
		return x[0] * x[0]
	}
	res, err := minimize(new(Workspace), f, []float64{5}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.X[0] < -1e-6 || res.F > 1e-4 {
		t.Fatalf("NaN region entered: x=%v f=%v", res.X, res.F)
	}
}

func TestNelderMeadBudget(t *testing.T) {
	t.Parallel()
	calls := 0
	f := func(x []float64) float64 {
		calls++
		return x[0] * x[0]
	}
	res, err := minimize(new(Workspace), f, []float64{100}, Options{MaxEvaluations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > 12 { // small overshoot allowed within one iteration
		t.Fatalf("used %d evaluations with budget 10", res.Evaluations)
	}
	if calls != res.Evaluations {
		t.Fatalf("reported %d evaluations, actual %d", res.Evaluations, calls)
	}
}

func TestNelderMeadErrors(t *testing.T) {
	t.Parallel()
	if _, err := minimize(new(Workspace), func([]float64) float64 { return 0 }, nil, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty start: want ErrBadInput, got %v", err)
	}
}

// TestNelderMeadRejectsBadOptions pins the option checks: zeros select the
// defaults, but a negative budget (which returned the initial simplex
// unconverged), a negative or NaN tolerance (which ran to the budget) and a
// non-finite initial step are errors from Start.
func TestNelderMeadRejectsBadOptions(t *testing.T) {
	t.Parallel()
	f := func(x []float64) float64 { return x[0] * x[0] }
	nan, inf := math.NaN(), math.Inf(1)
	for _, opts := range []Options{
		{MaxEvaluations: -1},
		{MaxEvaluations: math.MinInt},
		{Tolerance: -1e-8},
		{Tolerance: nan},
		{Tolerance: math.Copysign(nan, -1)},
		{InitialStep: nan},
		{InitialStep: inf},
		{InitialStep: -inf},
	} {
		var ws Workspace
		if r, err := ws.Start([]float64{1}, opts); !errors.Is(err, ErrBadInput) || r != nil {
			t.Fatalf("Start(%+v): want ErrBadInput and no run, got %v", opts, err)
		}
	}
	// Values that mean something stay accepted: an +Inf tolerance leaves
	// only the diameter to converge on, a negative step builds the simplex
	// the other way.
	for _, opts := range []Options{
		{Tolerance: inf},
		{InitialStep: -0.5},
		{MaxEvaluations: 1},
	} {
		if _, err := minimize(new(Workspace), f, []float64{1}, opts); err != nil {
			t.Fatalf("minimize(%+v): %v", opts, err)
		}
	}
}

func TestNelderMeadAllInfeasibleStops(t *testing.T) {
	t.Parallel()
	f := func([]float64) float64 { return math.Inf(1) }
	res, err := minimize(new(Workspace), f, []float64{0, 0}, Options{MaxEvaluations: 100})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(res.F, 1) {
		t.Fatalf("expected +Inf objective, got %v", res.F)
	}
}

// nmCase is one differential case shared by the reference and allocation
// tests.
type nmCase struct {
	name string
	f    func([]float64) float64
	x0   []float64
	opts Options
}

func nmCases() []nmCase {
	rosenbrock := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	sphere := func(x []float64) float64 {
		var s float64
		for i, v := range x {
			d := v - float64(i)
			s += d * d
		}
		return s
	}
	return []nmCase{
		{"rosenbrock", rosenbrock, []float64{-1.2, 1}, Options{MaxEvaluations: 5000, Tolerance: 1e-12}},
		{"rosenbrock-defaults", rosenbrock, []float64{-1.2, 1}, Options{}},
		{"sphere-6d", sphere, []float64{3, -2, 0, 0.5, 9, -7}, Options{MaxEvaluations: 2400, Tolerance: 1e-10, InitialStep: 0.2}},
		{"abs-1d", func(x []float64) float64 { return math.Abs(x[0] - 0.5) }, []float64{-4}, Options{MaxEvaluations: 2000}},
		{"infeasible-region", func(x []float64) float64 {
			if x[0] <= 0 || x[1] <= 0 {
				return math.Inf(1)
			}
			return (x[0]-2)*(x[0]-2) + (x[1]-0.1)*(x[1]-0.1)
		}, []float64{1, 1}, Options{}},
		{"nan-region", func(x []float64) float64 {
			if x[0] < 0 {
				return math.NaN()
			}
			return x[0] * x[0]
		}, []float64{5}, Options{}},
		{"all-infeasible", func([]float64) float64 { return math.Inf(1) }, []float64{0, 0}, Options{MaxEvaluations: 100}},
		// The budget is checked once per iteration, so a shrink step (dim
		// evaluations) overshoots it; both sides must overshoot alike.
		{"budget-overshoot", sphere, []float64{100, -50, 25}, Options{MaxEvaluations: 10}},
		{"budget-below-initial-simplex", sphere, []float64{1, 2, 3, 4}, Options{MaxEvaluations: 2}},
		{"plateau-shrinks", func(x []float64) float64 { return math.Floor(math.Abs(x[0])) + math.Floor(math.Abs(x[1])) }, []float64{7.3, -4.2}, Options{MaxEvaluations: 300}},
	}
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestNelderMeadMatchesReference pins the in-place minimizer to the
// allocating reference bit for bit: same evaluation points in the same
// order, same result, same evaluation count. One workspace is reused across
// all cases so that leftovers of an earlier (larger or smaller) run would
// show up as a difference.
func TestNelderMeadMatchesReference(t *testing.T) {
	t.Parallel()
	ws := NewWorkspace(2)
	for _, tc := range nmCases() {
		var wantTrace, gotTrace []float64
		want, err := refNelderMead(traced(tc.f, &wantTrace), tc.x0, tc.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got, err := minimize(ws, traced(tc.f, &gotTrace), tc.x0, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got.Evaluations != want.Evaluations || got.Converged != want.Converged || !sameBits(got.F, want.F) {
			t.Fatalf("%s: got F=%v evals=%d converged=%v, want F=%v evals=%d converged=%v", tc.name,
				got.F, got.Evaluations, got.Converged, want.F, want.Evaluations, want.Converged)
		}
		if len(got.X) != len(want.X) {
			t.Fatalf("%s: X has %d coordinates, want %d", tc.name, len(got.X), len(want.X))
		}
		for i := range want.X {
			if !sameBits(got.X[i], want.X[i]) {
				t.Fatalf("%s: X[%d] = %v, want %v", tc.name, i, got.X[i], want.X[i])
			}
		}
		if len(gotTrace) != len(wantTrace) {
			t.Fatalf("%s: evaluated %d coordinates, want %d", tc.name, len(gotTrace), len(wantTrace))
		}
		for i := range wantTrace {
			if !sameBits(gotTrace[i], wantTrace[i]) {
				t.Fatalf("%s: evaluation point coordinate %d = %v, want %v", tc.name, i, gotTrace[i], wantTrace[i])
			}
		}
		fresh, err := minimize(new(Workspace), tc.f, tc.x0, tc.opts)
		if err != nil {
			t.Fatalf("%s: fresh workspace: %v", tc.name, err)
		}
		if fresh.Evaluations != want.Evaluations || !sameBits(fresh.F, want.F) {
			t.Fatalf("%s: a fresh workspace diverges from the reference", tc.name)
		}
	}
}

// minimize runs Nelder–Mead on f from x0 in ws to the end, calling f on every
// point the run hands out.
func minimize(ws *Workspace, f func([]float64) float64, x0 []float64, opts Options) (Result, error) {
	r, err := ws.Start(x0, opts)
	if err != nil {
		return Result{}, err
	}
	for x, ok := r.Next(); ok; x, ok = r.Next() {
		r.Tell(f(x))
	}
	return r.Result(), nil
}

// traced wraps f so that every evaluation point is appended to *trace.
func traced(f func([]float64) float64, trace *[]float64) func([]float64) float64 {
	return func(x []float64) float64 {
		*trace = append(*trace, x...)
		return f(x)
	}
}

// TestNelderMeadRunsInLockstep drives three runs, each on its own workspace,
// through one interleaved Next/Tell schedule — the shape the ARIMA grid
// search uses to evaluate two orders' points together — and requires each to
// reproduce the reference's evaluation points, result and count. The
// schedule is uneven (run k advances k+1 evaluations per round), so the runs
// end at different rounds and meet each other in every phase.
func TestNelderMeadRunsInLockstep(t *testing.T) {
	t.Parallel()
	all := nmCases()
	cases := []nmCase{all[1], all[2], all[9]} // rosenbrock-defaults, sphere-6d, plateau-shrinks
	type lane struct {
		tc    nmCase
		run   *Run
		f     func([]float64) float64
		trace []float64
	}
	lanes := make([]lane, len(cases))
	for k, tc := range cases {
		var err error
		lanes[k].tc = tc
		lanes[k].f = traced(tc.f, &lanes[k].trace)
		if lanes[k].run, err = new(Workspace).Start(tc.x0, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}
	for busy := true; busy; {
		busy = false
		for k := range lanes {
			for step := 0; step <= k; step++ {
				x, ok := lanes[k].run.Next()
				if !ok {
					break
				}
				busy = true
				lanes[k].run.Tell(lanes[k].f(x))
			}
		}
	}
	for _, ln := range lanes {
		var wantTrace []float64
		want, err := refNelderMead(traced(ln.tc.f, &wantTrace), ln.tc.x0, ln.tc.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", ln.tc.name, err)
		}
		got := ln.run.Result()
		if got.Evaluations != want.Evaluations || got.Converged != want.Converged || !sameBits(got.F, want.F) {
			t.Fatalf("%s: got F=%v evals=%d converged=%v, want F=%v evals=%d converged=%v", ln.tc.name,
				got.F, got.Evaluations, got.Converged, want.F, want.Evaluations, want.Converged)
		}
		for i := range want.X {
			if !sameBits(got.X[i], want.X[i]) {
				t.Fatalf("%s: X[%d] = %v, want %v", ln.tc.name, i, got.X[i], want.X[i])
			}
		}
		if len(ln.trace) != len(wantTrace) {
			t.Fatalf("%s: evaluated %d coordinates, want %d", ln.tc.name, len(ln.trace), len(wantTrace))
		}
		for i := range wantTrace {
			if !sameBits(ln.trace[i], wantTrace[i]) {
				t.Fatalf("%s: evaluation point coordinate %d = %v, want %v", ln.tc.name, i, ln.trace[i], wantTrace[i])
			}
		}
		if x, ok := ln.run.Next(); ok || x != nil {
			t.Fatalf("%s: Next after the end = %v, %v", ln.tc.name, x, ok)
		}
		ln.run.Tell(0) // ignored once done
		if after := ln.run.Result(); after.Evaluations != got.Evaluations || !sameBits(after.F, got.F) {
			t.Fatalf("%s: Tell after the end changed the result", ln.tc.name)
		}
	}
}

// TestNelderMeadAllocations pins the allocation contract: a run driven
// through Start/Next/Tell on a sized workspace allocates nothing, and a run
// on a fresh workspace allocates a constant handful of objects however many
// evaluations it takes.
func TestNelderMeadAllocations(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x0 := []float64{-1.2, 1}
	ws := NewWorkspace(2)
	if n := testing.AllocsPerRun(20, func() {
		r, err := ws.Start(x0, Options{MaxEvaluations: 5000, Tolerance: 1e-12})
		if err != nil {
			t.Fatal(err)
		}
		for x, ok := r.Next(); ok; x, ok = r.Next() {
			r.Tell(f(x))
		}
		if r.Result().Evaluations < 100 {
			t.Fatalf("driven run took %d evaluations", r.Result().Evaluations)
		}
	}); n != 0 {
		t.Fatalf("a driven run allocates %v objects, want 0", n)
	}
	perRun := func(budget int) (allocs float64, evals int) {
		allocs = testing.AllocsPerRun(20, func() {
			res, err := minimize(new(Workspace), f, x0, Options{MaxEvaluations: budget, Tolerance: 1e-300})
			if err != nil {
				t.Fatal(err)
			}
			evals = res.Evaluations
		})
		return allocs, evals
	}
	short, shortEvals := perRun(20)
	long, longEvals := perRun(4000)
	if longEvals < 10*shortEvals {
		t.Fatalf("long run used %d evaluations against %d: the comparison needs them far apart", longEvals, shortEvals)
	}
	if short != long || long > 6 {
		t.Fatalf("a fresh workspace allocates %v objects over %d evaluations and %v over %d, want the same small constant", short, shortEvals, long, longEvals)
	}
}
