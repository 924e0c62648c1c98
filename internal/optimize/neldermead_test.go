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
	res, err := NelderMead(f, []float64{0, 0}, Options{})
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
	res, err := NelderMead(f, []float64{-1.2, 1}, Options{MaxEvaluations: 5000, Tolerance: 1e-12})
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
	res, err := NelderMead(f, []float64{-4}, Options{MaxEvaluations: 2000})
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
	res, err := NelderMead(f, []float64{1}, Options{})
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
	res, err := NelderMead(f, []float64{5}, Options{})
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
	res, err := NelderMead(f, []float64{100}, Options{MaxEvaluations: 10})
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
	if _, err := NelderMead(nil, []float64{1}, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil objective: want ErrBadInput, got %v", err)
	}
	if _, err := NelderMead(func([]float64) float64 { return 0 }, nil, Options{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty start: want ErrBadInput, got %v", err)
	}
}

func TestNelderMeadAllInfeasibleStops(t *testing.T) {
	t.Parallel()
	f := func([]float64) float64 { return math.Inf(1) }
	res, err := NelderMead(f, []float64{0, 0}, Options{MaxEvaluations: 100})
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
	f    Objective
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
		record := func(trace *[]float64) Objective {
			return func(x []float64) float64 {
				*trace = append(*trace, x...)
				return tc.f(x)
			}
		}
		want, err := refNelderMead(record(&wantTrace), tc.x0, tc.opts)
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		got, err := ws.NelderMead(record(&gotTrace), tc.x0, tc.opts)
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
		fresh, err := NelderMead(tc.f, tc.x0, tc.opts)
		if err != nil {
			t.Fatalf("%s: fresh workspace: %v", tc.name, err)
		}
		if fresh.Evaluations != want.Evaluations || !sameBits(fresh.F, want.F) {
			t.Fatalf("%s: package-level NelderMead diverges from the reference", tc.name)
		}
	}
}

// TestNelderMeadAllocations pins the allocation contract: a run on a sized
// workspace allocates nothing, and the package-level convenience allocates a
// constant handful of objects however many evaluations the run takes.
func TestNelderMeadAllocations(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	x0 := []float64{-1.2, 1}
	ws := NewWorkspace(2)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := ws.NelderMead(f, x0, Options{MaxEvaluations: 5000, Tolerance: 1e-12}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Workspace.NelderMead allocates %v objects per run, want 0", n)
	}
	perRun := func(budget int) (allocs float64, evals int) {
		allocs = testing.AllocsPerRun(20, func() {
			res, err := NelderMead(f, x0, Options{MaxEvaluations: budget, Tolerance: 1e-300, ToleranceX: 1e-300})
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
		t.Fatalf("NelderMead allocates %v objects over %d evaluations and %v over %d, want the same small constant", short, shortEvals, long, longEvals)
	}
}
