// Package optimize provides the derivative-free Nelder–Mead simplex
// minimizer used to fit ARIMA coefficients by conditional sum of squares.
// The objective may be non-smooth or defined only inside a stability region
// (return +Inf outside), which Nelder–Mead tolerates and gradient methods do
// not.
//
// The simplex is updated in place in a Workspace: a run allocates nothing
// per evaluation, and a caller that minimizes many objectives in a row (one
// per order of the ARIMA grid) reuses one workspace for all of them. A run is
// a pure function of its objective, start point and options — the workspace's
// history never shows in the result — which the ARIMA layer relies on to refit
// persisted models bit-identically. reference_test.go keeps the allocating
// implementation this replaced as the oracle that pins evaluation points,
// their order and the result bits.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput is returned for invalid starting points or options.
var ErrBadInput = errors.New("optimize: invalid input")

// Objective is a function to minimize. It must be deterministic. Returning
// +Inf (or NaN, which is treated as +Inf) marks a point as infeasible.
type Objective func(x []float64) float64

// Options tunes the Nelder–Mead run. The zero value selects sensible
// defaults.
type Options struct {
	// MaxEvaluations bounds objective calls. Zero means 200·dim.
	MaxEvaluations int
	// Tolerance terminates when the simplex function-value spread falls
	// below it. Zero means 1e-8.
	Tolerance float64
	// ToleranceX additionally requires the simplex diameter (L∞) to fall
	// below it before terminating, which prevents premature convergence on
	// simplexes straddling a symmetric minimum. Zero means 1e-6.
	ToleranceX float64
	// InitialStep is the size of the initial simplex along each axis.
	// Zero means 0.1.
	InitialStep float64
}

func (o Options) withDefaults(dim int) Options {
	if o.MaxEvaluations == 0 {
		o.MaxEvaluations = 200 * dim
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-8
	}
	if o.ToleranceX == 0 {
		o.ToleranceX = 1e-6
	}
	if o.InitialStep == 0 {
		o.InitialStep = 0.1
	}
	return o
}

// Result reports the outcome of a minimization.
type Result struct {
	// X is the best point found.
	X []float64
	// F is the objective value at X.
	F float64
	// Evaluations is the number of objective calls consumed.
	Evaluations int
	// Converged reports whether the tolerance criterion was met before the
	// evaluation budget ran out.
	Converged bool
}

// NelderMead minimizes f starting from x0 using the standard simplex method
// with reflection, expansion, contraction and shrink steps (coefficients
// 1, 2, 0.5, 0.5). It is Workspace.NelderMead on a fresh workspace.
func NelderMead(f Objective, x0 []float64, opts Options) (*Result, error) {
	var ws Workspace
	res, err := ws.NelderMead(f, x0, opts)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// Workspace holds the vertex storage of a Nelder–Mead run so that a caller
// minimizing many objectives in a row (the ARIMA grid search fits one per
// order) pays for the simplex once. The zero value is ready to use and grows
// on demand; a Workspace must not be shared between concurrent runs.
type Workspace struct {
	buf     []float64   // dim+4 vertices of dim coordinates each
	simplex [][]float64 // dim+1 vertices, reordered by swapping headers
	fvals   []float64
}

// NewWorkspace returns a workspace presized for problems of up to maxDim
// dimensions.
func NewWorkspace(maxDim int) *Workspace {
	ws := &Workspace{}
	ws.reserve(maxDim)
	return ws
}

func (ws *Workspace) reserve(dim int) {
	if cap(ws.buf) < (dim+4)*dim {
		ws.buf = make([]float64, (dim+4)*dim)
	}
	if cap(ws.simplex) < dim+1 {
		ws.simplex = make([][]float64, dim+1)
		ws.fvals = make([]float64, dim+1)
	}
}

// NelderMead is the package-level NelderMead running in the workspace's
// storage: apart from growing the workspace it allocates nothing, however
// many evaluations it takes. Result.X aliases the workspace and is
// overwritten by the next run.
//
// The run is a pure function of (f, x0, opts): vertices are combined with
// the same a·x + b·y arithmetic and evaluated in the same order whatever
// the workspace held before, so results do not depend on its history.
func (ws *Workspace) NelderMead(f Objective, x0 []float64, opts Options) (Result, error) {
	if len(x0) == 0 {
		return Result{}, fmt.Errorf("optimize: empty start point: %w", ErrBadInput)
	}
	if f == nil {
		return Result{}, fmt.Errorf("optimize: nil objective: %w", ErrBadInput)
	}
	dim := len(x0)
	opts = opts.withDefaults(dim)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	ws.reserve(dim)
	vertex := func(i int) []float64 { return ws.buf[i*dim : (i+1)*dim : (i+1)*dim] }
	simplex, fvals := ws.simplex[:dim+1], ws.fvals[:dim+1]
	for i := range simplex {
		simplex[i] = vertex(i)
	}
	// Three spare vertices: the centroid, the reflected point and the
	// expanded-or-contracted point. An accepted point is swapped into the
	// simplex and the worst vertex it displaces becomes the spare.
	cent, refl, trial := vertex(dim+1), vertex(dim+2), vertex(dim+3)

	// Build initial simplex: x0 plus a step along each axis.
	copy(simplex[0], x0)
	fvals[0] = eval(simplex[0])
	for i := 0; i < dim; i++ {
		p := simplex[i+1]
		copy(p, x0)
		step := opts.InitialStep
		if p[i] != 0 {
			step = opts.InitialStep * math.Max(math.Abs(p[i]), 1)
		}
		p[i] += step
		fvals[i+1] = eval(p)
	}

	const (
		alpha = 1.0 // reflection
		beta  = 2.0 // expansion
		gamma = 0.5 // contraction
		delta = 0.5 // shrink
	)

	converged := false
	for evals < opts.MaxEvaluations {
		sortSimplex(simplex, fvals)
		if math.IsInf(fvals[0], 1) {
			break // entire simplex infeasible: no progress possible
		}
		if spread(fvals) < opts.Tolerance && diameter(simplex) < opts.ToleranceX {
			converged = true
			break
		}
		// Centroid of all but the worst vertex.
		for j := range cent {
			cent[j] = 0
		}
		for _, v := range simplex[:dim] {
			for j := range cent {
				cent[j] += v[j]
			}
		}
		for j := range cent {
			cent[j] /= float64(dim)
		}
		worst := simplex[dim]

		combine(refl, cent, worst, 1+alpha, -alpha)
		fRefl := eval(refl)
		switch {
		case fRefl < fvals[0]:
			// Try expanding further in the same direction.
			combine(trial, cent, worst, 1+alpha*beta, -alpha*beta)
			if fExp := eval(trial); fExp < fRefl {
				simplex[dim], trial, fvals[dim] = trial, worst, fExp
			} else {
				simplex[dim], refl, fvals[dim] = refl, worst, fRefl
			}
		case fRefl < fvals[dim-1]:
			simplex[dim], refl, fvals[dim] = refl, worst, fRefl
		default:
			// Contract toward the better of worst/reflected.
			if fRefl < fvals[dim] {
				combine(trial, cent, refl, 1-gamma, gamma)
			} else {
				combine(trial, cent, worst, 1-gamma, gamma)
			}
			fContr := eval(trial)
			if fContr < math.Min(fRefl, fvals[dim]) {
				simplex[dim], trial, fvals[dim] = trial, worst, fContr
			} else {
				// Shrink everything toward the best vertex.
				for i := 1; i <= dim; i++ {
					combine(simplex[i], simplex[0], simplex[i], 1-delta, delta)
					fvals[i] = eval(simplex[i])
				}
			}
		}
	}
	sortSimplex(simplex, fvals)
	return Result{
		X:           simplex[0],
		F:           fvals[0],
		Evaluations: evals,
		Converged:   converged,
	}, nil
}

// combine sets dst to a·x + b·y elementwise; dst may alias x or y.
func combine(dst, x, y []float64, a, b float64) {
	for i := range dst {
		dst[i] = a*x[i] + b*y[i]
	}
}

func sortSimplex(simplex [][]float64, fvals []float64) {
	// Insertion sort: the simplex is nearly sorted between iterations.
	for i := 1; i < len(fvals); i++ {
		v, fv := simplex[i], fvals[i]
		j := i - 1
		for j >= 0 && fvals[j] > fv {
			simplex[j+1], fvals[j+1] = simplex[j], fvals[j]
			j--
		}
		simplex[j+1], fvals[j+1] = v, fv
	}
}

func spread(fvals []float64) float64 {
	lo, hi := fvals[0], fvals[0]
	for _, v := range fvals[1:] {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if math.IsInf(hi, 1) && math.IsInf(lo, 1) {
		return 0 // entire simplex infeasible: stop
	}
	return hi - lo
}

// diameter is the largest L∞ distance from the best vertex to any other.
func diameter(simplex [][]float64) float64 {
	var d float64
	best := simplex[0]
	for _, v := range simplex[1:] {
		for j := range v {
			d = math.Max(d, math.Abs(v[j]-best[j]))
		}
	}
	return d
}
