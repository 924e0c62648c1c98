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
//
// A run is driven from outside (Workspace.Start, then Run.Next and
// Run.Tell), so that a caller can advance several runs in lockstep and
// evaluate their points together.
package optimize

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadInput is returned for invalid starting points or options.
var ErrBadInput = errors.New("optimize: invalid input")

// toleranceX is the simplex diameter (L∞) a run must also fall below before
// it terminates on Options.Tolerance, which prevents premature convergence
// on simplexes straddling a symmetric minimum.
const toleranceX = 1e-6

// Options tunes the Nelder–Mead run. The zero value selects sensible
// defaults; a negative budget, a negative or NaN tolerance and a non-finite
// initial step are rejected with ErrBadInput.
type Options struct {
	// MaxEvaluations bounds objective calls. Zero means 200·dim.
	MaxEvaluations int
	// Tolerance terminates when the simplex function-value spread falls
	// below it and its diameter below toleranceX. Zero means 1e-8.
	Tolerance float64
	// InitialStep is the size of the initial simplex along each axis.
	// Zero means 0.1.
	InitialStep float64
}

// resolve validates the options and fills in the defaults for dim
// coordinates.
func (o Options) resolve(dim int) (Options, error) {
	switch {
	case o.MaxEvaluations < 0:
		return o, fmt.Errorf("optimize: MaxEvaluations %d < 0: %w", o.MaxEvaluations, ErrBadInput)
	case o.Tolerance < 0 || math.IsNaN(o.Tolerance):
		return o, fmt.Errorf("optimize: Tolerance %v is negative or NaN: %w", o.Tolerance, ErrBadInput)
	case math.IsNaN(o.InitialStep) || math.IsInf(o.InitialStep, 0):
		return o, fmt.Errorf("optimize: InitialStep %v is not finite: %w", o.InitialStep, ErrBadInput)
	}
	if o.MaxEvaluations == 0 {
		o.MaxEvaluations = 200 * dim
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-8
	}
	if o.InitialStep == 0 {
		o.InitialStep = 0.1
	}
	return o, nil
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

// Workspace holds the vertex storage of a Nelder–Mead run so that a caller
// minimizing many objectives in a row (the ARIMA grid search fits one per
// order) pays for the simplex once. The zero value is ready to use and grows
// on demand; a Workspace holds one run at a time and must not be shared
// between goroutines.
type Workspace struct {
	buf     []float64   // dim+4 vertices of dim coordinates each
	simplex [][]float64 // dim+1 vertices, reordered by swapping headers
	fvals   []float64
	run     Run
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

// Run is one Nelder–Mead minimization — the standard simplex method with
// reflection, expansion, contraction and shrink steps (coefficients 1, 2,
// 0.5, 0.5) — driven from outside: Next hands out the point to evaluate and
// Tell takes its objective value, until Next reports false and Result holds
// the outcome. The points, their order, the evaluation count and the result
// do not depend on who drives it or what it is interleaved with. A Run lives
// in its Workspace and is invalidated by the workspace's next Start.
type Run struct {
	opts      Options
	dim       int
	evals     int
	converged bool
	phase     phase
	i         int       // vertex evaluated in phaseInit and phaseShrink
	fRefl     float64   // objective at the reflected point
	pending   []float64 // the point Next hands out; nil once done

	simplex [][]float64
	fvals   []float64
	// Three spare vertices: the centroid, the reflected point and the
	// expanded-or-contracted point. An accepted point is swapped into the
	// simplex and the worst vertex it displaces becomes the spare.
	cent, refl, trial []float64
}

// phase is the evaluation a Run is waiting for.
type phase uint8

const (
	phaseInit     phase = iota // vertex i of the initial simplex
	phaseReflect               // the reflected point
	phaseExpand                // the expanded point
	phaseContract              // the contracted point
	phaseShrink                // vertex i after shrinking toward the best
	phaseDone
)

const (
	alpha = 1.0 // reflection
	beta  = 2.0 // expansion
	gamma = 0.5 // contraction
	delta = 0.5 // shrink
)

// Start begins a run from x0 with the initial simplex x0 plus a step along
// each axis; x0 is copied, not retained. It allocates nothing once the
// workspace has been sized for len(x0) coordinates, however many
// evaluations the run takes; Result.X aliases the workspace and is
// overwritten by the next run.
//
// The run is a pure function of x0, opts and the values it is told: vertices
// are combined with the same a·x + b·y arithmetic and handed out in the same
// order whatever the workspace held before, so results do not depend on its
// history.
func (ws *Workspace) Start(x0 []float64, opts Options) (*Run, error) {
	if len(x0) == 0 {
		return nil, fmt.Errorf("optimize: empty start point: %w", ErrBadInput)
	}
	dim := len(x0)
	opts, err := opts.resolve(dim)
	if err != nil {
		return nil, err
	}
	ws.reserve(dim)
	vertex := func(i int) []float64 { return ws.buf[i*dim : (i+1)*dim : (i+1)*dim] }
	r := &ws.run
	*r = Run{
		opts:    opts,
		dim:     dim,
		simplex: ws.simplex[:dim+1],
		fvals:   ws.fvals[:dim+1],
		cent:    vertex(dim + 1),
		refl:    vertex(dim + 2),
		trial:   vertex(dim + 3),
	}
	for i := range r.simplex {
		p := vertex(i)
		copy(p, x0)
		if i > 0 {
			step := opts.InitialStep
			if p[i-1] != 0 {
				step = opts.InitialStep * math.Max(math.Abs(p[i-1]), 1)
			}
			p[i-1] += step
		}
		r.simplex[i] = p
	}
	r.pending = r.simplex[0]
	return r, nil
}

// Next returns the point whose objective value the run needs next, or false
// once the run is over. The point aliases the workspace: it must not be
// modified, and it is valid until the following Tell.
func (r *Run) Next() ([]float64, bool) {
	return r.pending, r.phase != phaseDone
}

// Tell reports the objective value at the point Next returned (NaN counts
// as +Inf) and advances the run to its next evaluation. Once Next has
// reported false it does nothing.
func (r *Run) Tell(f float64) {
	if r.phase == phaseDone {
		return
	}
	r.evals++
	if math.IsNaN(f) {
		f = math.Inf(1)
	}
	dim := r.dim
	switch r.phase {
	case phaseInit:
		r.fvals[r.i] = f
		if r.i++; r.i <= dim {
			r.pending = r.simplex[r.i]
			return
		}
	case phaseReflect:
		r.fRefl = f
		switch {
		case f < r.fvals[0]:
			// Try expanding further in the same direction.
			combine(r.trial, r.cent, r.simplex[dim], 1+alpha*beta, -alpha*beta)
			r.phase, r.pending = phaseExpand, r.trial
			return
		case f < r.fvals[dim-1]:
			r.accept(&r.refl, f)
		default:
			// Contract toward the better of worst/reflected.
			if f < r.fvals[dim] {
				combine(r.trial, r.cent, r.refl, 1-gamma, gamma)
			} else {
				combine(r.trial, r.cent, r.simplex[dim], 1-gamma, gamma)
			}
			r.phase, r.pending = phaseContract, r.trial
			return
		}
	case phaseExpand:
		if f < r.fRefl {
			r.accept(&r.trial, f)
		} else {
			r.accept(&r.refl, r.fRefl)
		}
	case phaseContract:
		if f < math.Min(r.fRefl, r.fvals[dim]) {
			r.accept(&r.trial, f)
		} else {
			// Shrink everything toward the best vertex.
			r.i = 0
			r.shrinkNext()
			return
		}
	case phaseShrink:
		r.fvals[r.i] = f
		if r.i < dim {
			r.shrinkNext()
			return
		}
	}
	r.iterate()
}

// accept swaps the spare vertex *spare, valued f, in for the worst vertex,
// which becomes the spare.
func (r *Run) accept(spare *[]float64, f float64) {
	r.simplex[r.dim], *spare = *spare, r.simplex[r.dim]
	r.fvals[r.dim] = f
}

// shrinkNext moves the next vertex halfway toward the best and asks for it.
func (r *Run) shrinkNext() {
	r.i++
	v := r.simplex[r.i]
	combine(v, r.simplex[0], v, 1-delta, delta)
	r.phase, r.pending = phaseShrink, v
}

// iterate is the top of a Nelder–Mead iteration: stop on the budget, on an
// infeasible simplex or on convergence; otherwise ask for the reflection of
// the worst vertex through the centroid of the others. The budget is checked
// only here, so a shrink step (dim evaluations) can overshoot it.
func (r *Run) iterate() {
	dim := r.dim
	if r.evals < r.opts.MaxEvaluations {
		sortSimplex(r.simplex, r.fvals)
		switch {
		case math.IsInf(r.fvals[0], 1):
			// Entire simplex infeasible: no progress possible.
		// The simplex is sorted and its best value is not +Inf, so its
		// function-value spread is last minus first.
		case r.fvals[dim]-r.fvals[0] < r.opts.Tolerance && diameter(r.simplex) < toleranceX:
			r.converged = true
		default:
			// Centroid of all but the worst vertex.
			cent := r.cent
			for j := range cent {
				cent[j] = 0
			}
			for _, v := range r.simplex[:dim] {
				for j := range cent {
					cent[j] += v[j]
				}
			}
			for j := range cent {
				cent[j] /= float64(dim)
			}
			combine(r.refl, cent, r.simplex[dim], 1+alpha, -alpha)
			r.phase, r.pending = phaseReflect, r.refl
			return
		}
	}
	sortSimplex(r.simplex, r.fvals)
	r.phase, r.pending = phaseDone, nil
}

// Result returns the outcome once Next has reported false. Result.X aliases
// the workspace and is overwritten by its next run.
func (r *Run) Result() Result {
	return Result{
		X:           r.simplex[0],
		F:           r.fvals[0],
		Evaluations: r.evals,
		Converged:   r.converged,
	}
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

// diameter is the largest L∞ distance from the best vertex to any other,
// NaN if any distance is NaN.
func diameter(simplex [][]float64) float64 {
	var d float64
	best := simplex[0]
	for _, v := range simplex[1:] {
		for j := range v {
			if x := math.Abs(v[j] - best[j]); x > d || x != x {
				d = x
			}
		}
	}
	return d
}
