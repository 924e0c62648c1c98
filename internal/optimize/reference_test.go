package optimize

import (
	"fmt"
	"math"
)

// The reference oracle: the allocating Nelder–Mead this package shipped
// before the in-place Workspace rewrite, kept verbatim (identifiers prefixed
// ref). TestNelderMeadMatchesReference requires the production minimizer to
// evaluate the same points in the same order and return the same bits.

// refWithDefaults is Options.withDefaults as of the reference: zeros become
// defaults and every other value passes through unchecked.
func refWithDefaults(o Options, dim int) Options {
	if o.MaxEvaluations == 0 {
		o.MaxEvaluations = 200 * dim
	}
	if o.Tolerance == 0 {
		o.Tolerance = 1e-8
	}
	if o.InitialStep == 0 {
		o.InitialStep = 0.1
	}
	return o
}

// refNelderMead minimizes f starting from x0 using the standard simplex method
// with reflection, expansion, contraction and shrink steps (coefficients
// 1, 2, 0.5, 0.5).
func refNelderMead(f func([]float64) float64, x0 []float64, opts Options) (*Result, error) {
	if len(x0) == 0 {
		return nil, fmt.Errorf("optimize: empty start point: %w", ErrBadInput)
	}
	if f == nil {
		return nil, fmt.Errorf("optimize: nil objective: %w", ErrBadInput)
	}
	dim := len(x0)
	opts = refWithDefaults(opts, dim)

	evals := 0
	eval := func(x []float64) float64 {
		evals++
		v := f(x)
		if math.IsNaN(v) {
			return math.Inf(1)
		}
		return v
	}

	// Build initial simplex: x0 plus a step along each axis.
	simplex := make([][]float64, dim+1)
	fvals := make([]float64, dim+1)
	simplex[0] = append([]float64(nil), x0...)
	fvals[0] = eval(simplex[0])
	for i := 0; i < dim; i++ {
		p := append([]float64(nil), x0...)
		step := opts.InitialStep
		if p[i] != 0 {
			step = opts.InitialStep * math.Max(math.Abs(p[i]), 1)
		}
		p[i] += step
		simplex[i+1] = p
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
		refSortSimplex(simplex, fvals)
		if math.IsInf(fvals[0], 1) {
			break // entire simplex infeasible: no progress possible
		}
		if refSpread(fvals) < opts.Tolerance && refDiameter(simplex) < toleranceX {
			converged = true
			break
		}
		// Centroid of all but the worst vertex.
		cent := make([]float64, dim)
		for _, v := range simplex[:dim] {
			for j := range cent {
				cent[j] += v[j]
			}
		}
		for j := range cent {
			cent[j] /= float64(dim)
		}
		worst := simplex[dim]

		refl := refCombine(cent, worst, 1+alpha, -alpha)
		fRefl := eval(refl)
		switch {
		case fRefl < fvals[0]:
			// Try expanding further in the same direction.
			exp := refCombine(cent, worst, 1+alpha*beta, -alpha*beta)
			if fExp := eval(exp); fExp < fRefl {
				simplex[dim], fvals[dim] = exp, fExp
			} else {
				simplex[dim], fvals[dim] = refl, fRefl
			}
		case fRefl < fvals[dim-1]:
			simplex[dim], fvals[dim] = refl, fRefl
		default:
			// Contract toward the better of worst/reflected.
			var contr []float64
			if fRefl < fvals[dim] {
				contr = refCombine(cent, refl, 1-gamma, gamma)
			} else {
				contr = refCombine(cent, worst, 1-gamma, gamma)
			}
			fContr := eval(contr)
			if fContr < math.Min(fRefl, fvals[dim]) {
				simplex[dim], fvals[dim] = contr, fContr
			} else {
				// Shrink everything toward the best vertex.
				for i := 1; i <= dim; i++ {
					simplex[i] = refCombine(simplex[0], simplex[i], 1-delta, delta)
					fvals[i] = eval(simplex[i])
				}
			}
		}
	}
	refSortSimplex(simplex, fvals)
	return &Result{
		X:           append([]float64(nil), simplex[0]...),
		F:           fvals[0],
		Evaluations: evals,
		Converged:   converged,
	}, nil
}

// refCombine returns a·x + b·y elementwise.
func refCombine(x, y []float64, a, b float64) []float64 {
	out := make([]float64, len(x))
	for i := range out {
		out[i] = a*x[i] + b*y[i]
	}
	return out
}

func refSortSimplex(simplex [][]float64, fvals []float64) {
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

func refSpread(fvals []float64) float64 {
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

// refDiameter is the largest L∞ distance from the best vertex to any other.
func refDiameter(simplex [][]float64) float64 {
	var d float64
	best := simplex[0]
	for _, v := range simplex[1:] {
		for j := range v {
			d = math.Max(d, math.Abs(v[j]-best[j]))
		}
	}
	return d
}
