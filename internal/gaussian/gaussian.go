// Package gaussian implements the Gaussian-model baseline of Silvestri et
// al. [3] that §VI-E compares against: a multivariate Gaussian is trained on
// a full-observation phase, a subset of K monitor nodes is selected, and
// during testing the measurements of non-monitors are inferred from the
// monitors through conditional-Gaussian regression
//
//	ẑ_U = μ_U + Σ_UO · Σ_OO⁻¹ · (z_O − μ_O).
//
// Three monitor-selection strategies are provided, mirroring the baseline's
// variants and their cost ordering (Table IV): TopW (one-shot scoring),
// BatchSelect (greedy diagonal variance reduction), and TopWUpdate (greedy
// with full conditional-covariance recomputation, by far the most
// expensive).
package gaussian

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"orcf/internal/mat"
)

// ErrBadInput reports invalid training data or parameters.
var ErrBadInput = errors.New("gaussian: invalid input")

// Strategy selects a monitor-selection algorithm.
type Strategy int

const (
	// TopW ranks nodes once by total absolute covariance to all others and
	// keeps the top K.
	TopW Strategy = iota + 1
	// TopWUpdate greedily selects one node at a time, recomputing the
	// residual (conditional) covariance of the remaining nodes after each
	// selection. Most accurate and most expensive of the three.
	TopWUpdate
	// BatchSelect greedily selects by marginal variance reduction using
	// diagonal-only updates, a middle ground in cost.
	BatchSelect
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case TopW:
		return "top-w"
	case TopWUpdate:
		return "top-w-update"
	case BatchSelect:
		return "batch-selection"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Model is a fitted multivariate Gaussian over N node measurements.
type Model struct {
	n    int
	mean []float64
	cov  *mat.Dense
}

// Train estimates the mean vector and sample covariance from the training
// phase. samples[t][i] is node i's (scalar) measurement at training step t;
// at least two samples and one node are required.
func Train(samples [][]float64) (*Model, error) {
	if len(samples) < 2 {
		return nil, fmt.Errorf("gaussian: need ≥ 2 samples, got %d: %w", len(samples), ErrBadInput)
	}
	n := len(samples[0])
	if n == 0 {
		return nil, fmt.Errorf("gaussian: zero nodes: %w", ErrBadInput)
	}
	for t, s := range samples {
		if len(s) != n {
			return nil, fmt.Errorf("gaussian: sample %d has %d nodes, want %d: %w", t, len(s), n, ErrBadInput)
		}
	}
	mean := make([]float64, n)
	for _, s := range samples {
		for i, v := range s {
			mean[i] += v
		}
	}
	for i := range mean {
		mean[i] /= float64(len(samples))
	}
	cov := mat.New(n, n)
	for _, s := range samples {
		for i := 0; i < n; i++ {
			di := s[i] - mean[i]
			for j := i; j < n; j++ {
				cov.Set(i, j, cov.At(i, j)+di*(s[j]-mean[j]))
			}
		}
	}
	denom := float64(len(samples) - 1)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cov.At(i, j) / denom
			cov.Set(i, j, v)
			cov.Set(j, i, v)
		}
	}
	return &Model{n: n, mean: mean, cov: cov}, nil
}

// Mean returns a copy of the estimated mean vector.
func (m *Model) Mean() []float64 { return append([]float64(nil), m.mean...) }

// SelectMonitors picks k monitor nodes with the given strategy.
func (m *Model) SelectMonitors(k int, strat Strategy) ([]int, error) {
	if k < 1 || k > m.n {
		return nil, fmt.Errorf("gaussian: k=%d with %d nodes: %w", k, m.n, ErrBadInput)
	}
	switch strat {
	case TopW:
		return m.selectTopW(k), nil
	case TopWUpdate:
		return m.selectTopWUpdate(k)
	case BatchSelect:
		return m.selectBatch(k), nil
	default:
		return nil, fmt.Errorf("gaussian: unknown strategy %d: %w", int(strat), ErrBadInput)
	}
}

// selectTopW scores each node once by Σ_j |cov(i,j)| and keeps the top k.
func (m *Model) selectTopW(k int) []int {
	type scored struct {
		idx int
		w   float64
	}
	ws := make([]scored, m.n)
	for i := 0; i < m.n; i++ {
		var s float64
		for j := 0; j < m.n; j++ {
			s += math.Abs(m.cov.At(i, j))
		}
		ws[i] = scored{idx: i, w: s}
	}
	sort.Slice(ws, func(a, b int) bool {
		if ws[a].w != ws[b].w {
			return ws[a].w > ws[b].w
		}
		return ws[a].idx < ws[b].idx
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ws[i].idx
	}
	sort.Ints(out)
	return out
}

// selectTopWUpdate greedily picks the highest-weight node under the residual
// covariance, recomputing the full conditional covariance of the remaining
// nodes from scratch after each pick:
//
//	Σ_resid = Σ − Σ_{:S} Σ_{SS}⁻¹ Σ_{S:}
//
// where S is the selected set so far. This from-scratch recomputation (an
// O(K·N²·K + K⁴) procedure) mirrors the cost profile the paper reports for
// Top-W-Update in Table IV — by far the slowest of the three strategies.
func (m *Model) selectTopWUpdate(k int) ([]int, error) {
	selected := make([]int, 0, k)
	taken := make([]bool, m.n)
	cov := m.cov
	for len(selected) < k {
		best, bestW := -1, -1.0
		for i := 0; i < m.n; i++ {
			if taken[i] {
				continue
			}
			var s float64
			for j := 0; j < m.n; j++ {
				if !taken[j] {
					s += math.Abs(cov.At(i, j))
				}
			}
			if s > bestW {
				best, bestW = i, s
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("gaussian: selection exhausted: %w", ErrBadInput)
		}
		selected = append(selected, best)
		taken[best] = true
		if len(selected) == k {
			break // final residual not needed
		}
		resid, err := m.residualCovariance(selected)
		if err != nil {
			return nil, err
		}
		cov = resid
	}
	sort.Ints(selected)
	return selected, nil
}

// residualCovariance computes Σ − Σ_{:S} Σ_{SS}⁻¹ Σ_{S:} for the selected
// index set S (the covariance of all nodes conditioned on observing S).
func (m *Model) residualCovariance(selected []int) (*mat.Dense, error) {
	all := make([]int, m.n)
	for i := range all {
		all[i] = i
	}
	sigmaSS := mat.Submatrix(m.cov, selected, selected)
	sigmaSS = mat.RegularizeSPD(sigmaSS, 1e-9)
	inv, err := mat.InvertSPD(sigmaSS)
	if err != nil {
		return nil, fmt.Errorf("gaussian: residual covariance: %w", err)
	}
	sigmaAS := mat.Submatrix(m.cov, all, selected)
	tmp, err := mat.Mul(sigmaAS, inv)
	if err != nil {
		return nil, fmt.Errorf("gaussian: residual covariance: %w", err)
	}
	corr, err := mat.Mul(tmp, sigmaAS.T())
	if err != nil {
		return nil, fmt.Errorf("gaussian: residual covariance: %w", err)
	}
	return mat.Sub(m.cov, corr)
}

// selectBatch greedily maximizes diagonal variance reduction: each pick is
// the node whose conditioning removes the most summed variance from the
// remaining diagonal, tracked with diagonal-only updates. Each target's
// contribution is capped by its *remaining* variance, so covering the same
// node group twice yields almost no gain.
func (m *Model) selectBatch(k int) []int {
	diag := make([]float64, m.n)
	for i := range diag {
		diag[i] = m.cov.At(i, i)
	}
	taken := make([]bool, m.n)
	selected := make([]int, 0, k)
	for len(selected) < k {
		best, bestGain := -1, math.Inf(-1)
		for i := 0; i < m.n; i++ {
			if taken[i] || diag[i] <= 1e-12 {
				continue
			}
			var g float64
			for j := 0; j < m.n; j++ {
				if taken[j] || j == i {
					continue
				}
				c := m.cov.At(i, j)
				g += math.Min(c*c/diag[i], diag[j])
			}
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			// Degenerate covariance: fall back to unpicked lowest indices.
			for i := 0; i < m.n && len(selected) < k; i++ {
				if !taken[i] {
					taken[i] = true
					selected = append(selected, i)
				}
			}
			break
		}
		selected = append(selected, best)
		taken[best] = true
		// Diagonal-only residual update.
		pivot := diag[best]
		if pivot < 1e-12 {
			pivot = 1e-12
		}
		for j := 0; j < m.n; j++ {
			if taken[j] {
				continue
			}
			c := m.cov.At(best, j)
			diag[j] -= c * c / pivot
			if diag[j] < 0 {
				diag[j] = 0
			}
		}
	}
	sort.Ints(selected)
	return selected
}

// Inferrer reconstructs the full measurement vector from monitor
// observations via conditional-Gaussian regression. It precomputes the
// regression matrix once per monitor set.
type Inferrer struct {
	n        int
	monitors []int
	others   []int
	mean     []float64
	reg      *mat.Dense // |U|×|O| regression coefficients Σ_UO Σ_OO⁻¹
}

// NewInferrer prepares inference for the given monitor set.
func (m *Model) NewInferrer(monitors []int) (*Inferrer, error) {
	if len(monitors) == 0 {
		return nil, fmt.Errorf("gaussian: no monitors: %w", ErrBadInput)
	}
	isMon := make([]bool, m.n)
	for _, idx := range monitors {
		if idx < 0 || idx >= m.n {
			return nil, fmt.Errorf("gaussian: monitor %d out of range: %w", idx, ErrBadInput)
		}
		if isMon[idx] {
			return nil, fmt.Errorf("gaussian: duplicate monitor %d: %w", idx, ErrBadInput)
		}
		isMon[idx] = true
	}
	var others []int
	for i := 0; i < m.n; i++ {
		if !isMon[i] {
			others = append(others, i)
		}
	}
	inf := &Inferrer{
		n:        m.n,
		monitors: append([]int(nil), monitors...),
		others:   others,
		mean:     m.Mean(),
	}
	if len(others) == 0 {
		return inf, nil // everything observed; nothing to infer
	}
	sigmaOO := mat.Submatrix(m.cov, monitors, monitors)
	sigmaUO := mat.Submatrix(m.cov, others, monitors)
	// Invert Σ_OO the way the published baseline does: directly, with only
	// the minimal diagonal jitter needed for the factorization to succeed.
	// Real cluster traces contain idle machines with constant measurements,
	// so Σ_OO is often singular; the resulting huge regression coefficients
	// reproduce the estimate blowups the paper reports in Fig. 12. Callers
	// wanting a *robust* estimator should regularize the training data, not
	// this solver.
	var inv *mat.Dense
	var err error
	for _, jitter := range []float64{0, 1e-12, 1e-10, 1e-8, 1e-6} {
		inv, err = mat.InvertSPD(mat.RegularizeSPD(sigmaOO, jitter))
		if err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("gaussian: monitor covariance not invertible: %w", err)
	}
	reg, err := mat.Mul(sigmaUO, inv)
	if err != nil {
		return nil, fmt.Errorf("gaussian: regression matrix: %w", err)
	}
	inf.reg = reg
	return inf, nil
}

// Infer reconstructs the full N-vector: monitors keep their observed values,
// others get the conditional mean. observed[j] corresponds to monitors[j].
func (inf *Inferrer) Infer(observed []float64) ([]float64, error) {
	if len(observed) != len(inf.monitors) {
		return nil, fmt.Errorf("gaussian: %d observations for %d monitors: %w",
			len(observed), len(inf.monitors), ErrBadInput)
	}
	out := make([]float64, inf.n)
	dev := make([]float64, len(inf.monitors))
	for j, idx := range inf.monitors {
		out[idx] = observed[j]
		dev[j] = observed[j] - inf.mean[idx]
	}
	if len(inf.others) == 0 {
		return out, nil
	}
	adj, err := mat.MulVec(inf.reg, dev)
	if err != nil {
		return nil, fmt.Errorf("gaussian: inference: %w", err)
	}
	for u, idx := range inf.others {
		out[idx] = inf.mean[idx] + adj[u]
	}
	return out, nil
}
