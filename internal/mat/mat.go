// Package mat provides the small dense linear-algebra substrate used by the
// Gaussian monitor-selection baselines and the neural-network package.
//
// It intentionally implements only what the repository needs: dense
// row-major matrices, products, transposes, Cholesky factorization of
// symmetric positive-definite matrices, triangular solves, and inversion via
// Cholesky. All operations are deterministic and allocate their results
// unless a destination is provided.
package mat

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrNotSPD is returned when a Cholesky factorization is requested for a
// matrix that is not symmetric positive definite.
var ErrNotSPD = errors.New("mat: matrix is not symmetric positive definite")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("mat: incompatible matrix shapes")

// Dense is a dense row-major matrix.
type Dense struct {
	rows, cols int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %d×%d", rows, cols))
	}
	return &Dense{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.checkIndex(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.checkIndex(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Dense) checkIndex(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("mat: index (%d,%d) out of bounds for %d×%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns a·b.
func Mul(a, b *Dense) (*Dense, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("mat: mul %d×%d by %d×%d: %w", a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	out := New(a.rows, b.cols)
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.cols : (i+1)*a.cols]
		orow := out.data[i*out.cols : (i+1)*out.cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
	return out, nil
}

// MulVec returns a·x for a column vector x.
func MulVec(a *Dense, x []float64) ([]float64, error) {
	if a.cols != len(x) {
		return nil, fmt.Errorf("mat: mulvec %d×%d by vec %d: %w", a.rows, a.cols, len(x), ErrShape)
	}
	out := make([]float64, a.rows)
	for i := 0; i < a.rows; i++ {
		row := a.data[i*a.cols : (i+1)*a.cols]
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Sub returns a−b.
func Sub(a, b *Dense) (*Dense, error) {
	if a.rows != b.rows || a.cols != b.cols {
		return nil, fmt.Errorf("mat: sub %d×%d from %d×%d: %w", b.rows, b.cols, a.rows, a.cols, ErrShape)
	}
	out := a.Clone()
	for i := range out.data {
		out.data[i] -= b.data[i]
	}
	return out, nil
}

// Submatrix returns the matrix formed by the given row and column index sets,
// in order. Indices may repeat.
func Submatrix(a *Dense, rows, cols []int) *Dense {
	out := New(len(rows), len(cols))
	for i, r := range rows {
		for j, c := range cols {
			out.data[i*out.cols+j] = a.At(r, c)
		}
	}
	return out
}

// Cholesky computes the lower-triangular factor L with a = L·Lᵀ. The input
// must be symmetric positive definite; a small jitter may be added by the
// caller beforehand (see RegularizeSPD) for near-singular matrices.
func Cholesky(a *Dense) (*Dense, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("mat: cholesky of %d×%d: %w", a.rows, a.cols, ErrShape)
	}
	n := a.rows
	l := New(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.data[j*n+k]
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("mat: leading minor %d non-positive (%.3g): %w", j+1, d, ErrNotSPD)
		}
		d = math.Sqrt(d)
		l.data[j*n+j] = d
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.data[i*n+k] * l.data[j*n+k]
			}
			l.data[i*n+j] = s / d
		}
	}
	return l, nil
}

// SolveCholesky solves a·x = b given the lower Cholesky factor L of a, for a
// single right-hand side b. It performs forward then backward substitution.
func SolveCholesky(l *Dense, b []float64) ([]float64, error) {
	n := l.rows
	if l.cols != n || len(b) != n {
		return nil, fmt.Errorf("mat: solve with %d×%d factor and rhs %d: %w", l.rows, l.cols, len(b), ErrShape)
	}
	// Forward: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.data[i*n+k] * y[k]
		}
		y[i] = s / l.data[i*n+i]
	}
	// Backward: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.data[k*n+i] * x[k]
		}
		x[i] = s / l.data[i*n+i]
	}
	return x, nil
}

// InvertSPD inverts a symmetric positive-definite matrix via Cholesky.
func InvertSPD(a *Dense) (*Dense, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.rows
	inv := New(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		col, err := SolveCholesky(l, e)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.data[i*n+j] = col[i]
		}
	}
	return inv, nil
}

// RegularizeSPD returns a copy of a with jitter added to the diagonal, which
// makes covariance matrices estimated from few samples factorizable.
func RegularizeSPD(a *Dense, jitter float64) *Dense {
	out := a.Clone()
	n := min(a.rows, a.cols)
	for i := 0; i < n; i++ {
		out.data[i*out.cols+i] += jitter
	}
	return out
}

// String renders the matrix for debugging.
func (m *Dense) String() string {
	var sb strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%9.4f", m.At(i, j))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
