package mat

import (
	"errors"
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	t.Parallel()
	m := New(2, 3)
	if m.rows != 2 || m.cols != 3 {
		t.Fatalf("got %d×%d, want 2×3", m.rows, m.cols)
	}
	m.Set(1, 2, 4.5)
	if got := m.At(1, 2); got != 4.5 {
		t.Fatalf("At(1,2) = %v, want 4.5", got)
	}
	if got := m.At(0, 0); got != 0 {
		t.Fatalf("zero value not zero: %v", got)
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds access")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestMul(t *testing.T) {
	t.Parallel()
	a := dense(2, 3, 1, 2, 3, 4, 5, 6)
	b := dense(3, 2, 7, 8, 9, 10, 11, 12)
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := dense(2, 2, 58, 64, 139, 154)
	if maxAbsDiff(got, want) > 1e-12 {
		t.Fatalf("Mul result:\n%vwant:\n%v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	t.Parallel()
	a := New(2, 3)
	b := New(2, 3)
	if _, err := Mul(a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestMulIdentityProperty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(8)
		a := randomDense(rng, n, n)
		got, err := Mul(a, identity(n))
		if err != nil {
			t.Fatal(err)
		}
		if maxAbsDiff(got, a) > 1e-12 {
			t.Fatalf("A·I != A for n=%d", n)
		}
	}
}

func TestMulVec(t *testing.T) {
	t.Parallel()
	a := dense(2, 3, 1, 2, 3, 4, 5, 6)
	got, err := MulVec(a, []float64{1, 0, -1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != -2 || got[1] != -2 {
		t.Fatalf("MulVec = %v, want [-2 -2]", got)
	}
	if _, err := MulVec(a, []float64{1}); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape, got %v", err)
	}
}

func TestSub(t *testing.T) {
	t.Parallel()
	a := dense(2, 2, 1, 2, 3, 4)
	b := dense(2, 2, 5, 6, 7, 8)
	sum := dense(2, 2, 6, 8, 10, 12)
	diff, err := Sub(sum, b)
	if err != nil {
		t.Fatal(err)
	}
	if maxAbsDiff(diff, a) > 1e-12 {
		t.Fatal("(a+b)-b != a")
	}
	// Ensure inputs were not mutated.
	if sum.At(0, 0) != 6 || b.At(0, 0) != 5 {
		t.Fatal("Sub mutated its inputs")
	}
}

func TestTranspose(t *testing.T) {
	t.Parallel()
	a := dense(2, 3, 1, 2, 3, 4, 5, 6)
	at := a.T()
	if at.rows != 3 || at.cols != 2 {
		t.Fatalf("T shape %d×%d, want 3×2", at.rows, at.cols)
	}
	if at.At(2, 1) != 6 || at.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", at)
	}
	if maxAbsDiff(at.T(), a) > 0 {
		t.Fatal("double transpose not identity")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.IntN(10)
		a := randomSPD(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("cholesky n=%d: %v", n, err)
		}
		lt := l.T()
		recon, err := Mul(l, lt)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(recon, a); d > 1e-8 {
			t.Fatalf("L·Lᵀ differs from A by %g (n=%d)", d, n)
		}
	}
}

func TestCholeskyRejectsNonSPD(t *testing.T) {
	t.Parallel()
	a := dense(2, 2, 1, 2, 2, 1) // eigenvalues 3, −1
	if _, err := Cholesky(a); !errors.Is(err, ErrNotSPD) {
		t.Fatalf("want ErrNotSPD, got %v", err)
	}
	b := New(2, 3)
	if _, err := Cholesky(b); !errors.Is(err, ErrShape) {
		t.Fatalf("want ErrShape for non-square, got %v", err)
	}
}

func TestSolveCholesky(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(3, 9))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.IntN(10)
		a := randomSPD(rng, n)
		want := make([]float64, n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b, err := MulVec(a, want)
		if err != nil {
			t.Fatal(err)
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveCholesky(l, b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-6 {
				t.Fatalf("solve mismatch at %d: got %v want %v", i, got[i], want[i])
			}
		}
	}
}

func TestInvertSPD(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(11, 4))
	for trial := 0; trial < 15; trial++ {
		n := 1 + rng.IntN(8)
		a := randomSPD(rng, n)
		inv, err := InvertSPD(a)
		if err != nil {
			t.Fatal(err)
		}
		prod, err := Mul(a, inv)
		if err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(prod, identity(n)); d > 1e-6 {
			t.Fatalf("A·A⁻¹ differs from I by %g (n=%d)", d, n)
		}
	}
}

func TestRegularizeSPD(t *testing.T) {
	t.Parallel()
	// Singular matrix becomes factorizable after jitter.
	a := dense(2, 2, 1, 1, 1, 1)
	if _, err := Cholesky(a); err == nil {
		t.Fatal("expected failure on singular matrix")
	}
	if _, err := Cholesky(RegularizeSPD(a, 1e-6)); err != nil {
		t.Fatalf("regularized cholesky failed: %v", err)
	}
	if a.At(0, 0) != 1 {
		t.Fatal("RegularizeSPD mutated input")
	}
}

func TestSubmatrix(t *testing.T) {
	t.Parallel()
	a := dense(3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9)
	s := Submatrix(a, []int{0, 2}, []int{1})
	if s.rows != 2 || s.cols != 1 || s.At(0, 0) != 2 || s.At(1, 0) != 8 {
		t.Fatalf("Submatrix wrong: %v", s)
	}
}

func TestCloneIndependence(t *testing.T) {
	t.Parallel()
	a := New(1, 1)
	b := a.Clone()
	b.Set(0, 0, 5)
	if a.At(0, 0) != 0 {
		t.Fatal("Clone aliases original")
	}
}

// Property: matrix multiplication is associative (A·B)·C == A·(B·C) within
// floating-point tolerance.
func TestMulAssociativityProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, seed^0x9e37))
		n := 1 + int(seed%5)
		a := randomDense(r, n, n)
		b := randomDense(r, n, n)
		c := randomDense(r, n, n)
		ab, _ := Mul(a, b)
		abc1, _ := Mul(ab, c)
		bc, _ := Mul(b, c)
		abc2, _ := Mul(a, bc)
		return maxAbsDiff(abc1, abc2) < 1e-8
	}
	cfg := &quick.Config{MaxCount: 30, Rand: mrand.New(mrand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// maxAbsDiff returns the largest absolute elementwise difference between a
// and b, which must have the same shape.
func maxAbsDiff(a, b *Dense) float64 {
	if a.rows != b.rows || a.cols != b.cols {
		panic("mat: maxAbsDiff shape mismatch")
	}
	var m float64
	for i := range a.data {
		if d := math.Abs(a.data[i] - b.data[i]); d > m {
			m = d
		}
	}
	return m
}

// dense builds a rows×cols matrix from row-major values.
func dense(rows, cols int, vals ...float64) *Dense {
	m := New(rows, cols)
	copy(m.data, vals)
	return m
}

func identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := New(r, c)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

// randomSPD builds A = GᵀG + n·I which is symmetric positive definite.
func randomSPD(rng *rand.Rand, n int) *Dense {
	g := randomDense(rng, n, n)
	gt := g.T()
	a, err := Mul(gt, g)
	if err != nil {
		panic(err)
	}
	for i := 0; i < n; i++ {
		a.Set(i, i, a.At(i, i)+float64(n))
	}
	return a
}
