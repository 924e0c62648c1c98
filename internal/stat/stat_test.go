package stat

import (
	"math"
	mrand "math/rand"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Abs(a-b) <= tol
}

func TestMean(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, math.NaN()},
		{"single", []float64{3}, 3},
		{"symmetric", []float64{-1, 1}, 0},
		{"typical", []float64{1, 2, 3, 4}, 2.5},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if got := Mean(tt.in); !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", tt.in, got, tt.want)
			}
		})
	}
}

func TestSampleVariance(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 2, 3}
	if got := SampleVariance(xs); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("SampleVariance = %v, want 1", got)
	}
	if !math.IsNaN(SampleVariance([]float64{1})) {
		t.Fatal("SampleVariance of single element should be NaN")
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{2, 4, 6, 8, 10} // perfectly correlated
	if got := Correlation(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("Correlation = %v, want 1", got)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if got := Correlation(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Fatalf("Correlation = %v, want -1", got)
	}
	constant := []float64{3, 3, 3, 3, 3}
	if got := Correlation(xs, constant); !math.IsNaN(got) {
		t.Fatalf("Correlation with constant = %v, want NaN", got)
	}
	if got := Covariance(xs, ys[:3]); !math.IsNaN(got) {
		t.Fatalf("Covariance length mismatch = %v, want NaN", got)
	}
}

func TestPairwiseCorrelations(t *testing.T) {
	t.Parallel()
	series := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{5, 5, 5, 5}, // constant: pairs with it are dropped
	}
	got := PairwiseCorrelations(series)
	if len(got) != 1 {
		t.Fatalf("got %d correlations, want 1 (constant rows dropped)", len(got))
	}
	if !almostEqual(got[0], 1, 1e-12) {
		t.Fatalf("correlation = %v, want 1", got[0])
	}
}

func TestECDF(t *testing.T) {
	t.Parallel()
	e := NewECDF([]float64{1, 2, 2, 3})
	tests := []struct {
		x, want float64
	}{
		{0, 0},
		{1, 0.25},
		{2, 0.75},
		{2.5, 0.75},
		{3, 1},
		{10, 1},
	}
	for _, tt := range tests {
		if got := e.At(tt.x); !almostEqual(got, tt.want, 1e-12) {
			t.Errorf("F(%v) = %v, want %v", tt.x, got, tt.want)
		}
	}
	if len(e.sorted) != 4 {
		t.Fatalf("%d samples, want 4", len(e.sorted))
	}
	if got := NewECDF(nil).At(1); !math.IsNaN(got) {
		t.Fatalf("empty ECDF At = %v, want NaN", got)
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	t.Parallel()
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 99))
		n := 1 + int(seed%50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		e := NewECDF(xs)
		prev := -1.0
		for x := -3.0; x <= 3.0; x += 0.25 {
			v := e.At(x)
			if v < prev || v < 0 || v > 1 {
				return false
			}
			prev = v
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: mrand.New(mrand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestAICc(t *testing.T) {
	t.Parallel()
	// More parameters with the same fit must be penalized.
	low := AICc(100, 2, 10)
	high := AICc(100, 10, 10)
	if low >= high {
		t.Fatalf("AICc should penalize parameters: k=2 %v vs k=10 %v", low, high)
	}
	// Saturated model: correction denominator non-positive → +Inf.
	if got := AICc(5, 5, 1); !math.IsInf(got, 1) {
		t.Fatalf("AICc saturated = %v, want +Inf", got)
	}
	if got := AICc(0, 1, 1); !math.IsInf(got, 1) {
		t.Fatalf("AICc n=0 = %v, want +Inf", got)
	}
	// A perfect fit beats every imperfect one, unless it is saturated.
	if got := AICc(100, 2, 0); !math.IsInf(got, -1) {
		t.Fatalf("AICc rss=0 = %v, want -Inf", got)
	}
	if got := AICc(5, 5, 0); !math.IsInf(got, 1) {
		t.Fatalf("AICc saturated rss=0 = %v, want +Inf", got)
	}
	if got := AICc(100, 2, -1); !math.IsInf(got, 1) {
		t.Fatalf("AICc rss<0 = %v, want +Inf", got)
	}
}

func TestDiff(t *testing.T) {
	t.Parallel()
	xs := []float64{1, 3, 6, 10}
	got := Diff(xs, 1)
	want := []float64{2, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Diff length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Diff[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if Diff(xs, 4) != nil {
		t.Fatal("Diff beyond length should be nil")
	}
	if Diff(xs, 0) != nil {
		t.Fatal("Diff lag 0 should be nil")
	}
}
