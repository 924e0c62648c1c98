package metrics

import (
	"errors"
	"math"
	"testing"
)

func TestAccumulatorEquation4(t *testing.T) {
	t.Parallel()
	var a Accumulator
	if !math.IsNaN(a.Value()) {
		t.Fatal("empty accumulator should be NaN")
	}
	// Eq. (4): sqrt(mean of squares), NOT mean of values.
	a.Add(3)
	a.Add(4)
	want := math.Sqrt((9.0 + 16.0) / 2.0)
	if got := a.Value(); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Value = %v, want %v", got, want)
	}
	if a.n != 2 {
		t.Fatalf("%d steps counted", a.n)
	}
	var b Accumulator
	b.AddSquared(9)
	b.AddSquared(16)
	if b.Value() != a.Value() {
		t.Fatal("AddSquared disagrees with Add")
	}
}

func TestHorizonSet(t *testing.T) {
	t.Parallel()
	if _, err := NewHorizonSet(-1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("negative maxH: want ErrBadInput, got %v", err)
	}
	s, err := NewHorizonSet(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Add(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(2, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(3, 1); !errors.Is(err, ErrBadInput) {
		t.Fatalf("out-of-range h: want ErrBadInput, got %v", err)
	}
	if got := s.At(0); got != 1 {
		t.Fatalf("At(0) = %v", got)
	}
	if !math.IsNaN(s.At(1)) {
		t.Fatal("empty horizon should be NaN")
	}
	if got := s.At(2); got != 2 {
		t.Fatalf("At(2) = %v", got)
	}
}
