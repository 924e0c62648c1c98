package serve

import (
	"errors"
	"math"
	"testing"

	"orcf/internal/core"
	"orcf/internal/transport"
)

// TestTickRejectsNonFiniteMeasurement pins the ingest-side NaN fence: a
// non-finite value in a reported measurement must fail the tick with
// ErrBadInput (like a dims mismatch) instead of entering the pipeline,
// where it would poison window means, centroids, and forecasts and later
// break JSON marshaling.
func TestTickRejectsNonFiniteMeasurement(t *testing.T) {
	t.Parallel()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		store := transport.NewStore()
		stepper, err := NewStoreStepper(store, tickCfg(2))
		if err != nil {
			t.Fatal(err)
		}
		store.Apply(transport.Measurement{Node: 0, Step: 1, Values: []float64{0.1, 0.2}})
		store.Apply(transport.Measurement{Node: 1, Step: 1, Values: []float64{0.3, bad}})
		if _, _, err := stepper.Tick(); !errors.Is(err, core.ErrBadInput) {
			t.Errorf("value %v: Tick err = %v, want ErrBadInput", bad, err)
		}
	}
}

// TestFiniteGuards pins the response-side guards: inputs that are already
// finite come back unchanged (no copy), non-finite elements are zeroed in a
// copy, and the original is never mutated (response paths hold
// snapshot-owned, frozen slices).
func TestFiniteGuards(t *testing.T) {
	t.Parallel()
	if got := Finite64(3.5); got != 3.5 {
		t.Errorf("Finite64(3.5) = %v", got)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := Finite64(bad); got != 0 {
			t.Errorf("Finite64(%v) = %v, want 0", bad, got)
		}
	}

	clean := []float64{1, 2, 3}
	if got := FiniteRow(clean); &got[0] != &clean[0] {
		t.Error("FiniteRow copied an already-finite row")
	}
	dirty := []float64{1, math.NaN(), 3}
	fixed := FiniteRow(dirty)
	if &fixed[0] == &dirty[0] {
		t.Error("FiniteRow repaired in place instead of copying")
	}
	if !math.IsNaN(dirty[1]) {
		t.Error("FiniteRow mutated its argument")
	}
	if fixed[0] != 1 || fixed[1] != 0 || fixed[2] != 3 {
		t.Errorf("FiniteRow = %v, want [1 0 3]", fixed)
	}

	rows := [][]float64{{1, 2}, {math.Inf(1), 4}, {5, 6}}
	fixedRows := FiniteRows(rows)
	if &fixedRows[0] == &rows[0] {
		t.Error("FiniteRows repaired in place instead of copying")
	}
	if !math.IsInf(rows[1][0], 1) {
		t.Error("FiniteRows mutated its argument")
	}
	if fixedRows[1][0] != 0 || fixedRows[1][1] != 4 || fixedRows[0][0] != 1 || fixedRows[2][1] != 6 {
		t.Errorf("FiniteRows = %v", fixedRows)
	}
	cleanRows := [][]float64{{1}, {}, {2}}
	if got := FiniteRows(cleanRows); &got[0] != &cleanRows[0] {
		t.Error("FiniteRows copied already-finite rows (empty row mishandled?)")
	}
}
