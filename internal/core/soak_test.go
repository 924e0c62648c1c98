package core

import (
	"encoding/gob"
	"math"
	"runtime"
	"testing"

	"orcf/internal/forecast"
)

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}

// TestStateBoundedByFitWindow is the soak: a central node at forecastd's
// shape — edge-less, N = 32, d = 2, K = 3, a zoo whose fits read history
// (sample-and-hold and ar), the daemon's default schedule and no FitWindow,
// so the default window — runs 10⁶ steps. The live heap after a GC and the
// gob size of ExportState at 10⁶ steps must stay within 1.1× of their values
// at 10⁵, and every ensemble series within FitWindow + RetrainEvery values.
// It asserts on bytes and lengths only, never on time. Skipped under -short.
func TestStateBoundedByFitWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 10⁶ steps")
	}
	const (
		n, d, k       = 32, 2, 3
		initial       = 50
		retrain       = 100
		window        = 2 * retrain // max(initial, 2·retrain)
		first, second = 100_000, 1_000_000
	)
	zoo, err := forecast.Zoo("sample-and-hold", "ar")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Nodes: n, Resources: d, K: k,
		InitialCollection: initial, RetrainEvery: retrain,
		Zoo: zoo, Seed: 1,
	}
	if got := cfg.withDefaults().fitWindow(); got != window {
		t.Fatalf("default fit window %d, want %d", got, window)
	}
	sys, err := NewCentral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, n)
	arrived := make([]bool, n)
	for i := range x {
		x[i] = make([]float64, d)
		arrived[i] = true
	}
	measure := func() (heap uint64, stateBytes int) {
		for tr := 0; tr < d; tr++ {
			for j := 0; j < k; j++ {
				if l := len(sys.CentroidSeries(tr, j, 0)); l > window+retrain {
					t.Fatalf("step %d: ensemble %d cluster %d holds %d values, want ≤ %d",
						sys.Steps(), tr, j, l, window+retrain)
				}
			}
		}
		st, err := sys.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		var c countWriter
		if err := gob.NewEncoder(&c).Encode(st); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, int(c)
	}
	var heap1, heap2 uint64
	var state1, state2 int
	for step := 1; step <= second; step++ {
		for i := range x {
			// Two groups of nodes on slow waves of different periods, with a
			// per-node offset: the clusters move, and no two steps repeat.
			base := 0.3 + 0.4*float64(i%2)
			x[i][0] = base + 0.1*math.Sin(float64(step)/97+float64(i)) + 0.01*float64(i%5)
			x[i][1] = 1 - base + 0.1*math.Cos(float64(step)/61+float64(i))
		}
		if _, err := sys.StepArrivals(x, arrived); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		switch step {
		case first:
			heap1, state1 = measure()
		case second:
			heap2, state2 = measure()
		}
	}
	t.Logf("live heap %d → %d B, gob state %d → %d B (steps %d → %d)",
		heap1, heap2, state1, state2, first, second)
	if float64(heap2) > 1.1*float64(heap1) {
		t.Errorf("live heap grew %d → %d B from step %d to %d", heap1, heap2, first, second)
	}
	if float64(state2) > 1.1*float64(state1) {
		t.Errorf("gob state grew %d → %d B from step %d to %d", state1, state2, first, second)
	}
}
