package exp

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"orcf/internal/cluster"
	"orcf/internal/core"
	"orcf/internal/kmeans"
	"orcf/internal/trace"
)

func TestSingleResourceProjection(t *testing.T) {
	t.Parallel()
	d, err := trace.Generate(trace.GeneratorConfig{Nodes: 5, Steps: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := singleResource(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mem.NumResources() != 1 || mem.Resources[0] != "mem" {
		t.Fatalf("projection resources = %v", mem.Resources)
	}
	for step := 0; step < d.Steps(); step++ {
		for i := 0; i < d.Nodes(); i++ {
			if mem.At(step, i)[0] != d.At(step, i)[1] {
				t.Fatal("projection values differ from source")
			}
		}
	}
	if _, err := singleResource(d, 5); !errors.Is(err, trace.ErrBadConfig) {
		t.Fatalf("out-of-range resource: want ErrBadConfig, got %v", err)
	}
}

func TestEdgeStoreTracksBudgetAndStaleness(t *testing.T) {
	t.Parallel()
	d, err := trace.Generate(trace.GeneratorConfig{Nodes: 10, Steps: 400, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// stores steps the experiments' edge at budget b and returns the central
	// store after every step.
	stores := func(b float64) [][][]float64 {
		sys, err := edge(d, core.Config{Policy: adaptive(b)})
		if err != nil {
			t.Fatal(err)
		}
		zs := make([][][]float64, d.Steps())
		for step := range zs {
			if _, err := sys.Step(d.Data[step]); err != nil {
				t.Fatal(err)
			}
			zs[step] = sys.Stored()
		}
		return zs
	}
	// z is a lagged copy of x: every stored value must have appeared in the
	// node's true history up to that step.
	zs := stores(0.2)
	for i := 0; i < d.Nodes(); i++ {
		seen := map[float64]bool{}
		for step := 0; step < d.Steps(); step++ {
			seen[d.At(step, i)[0]] = true
			if !seen[zs[step][i][0]] {
				t.Fatalf("stored value %v at step %d never observed at node %d",
					zs[step][i][0], step, i)
			}
		}
	}
	// At budget 1.0 the store equals the truth exactly.
	for step, z := range stores(1.0) {
		for i := range z {
			for r := range z[i] {
				if z[i][r] != d.At(step, i)[r] {
					t.Fatal("B=1 store differs from truth")
				}
			}
		}
	}
}

// TestWindowedClusterer pins Fig. 5's clusterer: its shapes while the window
// fills, no RNG draw before it is full, the baselines' all-present rule, and
// at w = 1 a plain kmeans.Run plus eq. 1 step, bit for bit.
func TestWindowedClusterer(t *testing.T) {
	t.Parallel()
	const n, k, seed = 12, 3, 7
	col := func(step int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64((i*7+step*3)%11) / 10
		}
		return out
	}

	c, err := newWindowed(4, k, rand.New(rand.NewPCG(seed, 1)))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		assign, cents, err := c.UpdateFlat(col(step), n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(assign) != n || len(cents) != k {
			t.Fatalf("warm-up step %d: %d assignments and %d centroid values, want %d and %d", step, len(assign), len(cents), n, k)
		}
	}
	if got, want := c.rng.Uint64(), rand.New(rand.NewPCG(seed, 1)).Uint64(); got != want {
		t.Fatal("the clusterer drew from its RNG before the window filled")
	}

	mask := make([]bool, n)
	for i := range mask {
		mask[i] = i != 5
	}
	if _, _, err := c.UpdateFlat(col(3), n, 1, mask); !errors.Is(err, cluster.ErrBadInput) {
		t.Fatalf("absent slot: want ErrBadInput, got %v", err)
	}

	one, err := newWindowed(1, k, rand.New(rand.NewPCG(seed, 2)))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	for step := 0; step < 20; step++ {
		data := col(step)
		assign, cents, err := one.UpdateFlat(data, n, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		pts := make([][]float64, n)
		for i, v := range data {
			pts[i] = []float64{v}
		}
		want, err := kmeans.Run(pts, kmeans.Config{K: k}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(assign, want.Assignments) {
			t.Fatalf("step %d: assignments %v, want %v", step, assign, want.Assignments)
		}
		for j, cj := range cluster.CentroidsFor(want.Assignments, k, pts) {
			if math.Float64bits(cents[j]) != math.Float64bits(cj[0]) {
				t.Fatalf("step %d: centroid %d = %v, want %v", step, j, cents[j], cj[0])
			}
		}
	}
}

func TestDatasetStdDevMatchesDefinition(t *testing.T) {
	t.Parallel()
	d := &trace.Dataset{
		Resources: []string{"cpu"},
		Data: [][][]float64{
			{{0.0}, {1.0}},
			{{0.0}, {1.0}},
		},
	}
	if got := datasetStdDev(d, 0); got != 0.5 {
		t.Fatalf("stddev = %v, want 0.5", got)
	}
}
