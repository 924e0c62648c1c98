package trace

import (
	"bytes"
	"fmt"
	"math"
	"testing"
)

// sameDataset fails t unless got and want have the same name, resources and
// shape and every value has the same float64 bits.
func sameDataset(t *testing.T, tag string, got, want *Dataset) {
	t.Helper()
	if got.Name != want.Name || fmt.Sprint(got.Resources) != fmt.Sprint(want.Resources) {
		t.Fatalf("%s: dataset %q %v, want %q %v", tag, got.Name, got.Resources, want.Name, want.Resources)
	}
	if got.Steps() != want.Steps() || got.Nodes() != want.Nodes() {
		t.Fatalf("%s: shape %d×%d, want %d×%d", tag, got.Steps(), got.Nodes(), want.Steps(), want.Nodes())
	}
	for s := range want.Data {
		if len(got.Data[s]) != len(want.Data[s]) {
			t.Fatalf("%s: step %d has %d nodes, want %d", tag, s, len(got.Data[s]), len(want.Data[s]))
		}
		for i, row := range want.Data[s] {
			if len(got.Data[s][i]) != len(row) {
				t.Fatalf("%s: t=%d node=%d has %d values, want %d", tag, s, i, len(got.Data[s][i]), len(row))
			}
			for r, v := range row {
				if g := got.Data[s][i][r]; math.Float64bits(g) != math.Float64bits(v) {
					t.Fatalf("%s: t=%d node=%d r=%d: %v (%#x), want %v (%#x)",
						tag, s, i, r, g, math.Float64bits(g), v, math.Float64bits(v))
				}
			}
		}
	}
}

// matchReference generates cfg both ways and compares them bit for bit, the
// error included.
func matchReference(t *testing.T, tag string, cfg GeneratorConfig) {
	t.Helper()
	got, gotErr := Generate(cfg)
	want, wantErr := referenceGenerate(cfg)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", tag, gotErr, wantErr)
	}
	if wantErr == nil {
		sameDataset(t, tag, got, want)
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	t.Parallel()
	// The benchmark's four generator shapes (Nodes is its fleet plus a
	// quarter, seed 1), scaled down.
	configs := []GeneratorConfig{
		{Name: "step_scalar", Nodes: 625, Steps: 240, Resources: 2, Seed: 1},
		{Name: "step_joint_d4", Nodes: 625, Steps: 240, Resources: 4, Seed: 1},
		{Name: "zoo_durable", Nodes: 160, Steps: 1152, Resources: 2, Seed: 1},
		{Name: "ingest_serve", Nodes: 640, Steps: 288, Resources: 2, Seed: 1},
		// Edge configurations.
		{Nodes: 7, Steps: 90, Profiles: 1, Seed: 2},
		{Nodes: 40, Steps: 120, Quantum: -1, IdleProb: -1, ChurnProb: -1, Seed: 3},
		{Nodes: 40, Steps: 120, TwinProb: 0.9, Seed: 4},
		{Nodes: 40, Steps: 120, Resources: 1, Seed: 5},
		{Nodes: 40, Steps: 120, Resources: 5, IdleProb: 0.5, NodeBurstProb: 0.3, Seed: 6},
		{Nodes: 1, Steps: 1, Seed: 7},
	}
	for _, cfg := range configs {
		matchReference(t, fmt.Sprintf("%+v", cfg), cfg)
	}
	for _, p := range []Preset{AlibabaLike(), BitbrainsLike(), GoogleLike(), SensorLike()} {
		cfg := p.cfg
		cfg.Nodes, cfg.Steps, cfg.Seed = 60, 400, 11
		matchReference(t, p.Name, cfg)
	}
}

// FuzzGenerateMatchesReference decodes a small generator configuration
// (N ≤ 32, steps ≤ 64) from bytes, sentinels and out-of-range values
// included, and compares Generate with the reference bit for bit.
func FuzzGenerateMatchesReference(f *testing.F) {
	f.Add([]byte{31, 63, 2, 6}, uint64(1))
	f.Add([]byte{9, 40, 5, 1, 0, 20, 200, 80, 9, 3, 250, 100, 60, 40, 30, 232, 110, 90}, uint64(7))
	f.Add([]byte("the quick brown fox jumps over the lazy dog"), uint64(42))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64) {
		at := func(k int) int {
			if k < len(data) {
				return int(data[k])
			}
			return 0
		}
		// frac maps a byte onto [-0.2, 1.39]: 32 is zero (the default),
		// below it the negative "exactly zero" sentinel, above 192 out of
		// range for a probability.
		frac := func(k int) float64 { return float64(at(k)-32) / 160 }
		cfg := GeneratorConfig{
			Nodes:             1 + at(0)%32,
			Steps:             1 + at(1)%64,
			Resources:         at(2)%7 - 1,
			Profiles:          at(3)%9 - 1,
			ChurnProb:         frac(4),
			DiurnalPeriod:     at(5) - 8,
			DiurnalAmp:        frac(6),
			BurstProb:         frac(7),
			BurstLen:          at(8)%12 - 1,
			NodeBurstProb:     frac(9),
			NodeBurstLen:      at(10)%12 - 1,
			NodeWanderStd:     frac(11) / 10,
			NoiseStd:          frac(12) / 10,
			OffsetStd:         frac(13) / 5,
			Quantum:           frac(14) / 10,
			IdleProb:          frac(15),
			TwinProb:          frac(16),
			ProfileSpread:     frac(17),
			CrossResourceCorr: frac(18),
			Seed:              seed,
		}
		if cfg.withDefaults().validate() != nil {
			return
		}
		matchReference(t, fmt.Sprintf("%+v", cfg), cfg)
	})
}

func TestRowsDoNotAlias(t *testing.T) {
	t.Parallel()
	// Rows are written past their end by append below; capped views send
	// every append to a fresh array, so no neighbouring value may move.
	gen, err := Generate(GeneratorConfig{Nodes: 6, Steps: 5, Resources: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveCSV(&buf, gen); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCSV(&buf, "csv")
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceGenerate(GeneratorConfig{Nodes: 6, Steps: 5, Resources: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*Dataset{gen, loaded} {
		want.Name = d.Name
		for s := range d.Data {
			for i := range d.Data[s] {
				_ = append(d.Data[s][i], -1, -2, -3)
			}
			_ = append(d.Data[s], []float64{-1})
		}
		sameDataset(t, d.Name+" after appends", d, want)
	}
}

func TestGenerateAllocations(t *testing.T) {
	cfg := GeneratorConfig{Nodes: 500, Steps: 40, Resources: 3, Seed: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Generate(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// Per-row allocation would be 2·Nodes·Steps = 40 000.
	if limit := float64(cfg.Steps + 32); allocs > limit {
		t.Fatalf("Generate made %.0f allocations at %d×%d, want ≤ Steps + 32 = %.0f",
			allocs, cfg.Steps, cfg.Nodes, limit)
	}
}

// BenchmarkGenerate generates the benchmark's step_scalar and step_joint_d4
// traces (12 500 machines, 240 steps, d = 2 and 4).
func BenchmarkGenerate(b *testing.B) {
	for _, d := range []int{2, 4} {
		cfg := GeneratorConfig{Name: "orcfbench", Nodes: 12500, Steps: 240, Resources: d, Seed: 1}
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Generate(cfg); err != nil {
					b.Fatal(err)
				}
			}
			values := float64(b.N) * float64(cfg.Nodes*cfg.Steps*d)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/values, "ns/value")
		})
	}
}
