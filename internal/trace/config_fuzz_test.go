package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"orcf/internal/core"
)

// FuzzGeneratorConfig decodes a whole GeneratorConfig, rejected values
// included: every float field is raw float64 bits (NaN, ±Inf, subnormals,
// huge magnitudes), the burst lengths and the diurnal period raw int64s, and
// the shape fields signed bytes, so that an accepted config stays small. A
// config validate rejects must make Generate return ErrBadConfig without
// panicking; an accepted one must yield only finite values in [0, 1], which
// core.InRange, the admission rule of every step, admits.
func FuzzGeneratorConfig(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 16, 2, 3})
	bits := func(vs ...float64) []byte {
		out := []byte{40, 16, 2, 3}
		for _, v := range vs {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
		return out
	}
	// Words in field order: ChurnProb, DiurnalPeriod, DiurnalAmp, BurstProb,
	// BurstLen, NodeBurstProb, NodeBurstLen, NodeWanderStd, NoiseStd,
	// OffsetStd, Quantum, IdleProb, TwinProb, ProfileSpread, Seed.
	f.Add(bits(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, math.Inf(1))) // +Inf quantum: 0·Inf
	f.Add(bits(0, 0, math.NaN()))                          // NaN amplitude
	f.Add(bits(0, 0, 0, 0, 0, 0, 0, 0, 1e308, 1e308))      // noise and offsets overflow
	f.Add(bits(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5e-324))      // subnormal quantum
	f.Fuzz(func(t *testing.T, data []byte) {
		at := func(k int) byte {
			if k < len(data) {
				return data[k]
			}
			return 0
		}
		word := func(k int) uint64 {
			var w uint64
			for b := 0; b < 8; b++ {
				w |= uint64(at(k+b)) << (8 * b)
			}
			return w
		}
		// Four shape bytes, then one 8-byte word per remaining field.
		next := 4
		float := func() float64 { v := math.Float64frombits(word(next)); next += 8; return v }
		integer := func() int { v := int(int64(word(next))); next += 8; return v }
		cfg := GeneratorConfig{
			Nodes:     int(int8(at(0))),
			Steps:     int(int8(at(1))),
			Resources: int(int8(at(2))) % 9,
			Profiles:  int(int8(at(3))),
		}
		cfg.ChurnProb = float()
		cfg.DiurnalPeriod = integer()
		cfg.DiurnalAmp = float()
		cfg.BurstProb = float()
		cfg.BurstLen = integer()
		cfg.NodeBurstProb = float()
		cfg.NodeBurstLen = integer()
		cfg.NodeWanderStd = float()
		cfg.NoiseStd = float()
		cfg.OffsetStd = float()
		cfg.Quantum = float()
		cfg.IdleProb = float()
		cfg.TwinProb = float()
		cfg.ProfileSpread = float()
		cfg.Seed = word(next)

		desc := fmt.Sprintf("%+v", cfg)
		ds, err := Generate(cfg)
		if cfg.withDefaults().validate() != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("%s: rejected config returned %v, want ErrBadConfig", desc, err)
			}
			return
		}
		if err != nil {
			t.Fatalf("%s: accepted config failed: %v", desc, err)
		}
		for step, row := range ds.Data {
			for i, x := range row {
				for r, v := range x {
					if !(v >= 0 && v <= 1) || !core.InRange(v) {
						t.Fatalf("%s: step %d node %d resource %d = %v, want a value in [0, 1]", desc, step, i, r, v)
					}
				}
			}
		}
	})
}
