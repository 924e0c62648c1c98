package core

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"testing"
)

// FuzzPlanMatchesReference is the differential of the plan kernel against
// the pre-plan per-slot reconstruction (referenceReconstruct) on look-back
// windows built directly, with no System in between: stored values,
// centroids and centroid forecasts are raw float64 bit patterns, presence,
// membership and liveness are random. shape picks the layout:
//
//	bits 0–2   d = 1 + v%5 resources
//	bit 3      joint clustering (one d-dimensional tracker) or per-resource
//	bits 4–6   window depth 1 + v%6
//	bits 7–8   K = 1 + v
//	bits 9–17  N = 1 + v%260 slots (up to three plan blocks)
//	bits 18–19 h = 1 + v
//	bit 20     unused (the retired clamp ablation), bit 21 α-clamp
//	           ablation, bit 22 one worker
//	bit 23     every slot present and alive, moving to the next cluster at
//	           every step, so the α clamp runs for all of them
//
// seed drives a PCG for presence, membership and liveness. vals holds the
// float bits, eight bytes each — the window's centroids, then its stored
// values, then the forecasts — with non-finite patterns folded to finite
// ones (exponent bit 62 cleared); once vals runs out the PCG draws them, half
// uniform in [0, 1) and half raw bits. The plan's tensor, At, Row and fill
// column must match the reference bit for bit. The seed corpus holds signed
// zeros, subnormals, huge and tiny values whose differences overflow, a
// window of nodes that change cluster at every step, and a joint d = 5 fleet
// across a block edge.
func FuzzPlanMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, shape uint32, seed uint64, vals []byte) {
		env, cent, h, serial := fuzzPlanEnv(shape, seed, vals)
		if serial {
			setMaxProcs(t, 1)
		}
		want, err := referenceReconstruct(env, cent, h)
		if err != nil {
			t.Fatal(err)
		}
		p := env.plan(cent)
		forecastBits(t, p.tensor(h), want, "plan tensor vs reference", 0)
		row := make([]float64, env.resources)
		for slot := 0; slot < env.nodes; slot++ {
			fill := 0
			for _, s := range env.slots {
				if s.present[slot] {
					fill++
				}
			}
			if int(p.fill[slot]) != fill {
				t.Fatalf("slot %d: fill %d, window has %d present steps", slot, p.fill[slot], fill)
			}
			for hi := 0; hi < h; hi++ {
				p.Row(slot, hi, row)
				for r, w := range want[hi][slot] {
					if got := p.At(slot, r, hi); math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("At(%d, %d, %d) = %v (%#x), reference %v (%#x)", slot, r, hi, got, math.Float64bits(got), w, math.Float64bits(w))
					}
					if math.Float64bits(row[r]) != math.Float64bits(w) {
						t.Fatalf("Row(%d, %d)[%d] = %v (%#x), reference %v (%#x)", slot, hi, r, row[r], math.Float64bits(row[r]), w, math.Float64bits(w))
					}
				}
			}
		}
	})
}

// fuzzPlanEnv decodes one FuzzPlanMatchesReference input into a look-back
// window, its centroid forecasts as the plan's flat table (drawn in
// [tracker][cluster][dim][hi] order), the horizon and whether to run it at
// GOMAXPROCS 1.
func fuzzPlanEnv(shape uint32, seed uint64, vals []byte) (*reconEnv, []float64, int, bool) {
	bits := func(lo, width uint) int { return int(shape >> lo & (1<<width - 1)) }
	d, joint := 1+bits(0, 3)%5, bits(3, 1) == 1
	depth, k, n, h := 1+bits(4, 3)%6, 1+bits(7, 2), 1+bits(9, 9)%260, 1+bits(18, 2)
	rotate, serial := bits(23, 1) == 1, bits(22, 1) == 1
	nT, dims := d, 1
	if joint {
		nT, dims = 1, d
	}
	rng := rand.New(rand.NewPCG(seed, uint64(shape)))
	next := func() float64 {
		var b uint64
		switch {
		case len(vals) >= 8:
			b, vals = binary.LittleEndian.Uint64(vals), vals[8:]
		case rng.IntN(2) == 0:
			return rng.Float64()
		default:
			b = rng.Uint64()
		}
		if b>>52&0x7ff == 0x7ff {
			b &^= 1 << 62
		}
		return math.Float64frombits(b)
	}

	env := &reconEnv{
		slots: make([]*ringSlot, depth), alive: make([]bool, n),
		nodes: n, resources: d, k: k, dims: dims, nTracker: nT, joint: joint,
		disableAlphaClamp: bits(21, 1) == 1,
	}
	for i := range env.alive {
		env.alive[i] = rotate || rng.IntN(8) != 0
	}
	for ago := range env.slots {
		s := &ringSlot{
			z: newZFrame(n, nT, dims), assignments: make([][]int32, nT),
			cents: make([]float64, nT*k*dims), kd: k * dims, present: make([]bool, n),
		}
		for i := range s.cents {
			s.cents[i] = next()
		}
		for i := range s.present {
			s.present[i] = rotate || rng.IntN(4) != 0
		}
		for tr := range s.assignments {
			s.assignments[tr] = make([]int32, n)
			for i := range s.assignments[tr] {
				switch {
				case rotate:
					s.assignments[tr][i] = int32((i + depth - ago) % k)
				case rng.IntN(6) == 0:
					s.assignments[tr][i] = -1
				default:
					s.assignments[tr][i] = rng.Int32N(int32(k))
				}
			}
		}
		env.slots[ago] = s
	}
	for _, s := range env.slots {
		for tr := 0; tr < nT; tr++ {
			pts := s.z.points(tr)
			for i := range pts {
				pts[i] = next()
			}
		}
	}
	kd := k * dims
	cent := make([]float64, h*nT*kd)
	for tr := 0; tr < nT; tr++ {
		for j := 0; j < k; j++ {
			for dim := 0; dim < dims; dim++ {
				for hi := 0; hi < h; hi++ {
					cent[hi*nT*kd+tr*kd+j*dims+dim] = next()
				}
			}
		}
	}
	return env, cent, h, serial
}
