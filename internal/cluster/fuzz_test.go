package cluster

import (
	"fmt"
	"testing"
)

// FuzzTrackerMatchesReference drives the flat update path and the preserved
// pre-change tracker through the same fuzzer-chosen evolution and requires
// identical steps and retained state throughout. data is consumed as a
// stream: per step one op byte (toggle a slot's presence, grow the fleet, or
// nothing) followed by one byte per point coordinate; coarse values make
// ties, duplicates and emptied clusters common.
func FuzzTrackerMatchesReference(f *testing.F) {
	steady := make([]byte, 0, 256)
	for step := 0; step < 12; step++ {
		steady = append(steady, 7) // no membership change: warm steps
		for i := 0; i < 9; i++ {
			steady = append(steady, byte(i%3*40+step))
		}
	}
	f.Add(steady, uint64(1), uint8(0), uint8(1), uint8(5))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over; and once more for luck"),
		uint64(7), uint8(1), uint8(3), uint8(0))
	f.Add([]byte{0, 1, 1, 9, 9, 5, 5, 1, 1, 1, 9, 9, 5, 5, 0, 2, 2, 8, 8, 4, 4, 0, 2, 2, 8, 8, 4, 4},
		uint64(3), uint8(0), uint8(9), uint8(2))
	// Nine scalar slots at M = 1 whose slot 0 crosses to the next group every
	// other step, then leaves and is recycled: the movers pass and the steps
	// that must leave it. cfgSel 5 runs it at IncrementalChurn 0.9.
	movers := make([]byte, 0, 256)
	for step := 0; step < 14; step++ {
		op := byte(7)
		switch step {
		case 8, 10:
			op = 0 // slot 0 leaves, then is recycled
		}
		movers = append(movers, op)
		for i := 0; i < 9; i++ {
			v := byte(i%3*40 + i)
			if i == 0 && step%2 == 1 {
				v += 40
			}
			movers = append(movers, v)
		}
	}
	f.Add(movers, uint64(2), uint8(0), uint8(1), uint8(5))
	f.Add(movers, uint64(2), uint8(0), uint8(5), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, dimSel, cfgSel, nSel uint8) {
		dim := 1 + int(dimSel%3)
		cfg := Config{K: 3, M: 1 + int(cfgSel>>5)%3, Incremental: cfgSel&1 != 0,
			IncrementalChurn: []float64{0, 0.05, 0.9, -1}[cfgSel>>1&3], DisableMatching: cfgSel&16 != 0}
		if cfgSel&8 != 0 {
			cfg.Similarity = SimilarityJaccard
		}
		ref, err := newReferenceTracker(cfg, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTracker(cfg, testRNG(seed))
		if err != nil {
			t.Fatal(err)
		}
		present := make([]bool, cfg.K+1+int(nSel%12))
		for i := range present {
			present[i] = true
		}
		live := len(present)
		for step := 0; len(data) > 0; step++ {
			op, arg := data[0]%8, int(data[0]>>3)
			data = data[1:]
			switch {
			case op == 0 && present[arg%len(present)] && live > cfg.K: // leave
				present[arg%len(present)] = false
				live--
				ref.ForgetSlot(arg % len(present))
				tr.ForgetSlot(arg % len(present))
			case op == 0 && !present[arg%len(present)]: // recycle the slot
				present[arg%len(present)] = true
				live++
				ref.ForgetSlot(arg % len(present))
				tr.ForgetSlot(arg % len(present))
			case op == 1 && len(present) < 40: // a new slot joins
				present = append(present, true)
				live++
			}
			if len(data) < len(present)*dim {
				break
			}
			points := make([][]float64, len(present))
			for i := range points {
				row := make([]float64, dim)
				for d := range row {
					row[d] = float64(data[i*dim+d]) / 16
				}
				if present[i] {
					points[i] = row
				}
			}
			data = data[len(present)*dim:]

			tag := fmt.Sprintf("cfg=%+v dim=%d step %d", cfg, dim, step)
			want, err := ref.UpdateMasked(points, present)
			if err != nil {
				t.Fatalf("%s: reference: %v", tag, err)
			}
			assign, cents, err := tr.UpdateFlat(flatten(points, present, dim), len(points), dim, present)
			if err != nil {
				t.Fatalf("%s: %v", tag, err)
			}
			got := &Step{T: tr.t, Assignments: assign, Centroids: make([][]float64, cfg.K)}
			for j := range got.Centroids {
				got.Centroids[j] = cents[j*dim : (j+1)*dim]
			}
			sameStep(t, tag, got, want)
			sameTrackerState(t, tag, tr, ref)
		}
		if ref.rng.Uint64() != tr.rng.Uint64() {
			t.Fatal("RNG streams diverged")
		}
	})
}
