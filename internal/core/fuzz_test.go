package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"orcf/internal/transmit"
)

// FuzzDecideKernelMatchesPolicy is the differential of the inline arm of the
// edge walk against Adaptive.Decide under raw float64 bit patterns. Every
// eight input bytes are one value verbatim: the virtual queue, then B, V0 and
// γ (folded into their valid ranges; what NewAdaptive still rejects is
// skipped), then the d values of x and the d values of the stored row z. The
// policy under test sits in the middle slot of a three-slot fleet whose other
// members are silent, so both strides of either store layout are exercised.
// The decision and the queue afterwards must equal, bit for bit, those of a
// twin policy asked through Decide(t, x, z). The seed corpus holds a penalty
// that overflows to +Inf, an exact-zero penalty, subnormal differences, a
// deeply banked queue and a node that has never stored.
func FuzzDecideKernelMatchesPolicy(f *testing.F) {
	ordinary := make([]byte, 0, 8*8)
	for _, v := range []float64{-0.4, 0.3, 0.5, 0.65, 0.52, 0.31, 0.5, 0.3} {
		ordinary = binary.LittleEndian.AppendUint64(ordinary, math.Float64bits(v))
	}
	f.Add(ordinary, uint8(1), false, true, uint32(40))
	f.Fuzz(func(t *testing.T, data []byte, dSel uint8, joint, stored bool, step uint32) {
		d := 1 + int(dSel%8)
		if len(data) < 8*(4+2*d) {
			return
		}
		vals := make([]float64, 4+2*d)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		fold := func(v float64) float64 { // |v| into [0,1], NaN and ±Inf kept
			if v = math.Abs(v); v > 1 && !math.IsInf(v, 0) {
				v -= math.Floor(v)
			}
			return v
		}
		queue, x, z := vals[0], vals[4:4+d], vals[4+d:]
		cfg := transmit.AdaptiveConfig{Budget: fold(vals[1]), V0: math.Abs(vals[2]), Gamma: fold(vals[3])}
		if cfg.Gamma == 1 {
			cfg.Gamma = 0
		}
		if _, err := transmit.NewAdaptive(cfg); err != nil {
			t.Skip(err)
		}
		if !stored {
			z = nil
		}
		checkKernelDecision(t, cfg, queue, 1+int(step), joint, x, z)
	})
}

// checkKernelDecision asks the inline arm of the edge walk and, on a twin
// policy, Adaptive.Decide for the decision of a node with configuration cfg
// and virtual queue `queue` that reports x at step t while the central node
// holds z (nil: nothing stored). The node is the middle slot of a three-slot
// fleet whose other members are silent, so both strides of either store
// layout count. Decision, queue afterwards and the store must agree bit for
// bit.
func checkKernelDecision(t *testing.T, cfg transmit.AdaptiveConfig, queue float64, step int, joint bool, x, z []float64) {
	t.Helper()
	build := func() *transmit.Adaptive {
		p, err := transmit.NewAdaptive(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.UnmarshalState(binary.LittleEndian.AppendUint64(nil, math.Float64bits(queue))); err != nil {
			t.Fatal(err)
		}
		return p
	}
	const slot = 1
	d := len(x)
	sys, err := NewSystem(Config{
		Nodes: 3, Resources: d, K: 1, JointClustering: joint,
		Policy: func(int) (transmit.Policy, error) { return build(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if z != nil {
		sys.stage.z.set(slot, z)
		sys.stage.present[slot] = true
	}
	sys.t = step
	rows := make([][]float64, 3)
	rows[slot] = x
	// Only the walks are under test: a fleet that still stores nothing fails
	// ingest's present-count check after them.
	sys.decide(rows)
	_, _, _ = sys.ingest(rows)

	twin := build()
	want := twin.Decide(step, x, z)
	got := sys.transmitted[slot]
	// The virtual queue is all of an Adaptive policy's state.
	gotQ, err := sys.policies[slot].(*transmit.Adaptive).MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	wantQ, err := twin.MarshalState()
	if err != nil {
		t.Fatal(err)
	}
	if got != want || !bytes.Equal(gotQ, wantQ) {
		t.Fatalf("d=%d joint=%v t=%d cfg=%+v queue=%v x=%v z=%v: kernel sent=%v queue=%x, Decide sent=%v queue=%x",
			d, joint, step, cfg, queue, x, z, got, gotQ, want, wantQ)
	}
	if wantStored := z != nil || want; sys.stage.present[slot] != wantStored {
		t.Fatalf("stored flag %v after the walk, want %v", sys.stage.present[slot], wantStored)
	}
	held := z
	if want {
		held = x
	}
	if held != nil {
		for r, v := range sys.stage.z.row(slot, make([]float64, d)) {
			if math.Float64bits(v) != math.Float64bits(held[r]) {
				t.Fatalf("store holds %v after sent=%v of %v over %v", sys.stage.z.row(slot, make([]float64, d)), want, x, z)
			}
		}
	}
}
