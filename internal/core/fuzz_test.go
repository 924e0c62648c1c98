package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/fnv"
	"math"
	"testing"

	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// FuzzDecideKernelMatchesPolicy is the differential of the inline arm of the
// ingest walk against Adaptive.Decide under raw float64 bit patterns. Every
// eight input bytes are one value verbatim: the virtual queue, then B (folded
// into [0, 1]; what NewAdaptive still rejects is skipped), then two values the
// target ignores (once V0 and γ of eq. 9, kept so that the committed corpus
// keeps its layout), then the d values of x and the d values of the stored
// row z. The policy under test sits in the middle slot of a three-slot fleet
// whose other members are silent, so both strides of either store layout are
// exercised. The decision and the queue afterwards must equal, bit for bit,
// those of a twin policy asked through Decide(t, x, z). The seed corpus holds
// a penalty that overflows to +Inf, an exact-zero penalty, subnormal
// differences, a deeply banked queue and a node that has never stored.
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
		cfg := transmit.AdaptiveConfig{Budget: fold(vals[1])}
		if _, err := transmit.NewAdaptive(cfg); err != nil {
			t.Skip(err)
		}
		if !stored {
			z = nil
		}
		checkKernelDecision(t, cfg, queue, 1+int(step), joint, x, z)
	})
}

// checkKernelDecision asks the inline arm of the ingest walk and, on a twin
// policy, Adaptive.Decide for the decision of a node with configuration cfg
// and virtual queue `queue` that reports x at step t while the central node
// holds z (nil: nothing stored). The node is the middle slot of a three-slot
// fleet whose other members are silent, so both strides of either store
// layout count. Decision (with the first-contact rule applied), queue
// afterwards and the store must agree bit for bit.
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
	// Only the walk is under test. It stores a first report whatever was
	// decided, so with nothing stored the decision shows in the queue alone.
	sys.ingest(rows, nil)
	got := sys.transmitted[slot]

	twin := build()
	want := twin.Decide(step, x, z) || z == nil
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
	if !sys.stage.present[slot] {
		t.Fatal("a reporting member is unstored after the walk")
	}
	held := z
	if want || z == nil {
		held = x
	}
	for r, v := range sys.stage.z.row(slot, make([]float64, d)) {
		if math.Float64bits(v) != math.Float64bits(held[r]) {
			t.Fatalf("store holds %v after sent=%v of %v over %v", sys.stage.z.row(slot, make([]float64, d)), want, x, z)
		}
	}
}

// FuzzStepArrivalsWholeFloatRange drives three Systems (N ≤ 8, d = 2,
// K = 2, zoo sample-and-hold and ar, a schedule short enough that fits run)
// through 24 steps whose values span the whole float64 range: an edge-less
// central node by StepArrivals, and by Step a NewSystem under the Adaptive
// policy and one under the Uniform policy. Each row starts with a selector
// byte: 255 leaves the member silent; below 128 it is an in-range value in
// [0, 1]; otherwise NaN, ±Inf, ±0, ±100, one ulp past ±100, a subnormal of
// random sign, or eight raw bytes (a random sign, exponent and mantissa).
// Once the data runs out the members report a slow in-range signal. Every
// call must succeed or return ErrBadInput with Steps() and the ExportState
// digest unchanged; no other error may occur.
func FuzzStepArrivalsWholeFloatRange(f *testing.F) {
	f.Add(uint8(6), []byte{})
	f.Fuzz(func(t *testing.T, nSel uint8, data []byte) {
		n := 2 + int(nSel%7)
		zoo, err := forecast.Zoo("sample-and-hold", "ar")
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Nodes: n, Resources: 2, K: 2, InitialCollection: 8, RetrainEvery: 4, Zoo: zoo, Seed: 1,
		}
		central, err := NewCentral(cfg)
		if err != nil {
			t.Fatal(err)
		}
		adaptive, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Policy = func(int) (transmit.Policy, error) { return transmit.NewUniform(0.5) }
		uniform, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runs := []struct {
			name string
			sys  *System
			edge bool // stepped by Step, else by StepArrivals
		}{{"StepArrivals", central, false}, {"adaptive Step", adaptive, true}, {"uniform Step", uniform, true}}
		next := func() (byte, bool) {
			if len(data) == 0 {
				return 0, false
			}
			b := data[0]
			data = data[1:]
			return b, true
		}
		raw := func() uint64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return binary.LittleEndian.Uint64(b[:])
		}
		value := func(sel byte) float64 {
			switch {
			case sel < 128:
				return float64(sel) / 127
			case sel == 128:
				return math.NaN()
			case sel == 129:
				return math.Inf(1)
			case sel == 130:
				return math.Inf(-1)
			case sel == 131:
				return 0
			case sel == 132:
				return math.Copysign(0, -1)
			case sel == 133:
				return 100
			case sel == 134:
				return -100
			case sel == 135:
				return math.Nextafter(100, math.Inf(1))
			case sel == 136:
				return math.Nextafter(-100, math.Inf(-1))
			case sel == 137:
				bits := raw()
				return math.Float64frombits(bits&(1<<63|1<<52-1) | 1) // sign and mantissa, exponent 0
			default:
				return math.Float64frombits(raw())
			}
		}
		digest := func(sys *System) uint64 {
			st, err := sys.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range st.Ensembles {
				e.TrainTime = 0
			}
			h := fnv.New64a()
			if err := gob.NewEncoder(h).Encode(st); err != nil {
				t.Fatal(err)
			}
			return h.Sum64()
		}
		x := make([][]float64, n)
		arrived := make([]bool, n)
		for step := 1; step <= 24; step++ {
			for i := range x {
				x[i], arrived[i] = nil, false
				sel, ok := next()
				if !ok {
					base := 0.2 + 0.6*float64(i%2)
					x[i], arrived[i] = []float64{base + 0.01*float64(step%7), 1 - base}, true
					continue
				}
				if sel == 255 {
					continue
				}
				v0 := value(sel)
				sel1, _ := next()
				x[i], arrived[i] = []float64{v0, value(sel1)}, true
			}
			for _, run := range runs {
				steps, before := run.sys.Steps(), digest(run.sys)
				var err error
				if run.edge {
					_, err = run.sys.Step(x)
				} else {
					_, err = run.sys.StepArrivals(x, arrived)
				}
				if err == nil {
					continue
				}
				if !errors.Is(err, ErrBadInput) {
					t.Fatalf("%s step %d, rows %v: %v", run.name, step, x, err)
				}
				if run.sys.Steps() != steps || digest(run.sys) != before {
					t.Fatalf("%s step %d, rows %v: rejected (%v), but the system moved", run.name, step, x, err)
				}
			}
		}
	})
}
