package forecast

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// FuzzARIMAFitMatchesReference is the reference differential under
// coverage-guided inputs: the bytes become a series and the selectors an
// order, and fit, updates and forecasts must equal the reference's bit for
// bit (or both must refuse alike). Two decodings aim at different corners.
// Coarse mode puts every byte on a 16-level grid, so flat stretches, exact
// ties, perfect fits and zero residuals — where a changed zero sign or a
// reordered subtraction shows — are the common case. Raw mode reads float64
// bit patterns, reaching negative zeros, subnormals, 1e±300 magnitudes and
// non-finite values.
func FuzzARIMAFitMatchesReference(f *testing.F) {
	f.Add([]byte("a flat cluster, then a burst: 0000000000000000000009999999"), false, uint8(1), uint8(0), uint8(1), uint8(0), uint8(0))
	f.Add([]byte{8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8}, false, uint8(2), uint8(1), uint8(2), uint8(0), uint8(0))
	f.Add([]byte("ramp:0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ"), false, uint8(3), uint8(1), uint8(2), uint8(0), uint8(0))
	f.Add([]byte("seasonal 3 1 4 1 5 9 2 6 5 3 5 8 9 7 9 3 2 3 8 4 6 2 6 4 3 3 8 3 2 7 9 5 0 2 8 8"), false, uint8(1), uint8(0), uint8(1), uint8(0b10101), uint8(2))
	raw := make([]byte, 0, 8*24)
	for i := 0; i < 24; i++ {
		v := 0.5 + 0.25*math.Sin(float64(i))
		switch i {
		case 3:
			v = math.Copysign(0, -1)
		case 7:
			v = 1e300
		case 11:
			v = 5e-324
		}
		raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
	}
	f.Add(raw, true, uint8(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, rawFloats bool, pSel, dSel, qSel, seasonalSel, seasonSel uint8) {
		var series []float64
		if rawFloats {
			for ; len(data) >= 8 && len(series) < 48; data = data[8:] {
				series = append(series, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			}
		} else {
			for _, b := range data[:min(len(data), 72)] {
				series = append(series, float64(b%16)/16)
			}
		}
		o := Order{P: int(pSel % 4), D: int(dSel % 3), Q: int(qSel % 3)}
		if seasonalSel != 0 {
			o.SP, o.SD, o.SQ = int(seasonalSel&1), int(seasonalSel>>2&1), int(seasonalSel>>4&1)
			o.Season = 2 + int(seasonSel%4)
		}
		if !o.valid() {
			return
		}
		// Hold back a few points to feed through Update.
		fit := len(series) - min(4, len(series)/8)
		label := fmt.Sprintf("%v n=%d raw=%v", o, fit, rawFloats)
		ref, got := fitPair(t, label, o, series[:fit])
		if ref == nil {
			return
		}
		for _, y := range series[fit:] {
			ref.Update(y)
			got.Update(y)
		}
		compareModels(t, label+" after updates", ref, got)
	})
}

// rawFloats packs float64 bit patterns the way the raw-bits fuzz targets
// read them.
func rawFloats(vals ...float64) []byte {
	out := make([]byte, 0, 8*len(vals))
	for _, v := range vals {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// FuzzCSSLanesMatchSolo holds the two-lane CSS kernel to the solo one:
// cssSmall2 of two lanes must return exactly what two cssSmall calls return.
// The bytes are float64 bit patterns, read in turn (and cycled) into the two
// series, constants and coefficient vectors; the selectors pick each lane's
// shape (p ≤ 3, q ≤ 2) and length — unequal lengths, so one lane finishes
// its tail alone, and lengths at or below the head, so the shared body is
// short or empty.
func FuzzCSSLanesMatchSolo(f *testing.F) {
	negNaN := math.Float64frombits(0xfff8000000000000)
	specials := rawFloats(math.NaN(), negNaN, math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		5e-324, -5e-324, 2.225073858507201e-308, 0.4, -0.3, 0.25, 1e300, -1e-300, 0.7)
	var smooth []float64
	for i := 0; i < 48; i++ {
		smooth = append(smooth, 0.5+0.25*math.Sin(float64(i)))
	}
	f.Add(specials, uint8(3+4*2), uint8(2+4*1), uint8(40), uint8(37))
	f.Add(rawFloats(smooth...), uint8(3+4*2), uint8(3+4*2), uint8(60), uint8(59))
	f.Add(rawFloats(smooth...), uint8(1+4*1), uint8(3+4*0), uint8(2), uint8(30)) // a length-1 body
	f.Add(specials, uint8(3+4*2), uint8(0+4*1), uint8(2), uint8(9))              // below the head
	f.Add(rawFloats(0, math.Copysign(0, -1), 0, 0, math.Copysign(0, -1)), uint8(2+4*2), uint8(0+4*2), uint8(16), uint8(16))
	// Cancellation: (2⁵⁴ − 2⁵³) − 1 and (2⁵⁴ − 1) − 2⁵³ differ, so a lane that
	// subtracts its first two AR terms (p3q0 on [0 1 2⁵⁴ 2⁵⁴]) or its two MA
	// terms (p0q2 on [2 2⁵³+2 2⁵⁴]) in another order fails from the seeds.
	const p53, p54 = 1 << 53, 1 << 54
	f.Add(rawFloats(0, 1, p54, p54, 2, p53+2, p54, 0, 0, 0.5, 1, 0, 1, 0.5), uint8(3), uint8(0+4*2), uint8(4), uint8(3))
	f.Add(rawFloats(2, p53+2, p54, 0, 1, p54, p54, 0, 0, 1, 0.5, 0.5, 1, 0), uint8(0+4*2), uint8(3), uint8(3), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, shapeA, shapeB, lenA, lenB uint8) {
		pool := make([]float64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			pool = append(pool, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		}
		if len(pool) == 0 {
			return
		}
		next := 0
		take := func(n int) []float64 {
			out := make([]float64, n)
			for i := range out {
				out[i] = pool[next%len(pool)]
				next++
			}
			return out
		}
		wa, wb := take(int(lenA%64)), take(int(lenB%64))
		ca, cb := take(1)[0], take(1)[0]
		arA, maA := take(int(shapeA%4)), take(int(shapeA/4%3))
		arB, maB := take(int(shapeB%4)), take(int(shapeB/4%3))
		gotA, gotB := cssSmall2(wa, ca, arA, maA, wb, cb, arB, maB)
		if wantA := cssSmall(wa, ca, arA, maA); !sameBits(gotA, wantA) {
			t.Fatalf("lane A p%dq%d n=%d: cssSmall2 %v (%#x), cssSmall %v (%#x)", len(arA), len(maA), len(wa),
				gotA, math.Float64bits(gotA), wantA, math.Float64bits(wantA))
		}
		if wantB := cssSmall(wb, cb, arB, maB); !sameBits(gotB, wantB) {
			t.Fatalf("lane B p%dq%d n=%d: cssSmall2 %v (%#x), cssSmall %v (%#x)", len(arB), len(maB), len(wb),
				gotB, math.Float64bits(gotB), wantB, math.Float64bits(wantB))
		}
	})
}
