package forecast

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"testing"

	"orcf/internal/mat"
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

// inBand folds a raw float64 into core.InRange's band |v| ≤ 100, the values
// a centroid series can hold: a value inside stays as it is (±0 and
// subnormals included), ±Inf becomes ±100, NaN a zero of its sign, and any
// other value 100 times its binary fraction, in ±[50, 100).
func inBand(v float64) float64 {
	switch {
	case math.Abs(v) <= 100:
		return v
	case math.IsNaN(v):
		return math.Copysign(0, v)
	case math.IsInf(v, 0):
		return math.Copysign(100, v)
	}
	frac, _ := math.Frexp(v)
	return 100 * frac
}

// sameFailure reports whether two errors are alike: both nil, or both
// wrapping the same sentinels.
func sameFailure(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	for _, sentinel := range []error{ErrBadInput, ErrNotFitted, mat.ErrNotSPD} {
		if errors.Is(a, sentinel) != errors.Is(b, sentinel) {
			return false
		}
	}
	return true
}

// FuzzLagRegressorMatchesReference holds the one lag regressor to the two
// models it replaced, refAR (ar(p), p = 1…8) and refLaggedRidge
// (lagged-ridge), kept in reference_test.go. The bytes are float64 bit
// patterns folded into core.InRange's band; the selectors pick the family,
// how many trailing values go through Update instead of Fit, and the
// horizon. Name, MinObservations, the fitted coefficients and the forecasts
// must equal the reference's bit for bit, sign of zero included, and errors
// must match error for error.
func FuzzLagRegressorMatchesReference(f *testing.F) {
	negZero := math.Copysign(0, -1)
	repeat := func(v float64, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	wave := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = 0.5 + 0.25*math.Sin(float64(i))
		}
		return out
	}
	const ar3, ar8, ridge = 2, 7, 8 // family selectors
	f.Add(rawFloats(repeat(negZero, 30)...), uint8(ridge), uint8(4), uint8(3))
	f.Add(rawFloats(repeat(negZero, 12)...), uint8(ar3), uint8(2), uint8(3))
	// −0s ending in −5e-324, the subnormal nearest zero: the solve's
	// intercept underflows to −0, where ar's forecast sum, started at the
	// intercept, and lagged-ridge's, started at +0, part.
	f.Add(rawFloats(append(repeat(negZero, 23), -5e-324)...), uint8(ridge), uint8(0), uint8(2))
	f.Add(rawFloats(append(repeat(negZero, 9), -5e-324)...), uint8(ar3), uint8(0), uint8(2))
	// Exactly MinObservations long.
	f.Add(rawFloats(wave(10)...), uint8(ar8), uint8(0), uint8(4))
	f.Add(rawFloats(wave(18)...), uint8(ridge), uint8(0), uint8(4))
	// 2000 values at 100: ar's absolute jitter is lost in XᵀX's diagonal and
	// both sides fail to factor; lagged-ridge's penalty still holds.
	f.Add(rawFloats(repeat(100, 2000)...), uint8(ar3), uint8(0), uint8(1))
	f.Add(rawFloats(repeat(100, 2000)...), uint8(ridge), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, family, updates, horizon uint8) {
		var series []float64
		for ; len(data) >= 8 && len(series) < 2048; data = data[8:] {
			series = append(series, inBand(math.Float64frombits(binary.LittleEndian.Uint64(data))))
		}
		var ref, got Model
		var refCoef func() []float64
		if p := int(family%9) + 1; p <= 8 {
			a, _ := refNewAR(p)
			ref, refCoef = a, func() []float64 { return a.coef }
			got, _ = NewAR(p)
		} else {
			m, _ := refNewLaggedRidge(0, 0, 0)
			ref, refCoef = m, func() []float64 { return m.coef }
			got = NewLaggedRidge()
		}
		fit := len(series) - min(int(updates%32), len(series))
		h := 1 + int(horizon%16)
		label := fmt.Sprintf("%s n=%d updates=%d h=%d", ref.Name(), fit, len(series)-fit, h)
		if got.Name() != ref.Name() {
			t.Fatalf("%s: Name %q", label, got.Name())
		}
		if g, w := got.(minObserver).MinObservations(), ref.(minObserver).MinObservations(); g != w {
			t.Fatalf("%s: MinObservations %d, reference %d", label, g, w)
		}
		if gotErr, refErr := got.Fit(series[:fit]), ref.Fit(series[:fit]); !sameFailure(gotErr, refErr) {
			t.Fatalf("%s: Fit error %v, reference %v", label, gotErr, refErr)
		}
		if g, w := got.(*lagRegressor).coef, refCoef(); !equalBits(g, w) {
			t.Fatalf("%s: coefficients %v, reference %v", label, g, w)
		}
		for _, y := range series[fit:] {
			got.Update(y)
			ref.Update(y)
		}
		gf, gotErr := got.Forecast(h)
		rf, refErr := ref.Forecast(h)
		if !sameFailure(gotErr, refErr) {
			t.Fatalf("%s: Forecast error %v, reference %v", label, gotErr, refErr)
		}
		if !equalBits(gf, rf) {
			t.Fatalf("%s: forecast %v, reference %v", label, gf, rf)
		}
	})
}
