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
