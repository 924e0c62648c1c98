package serve

import "math"

// The Finite* helpers are the serving plane's last-resort fence against
// NaN/±Inf reaching encoding/json: the encoder rejects non-finite floats with
// an error that writeJSON cannot surface mid-body, so one stray NaN turns a
// 200 into a truncated response (the PR 5 bug class). The primary defense is
// upstream — the ingest plane rejects non-finite measurements before they
// enter the pipeline — so these guards are belt-and-braces: they return their
// input unchanged (no allocation) when it is already finite, and otherwise a
// copy with non-finite values replaced by zero. They never mutate their
// argument; response paths often hold snapshot-owned slices, which are
// frozen. The nanjson analyzer requires every float reaching a JSON response
// field to pass through one of them.

// Finite64 returns v, or 0 when v is NaN or ±Inf.
func Finite64(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FiniteRow returns vs unchanged when every element is finite, otherwise a
// copy with non-finite elements zeroed.
func FiniteRow(vs []float64) []float64 {
	for i, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out := append([]float64(nil), vs...)
			for j := i; j < len(out); j++ {
				out[j] = Finite64(out[j])
			}
			return out
		}
	}
	return vs
}

// FiniteRows applies FiniteRow to every row, copying the outer slice only
// when some row needed repair.
func FiniteRows(rows [][]float64) [][]float64 {
	for i, row := range rows {
		fixed := FiniteRow(row)
		if len(row) == 0 || &fixed[0] == &row[0] {
			continue
		}
		out := append([][]float64(nil), rows...)
		out[i] = fixed
		for j := i + 1; j < len(out); j++ {
			out[j] = FiniteRow(out[j])
		}
		return out
	}
	return rows
}
