package serve

import (
	"math"
	"strconv"
)

// statsResponse mimics a wire-facing response type: json tags mark it as a
// marshaling sink.
type statsResponse struct {
	Mean  float64   `json:"mean"`
	Row   []float64 `json:"row"`
	Count int       `json:"count"`
}

// internalStats has no json tags: it never reaches the encoder, so floats
// may flow in unguarded.
type internalStats struct {
	mean float64
}

// Finite64 is the guard by naming convention.
func Finite64(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// FiniteRow guards a slice.
func FiniteRow(vs []float64) []float64 {
	for i, v := range vs {
		vs[i] = Finite64(v)
	}
	return vs
}

func buildBad(mean float64, row []float64) statsResponse {
	return statsResponse{
		Mean: mean, // want "unguarded float in JSON field statsResponse.Mean"
		Row:  row,  // want "unguarded float in JSON field statsResponse.Row"
	}
}

func assignBad(r *statsResponse, mean float64) {
	r.Mean = mean // want "unguarded float assigned to JSON field statsResponse.Mean"
}

func buildGood(mean float64, row []float64, n int) statsResponse {
	r := statsResponse{
		Mean:  Finite64(mean),
		Row:   FiniteRow(row),
		Count: n,
	}
	r.Mean = 1.5        // constant: cannot be NaN
	r.Mean = float64(n) // integer conversion: cannot be NaN
	r.Row = nil
	r.Row = make([]float64, n)
	return r
}

func untagged(s *internalStats, v float64) {
	s.mean = v
}

// appendGood formats floats straight into a response body, bypassing struct
// fields: every AppendFloat operand is a Finite* call or a local that only
// ever held one.
func appendGood(b []byte, v float64) []byte {
	f := Finite64(v)
	b = strconv.AppendFloat(b, f, 'f', -1, 64)
	b = strconv.AppendFloat(b, 0.5, 'f', -1, 64)
	return strconv.AppendFloat(b, Finite64(v), 'e', -1, 64)
}

// appendBad lets a raw float reach the body: as a parameter, and through a
// local that was guarded once and then reassigned.
func appendBad(b []byte, v float64) []byte {
	f := Finite64(v)
	f = v * 2
	b = strconv.AppendFloat(b, f, 'f', -1, 64)    // want "unguarded float formatted by strconv.AppendFloat"
	return strconv.AppendFloat(b, v, 'f', -1, 64) // want "unguarded float formatted by strconv.AppendFloat"
}
