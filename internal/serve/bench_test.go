package serve

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"orcf/internal/forecast"
)

// discardWriter is a ResponseWriter that counts nothing and keeps nothing,
// so the benchmark measures the handler and not a recorder's buffer growth.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkServeForecast measures /v1/forecast through ServeHTTP at the
// ingest_serve fleet size: "node" is one ?node=I request (a row lookup on
// the published plan, whatever N is), "fleet" one fleet request (the body
// streamed from the published plan) under sample-and-hold, whose horizons
// after the first repeat it, and "fleet-holt" the same under holt, where no
// horizon repeats and every value is formatted.
func BenchmarkServeForecast(b *testing.B) {
	const (
		nodes   = 4096
		horizon = 12
	)
	w := &discardWriter{header: make(http.Header)}
	nodeReq := httptest.NewRequest(http.MethodGet, "/v1/forecast?h=12&node=2048", nil)
	fleetReq := httptest.NewRequest(http.MethodGet, "/v1/forecast?h=5", nil)
	for _, bc := range []struct {
		name string
		zoo  []forecast.Candidate
		req  *http.Request
	}{
		{"node", nil, nodeReq},
		{"fleet", nil, fleetReq},
		{"fleet-holt", holtZoo, fleetReq},
	} {
		sys, _ := zooSystem(b, bc.zoo, nodes, horizon, 25)
		srv, err := New(Config{Source: sys})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				srv.ServeHTTP(w, bc.req)
			}
		})
	}
}

// BenchmarkAppendJSONFloat formats the values of one ingest_serve-sized
// fleet body (N = 4096, h = 5, d = 2: 40 960 utilisations) with the generic
// strconv path the writer bypasses for served values and with
// appendJSONFloat, and reports ns/value. The plain cases format values
// seeded uniform in [0.1, 0.9); the plan- cases format the rows a published
// plan serves, whose digit counts and clamped 0s and 1s are the body's own.
func BenchmarkAppendJSONFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(4096, 5))
	uniform := make([]float64, 40960)
	for i := range uniform {
		uniform[i] = 0.1 + 0.8*rng.Float64()
	}
	sys, _ := readySystem(b, 4096, 5, 25)
	plan := sys.Snapshot().Plan()
	served, row := make([]float64, 0, 40960), make([]float64, 2)
	for hi := 0; hi < 5; hi++ {
		for slot := 0; slot < 4096; slot++ {
			served = append(served, plan.Row(slot, hi, row)...)
		}
	}
	buf := make([]byte, 0, 32*len(uniform))
	for _, bc := range []struct {
		name   string
		vals   []float64
		append func([]byte, float64) []byte
	}{
		{"strconv", uniform, func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', -1, 64) }},
		{"writer", uniform, appendJSONFloat},
		{"plan-strconv", served, func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', -1, 64) }},
		{"plan-writer", served, appendJSONFloat},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				buf = buf[:0]
				for _, v := range bc.vals {
					buf = bc.append(buf, v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(bc.vals)), "ns/value")
		})
	}
}
