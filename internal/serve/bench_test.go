package serve

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// discardWriter is a ResponseWriter that counts nothing and keeps nothing,
// so the benchmark measures the handler and not a recorder's buffer growth.
type discardWriter struct{ header http.Header }

func (d *discardWriter) Header() http.Header         { return d.header }
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkServeForecast measures /v1/forecast through ServeHTTP at the
// ingest_serve fleet size: "node" is one ?node=I request (that node's
// look-back scan, whatever N is), "fleet-first" the first fleet request of a
// generation (builds the snapshot's forecast plan, then streams the body),
// "fleet-repeat" every later one (streams from the built plan).
func BenchmarkServeForecast(b *testing.B) {
	const (
		nodes   = 4096
		horizon = 12
	)
	sys, rng := readySystem(b, nodes, horizon, 25)
	srv, err := New(Config{Source: sys})
	if err != nil {
		b.Fatal(err)
	}
	w := &discardWriter{header: make(http.Header)}
	nodeReq := httptest.NewRequest(http.MethodGet, "/v1/forecast?h=12&node=2048", nil)
	fleetReq := httptest.NewRequest(http.MethodGet, "/v1/forecast?h=5", nil)

	b.Run("node", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			srv.ServeHTTP(w, nodeReq)
		}
	})
	b.Run("fleet-first", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if _, err := sys.Step(testStep(rng, nodes)); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			srv.ServeHTTP(w, fleetReq)
		}
	})
	b.Run("fleet-repeat", func(b *testing.B) {
		b.ReportAllocs()
		srv.ServeHTTP(w, fleetReq)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			srv.ServeHTTP(w, fleetReq)
		}
	})
}

// BenchmarkAppendJSONFloat formats the values of one ingest_serve fleet body
// (N = 4096, h = 5, d = 2: 40 960 utilisations, seeded uniform in [0.1, 0.9))
// with the generic strconv path the writer bypasses for served values and
// with appendJSONFloat, and reports ns/value.
func BenchmarkAppendJSONFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(4096, 5))
	vals := make([]float64, 40960)
	for i := range vals {
		vals[i] = 0.1 + 0.8*rng.Float64()
	}
	buf := make([]byte, 0, 32*len(vals))
	for _, bc := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{
		{"strconv", func(b []byte, v float64) []byte { return strconv.AppendFloat(b, v, 'f', -1, 64) }},
		{"writer", appendJSONFloat},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for b.Loop() {
				buf = buf[:0]
				for _, v := range vals {
					buf = bc.append(buf, v)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(vals)), "ns/value")
		})
	}
}
