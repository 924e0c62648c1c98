package serve

import (
	"net/http"
	"net/http/httptest"
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
