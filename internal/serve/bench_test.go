package serve

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/transport"
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

// BenchmarkStoreStepperTick measures one warm StoreStepper.Tick — the store
// read, the step's rows and flags, and core's StepArrivals on them — at
// d = 2, K = 3 with 30 % of the fleet's entries written between ticks (the
// agents' budget B = 0.3), and reports ns/node. The writes run with the
// timer stopped: they are the ingest side's cost, not the tick's.
func BenchmarkStoreStepperTick(b *testing.B) {
	for _, nodes := range []int{4096, 32768} {
		b.Run("N="+strconv.Itoa(nodes), func(b *testing.B) {
			store := transport.NewStore()
			stepper, err := NewStoreStepper(store, core.Config{
				Nodes: nodes, Resources: 2, K: 3, InitialCollection: 20, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			step := 0
			write := func() {
				step++
				for id := 0; id < nodes; id++ {
					if step == 1 || (id*7+step)%10 < 3 {
						v := 0.1 + 0.8*float64((id*13+step)%97)/97
						store.Apply(transport.Measurement{Node: id, Step: step, Values: []float64{v, 1 - v}})
					}
				}
			}
			tick := func() {
				if _, ok, err := stepper.Tick(); err != nil || !ok {
					b.Fatalf("tick %d: ok=%v err=%v", step, ok, err)
				}
			}
			for step < 25 {
				write()
				tick()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				write()
				b.StartTimer()
				tick()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes), "ns/node")
		})
	}
}
