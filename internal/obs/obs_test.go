package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestCounterGaugeBasics exercises the scalar instruments' contracts.
func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	var g Gauge
	g.Add(2.5)
	g.Add(-1)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}
	g.Add(nan())
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge after NaN Add = %v, want 1.5 (NaN dropped)", got)
	}
}

func nan() float64 {
	z := 0.0
	return z / z
}

// TestDuplicateRegistrationPanics pins the startup-time wiring check.
func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.Counter("orcf_test_total", "h", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("orcf_test_total", "h", func() float64 { return 0 })
}

// TestConcurrentWritersVsExposition hammers every instrument type from many
// goroutines while exposition and JSON snapshots run concurrently; under
// -race this is the registry's central safety claim.
func TestConcurrentWritersVsExposition(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.Counter("orcf_c_total", "counter under fire", &c)
	r.Gauge("orcf_g", "gauge under fire", &g)
	h := r.NewHistogram("orcf_h_seconds", "histogram under fire", DefBuckets)

	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(seed*perWriter+i) / float64(writers*perWriter))
			}
		}(w)
	}
	for rdr := 0; rdr < 4; rdr++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if len(r.Snapshot()) != 3 {
					t.Error("snapshot lost a series")
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	if got := h.count.Load(); got != writers*perWriter {
		t.Fatalf("histogram count = %d, want %d", got, writers*perWriter)
	}
}

// TestOnCollectRunsBeforeReads pins the snapshot-consistency hook: every
// func series must observe the state staged by the hook in the same pass.
func TestOnCollectRunsBeforeReads(t *testing.T) {
	r := NewRegistry()
	staged := 0.0
	tick := 0.0
	r.OnCollect(func() { tick++; staged = tick })
	r.GaugeFunc("orcf_a", "reads staged", func() float64 { return staged })
	r.GaugeFunc("orcf_b", "reads staged too", func() float64 { return staged })

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "orcf_a 1\n") || !strings.Contains(out, "orcf_b 1\n") {
		t.Fatalf("hook did not stage before reads:\n%s", out)
	}
	pts := r.Snapshot()
	for _, p := range pts {
		if p.Value != 2 {
			t.Fatalf("second pass: %s = %v, want 2", p.Name, p.Value)
		}
	}
}

// TestRegisterBuildInfo pins the restart-detection series and their
// idempotent registration.
func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry()
	RegisterBuildInfo(r)
	RegisterBuildInfo(r) // second call must be a no-op, not a dup panic
	_, info := r.names["orcf_build_info"]
	_, uptime := r.names["orcf_uptime_seconds"]
	if !info || !uptime {
		t.Fatal("build info series missing")
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, `orcf_build_info{version="`) ||
		!strings.Contains(out, `,go="go`) {
		t.Fatalf("build_info labels malformed:\n%s", out)
	}
}

// TestDebugMux drives every opt-in debug endpoint through the mux.
func TestDebugMux(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	r.Counter("orcf_mux_total", "mux test", &c)
	h := r.NewHistogram("orcf_mux_seconds", "mux histogram", []float64{1, 2})
	h.Observe(1.5)
	mux := DebugMux(r)

	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/debug/obs", "/metrics"} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 200 {
			t.Fatalf("%s -> %d", path, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/obs", nil))
	var pts []Point
	if err := json.Unmarshal(rec.Body.Bytes(), &pts); err != nil {
		t.Fatalf("/debug/obs not JSON: %v", err)
	}
	if len(pts) != 2 {
		t.Fatalf("/debug/obs has %d points, want 2", len(pts))
	}
	byName := map[string]Point{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	if byName["orcf_mux_total"].Value != 3 {
		t.Fatalf("counter point = %+v", byName["orcf_mux_total"])
	}
	hp := byName["orcf_mux_seconds"]
	if hp.Count != 1 || hp.Sum != 1.5 || len(hp.Buckets) != 3 ||
		hp.Buckets[0].Count != 0 || hp.Buckets[1].Count != 1 ||
		hp.Buckets[2].Le != "+Inf" || hp.Buckets[2].Count != 1 {
		t.Fatalf("histogram point = %+v", hp)
	}
}
