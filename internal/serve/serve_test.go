package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

func alwaysPolicy(int) (transmit.Policy, error) { return transmit.Always{}, nil }

// testStep returns deterministic two-resource measurements for a step: two
// utilization groups with small per-(step,node) wobble.
func testStep(rng *rand.Rand, n int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		level := 0.2
		if i >= n/2 {
			level = 0.8
		}
		x[i] = []float64{
			math.Min(1, math.Max(0, level+0.04*rng.NormFloat64())),
			math.Min(1, math.Max(0, 1-level+0.04*rng.NormFloat64())),
		}
	}
	return x
}

// readySystem builds a snapshot-publishing system stepped past its initial
// collection phase.
func readySystem(t testing.TB, nodes, horizon, steps int) (*core.System, *rand.Rand) {
	t.Helper()
	return zooSystem(t, nil, nodes, horizon, steps)
}

// zooSystem is readySystem forecasting with zoo (nil: the sample-and-hold
// default).
func zooSystem(t testing.TB, zoo []forecast.Candidate, nodes, horizon, steps int) (*core.System, *rand.Rand) {
	t.Helper()
	cfg := core.Config{
		Nodes: nodes, Resources: 2, K: 3, InitialCollection: 20, RetrainEvery: 25,
		MPrime: 3, Policy: alwaysPolicy, Seed: 42, SnapshotHorizon: horizon, Zoo: zoo,
	}
	s, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < steps; i++ {
		if _, err := s.Step(testStep(rng, nodes)); err != nil {
			t.Fatal(err)
		}
	}
	return s, rng
}

// setMaxProcs sets GOMAXPROCS — the width of the snapshots' fleet plan
// build, of the server's body formatting and of every other pool — to n
// until the test ends. A test that calls it must not be parallel.
func setMaxProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func get(t *testing.T, srv *Server, path string, wantCode int, out any) {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != wantCode {
		t.Fatalf("GET %s: code %d (%s), want %d", path, rec.Code, rec.Body.String(), wantCode)
	}
	if out != nil {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", path, rec.Body.String(), err)
		}
	}
}

func TestServerValidation(t *testing.T) {
	t.Parallel()
	if _, err := New(Config{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil source: want ErrBadConfig, got %v", err)
	}
	src := SourceFunc(func() *core.Snapshot { return nil })
	if _, err := New(Config{Source: src, MaxInFlight: -1}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative limit: want ErrBadConfig, got %v", err)
	}
}

func TestServerNoSnapshotYet(t *testing.T) {
	t.Parallel()
	srv, err := New(Config{Source: SourceFunc(func() *core.Snapshot { return nil })})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/v1/forecast", "/v1/nodes/0", "/v1/clusters"} {
		get(t, srv, path, http.StatusServiceUnavailable, nil)
	}
	// Stats and metrics still serve (zero-valued pipeline section).
	var st StatsResponse
	get(t, srv, "/v1/stats", http.StatusOK, &st)
	if st.Ready || st.Nodes != 0 {
		t.Fatalf("empty stats expected, got %+v", st)
	}
	get(t, srv, "/metrics", http.StatusOK, nil)
}

func TestServerNotReadyYet(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 8, 6, 5) // 5 < InitialCollection: not trained
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/forecast?h=2", http.StatusServiceUnavailable, nil)
	// Non-forecast endpoints work before training.
	var nr NodeResponse
	get(t, srv, "/v1/nodes/3", http.StatusOK, &nr)
	if nr.Node != 3 || len(nr.Measurement) != 2 || len(nr.Clusters) != 2 {
		t.Fatalf("node response %+v", nr)
	}
}

func TestForecastEndpointMatchesSystemForecast(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 10, 6, 30)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	var resp ForecastResponse
	get(t, srv, "/v1/forecast?h=4", http.StatusOK, &resp)
	if resp.Horizon != 4 || resp.Generation != sys.Snapshot().Generation() {
		t.Fatalf("response meta %+v", resp)
	}
	if len(resp.Forecast) != 4 || len(resp.Forecast[0]) != 10 || len(resp.Forecast[0][0]) != 2 {
		t.Fatalf("forecast shape [%d][%d][%d]", len(resp.Forecast), len(resp.Forecast[0]), len(resp.Forecast[0][0]))
	}
	for hi := range direct {
		for i := range direct[hi] {
			for d := range direct[hi][i] {
				if direct[hi][i][d] != resp.Forecast[hi][i][d] {
					t.Fatalf("served [%d][%d][%d]=%v, System.Forecast says %v",
						hi, i, d, resp.Forecast[hi][i][d], direct[hi][i][d])
				}
			}
		}
	}

	// The single-node filter reads the same forecast off that node alone.
	var one ForecastResponse
	get(t, srv, "/v1/forecast?h=4&node=7", http.StatusOK, &one)
	if one.Node == nil || *one.Node != 7 || len(one.Forecast[0]) != 1 {
		t.Fatalf("node filter response %+v", one)
	}
	for hi := range direct {
		for d := range direct[hi][7] {
			if one.Forecast[hi][0][d] != direct[hi][7][d] {
				t.Fatalf("node filter mismatch at h=%d d=%d", hi, d)
			}
		}
	}
}

func TestForecastValidation(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 8, 6, 30)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/forecast?h=nope", http.StatusBadRequest, nil)
	get(t, srv, "/v1/forecast?h=0", http.StatusBadRequest, nil)
	get(t, srv, "/v1/forecast?h=7", http.StatusBadRequest, nil) // over the snapshot's horizon 6
	get(t, srv, "/v1/forecast?h=6", http.StatusOK, nil)
	get(t, srv, "/v1/forecast?h=2&node=99", http.StatusNotFound, nil)
	get(t, srv, "/v1/forecast?h=2&node=x", http.StatusBadRequest, nil)
	get(t, srv, "/v1/nodes/99", http.StatusNotFound, nil)
	get(t, srv, "/v1/nodes/abc", http.StatusNotFound, nil)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/forecast", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: code %d, want 405", rec.Code)
	}
}

func TestClustersAndStatsAndMetrics(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 8, 6, 30)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	var cl ClustersResponse
	get(t, srv, "/v1/clusters", http.StatusOK, &cl)
	if len(cl.Trackers) != 2 || len(cl.Trackers[0].Centroids) != 3 {
		t.Fatalf("clusters response %+v", cl)
	}
	for _, c := range cl.Trackers[0].Centroids {
		if len(c) != 1 {
			t.Fatalf("scalar tracker centroid dim %d", len(c))
		}
	}

	get(t, srv, "/v1/forecast?h=3", http.StatusOK, nil)
	get(t, srv, "/v1/forecast?h=3", http.StatusOK, nil)

	var st StatsResponse
	get(t, srv, "/v1/stats", http.StatusOK, &st)
	if !st.Ready || st.Nodes != 8 || st.Resources != 2 || st.Clusters != 3 {
		t.Fatalf("stats %+v", st)
	}
	if st.Step != 30 || st.Generation != 30 {
		t.Fatalf("stats step/gen %+v", st)
	}
	if st.Cache.Hits != 2 || st.Cache.Misses != 0 || st.Cache.HitRatio != 1 {
		t.Fatalf("cache stats %+v after two fleet queries", st.Cache)
	}
	if st.MeanFrequency <= 0 || st.TrainingRuns < 1 {
		t.Fatalf("pipeline stats %+v", st)
	}

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, name := range []string{
		"orcf_steps_total 30", "orcf_ready 1", "orcf_nodes 8",
		"orcf_forecast_cache_hits_total 2",
		"orcf_http_requests_total", "orcf_mean_transmit_frequency",
	} {
		if !strings.Contains(body, name) {
			t.Fatalf("metrics output missing %q:\n%s", name, body)
		}
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
}

func TestConcurrencyLimitRejects(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 8, 6, 30)
	srv, err := New(Config{Source: sys, MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Occupy both slots, then every request must be rejected with 503.
	srv.sem <- struct{}{}
	srv.sem <- struct{}{}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("saturated: code %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("rejection must carry Retry-After")
	}
	<-srv.sem
	<-srv.sem
	var st StatsResponse
	get(t, srv, "/v1/stats", http.StatusOK, &st)
	if st.Requests.Rejected != 1 {
		t.Fatalf("rejected=%d, want 1", st.Requests.Rejected)
	}
}

// TestConcurrentQueriesWhileStepping is the acceptance scenario: ≥64 reader
// goroutines hammer every endpoint while the ingest loop keeps stepping the
// system. Run under -race this proves snapshot isolation (and that the
// published plan is safely shared); afterwards the plan counter must show
// every fleet query served from its generation's published plan. Not
// parallel: it runs at GOMAXPROCS 2 at least, so the steps fan out.
func TestConcurrentQueriesWhileStepping(t *testing.T) {
	setMaxProcs(t, max(2, runtime.GOMAXPROCS(0)))
	const nodes = 16
	sys, rng := readySystem(t, nodes, 6, 25)
	srv, err := New(Config{Source: sys, MaxInFlight: 1024})
	if err != nil {
		t.Fatal(err)
	}

	// The ingest loop steps concurrently with the readers; a tiny pause per
	// step keeps generations alive long enough for repeat queries even on a
	// single CPU.
	var stepWG sync.WaitGroup
	stepWG.Add(1)
	done := make(chan struct{})
	go func() {
		defer stepWG.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := sys.Step(testStep(rng, nodes)); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < 64; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			paths := []string{
				fmt.Sprintf("/v1/forecast?h=%d", 1+g%6),
				fmt.Sprintf("/v1/forecast?h=%d&node=%d", 1+g%6, g%nodes),
				fmt.Sprintf("/v1/nodes/%d", g%nodes),
				"/v1/clusters",
				"/v1/stats",
				"/metrics",
			}
			for i := 0; i < 24; i++ {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, paths[i%len(paths)], nil))
				if rec.Code != http.StatusOK {
					t.Errorf("goroutine %d: %s → %d (%s)", g, paths[i%len(paths)], rec.Code, rec.Body.String())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	stepWG.Wait()

	st := srv.Stats()
	if st.Cache.Hits == 0 || st.Cache.Misses != 0 || st.Cache.HitRatio != 1 {
		t.Fatalf("cache stats %+v under concurrent fleet queries, want hits only", st.Cache)
	}
}
