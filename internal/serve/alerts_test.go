package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"orcf/internal/alert"
)

// TestAlertsOneEngineView serves /v1/alerts while one goroutine steps the
// pipeline and evaluates every snapshot, with the whole fleet swinging across
// the rules' thresholds each step so most evaluations fire or resolve many
// instances at once. Every response must be one view of the engine: as many
// firing instances listed as its stats count.
func TestAlertsOneEngineView(t *testing.T) {
	t.Parallel()
	const nodes = 24
	steps := 200
	if testing.Short() {
		steps = 80
	}
	sys, _ := readySystem(t, nodes, 4, 25)
	engine, err := alert.New(alert.Config{
		Rules: &alert.RuleSet{StepsPerHour: 1, Rules: []alert.Rule{
			{Name: "cluster-high", Kind: alert.KindThreshold, Scope: alert.ScopeCluster, Cluster: -1,
				Horizon: 1, Above: true, Threshold: 0.5, FireStreak: 1, ClearStreak: 1},
			{Name: "node-high", Kind: alert.KindThreshold, Scope: alert.ScopeNode,
				Horizon: 1, Above: true, Threshold: 0.5, FireStreak: 1, ClearStreak: 1},
		}},
		MaxHorizon: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: sys, Alerts: engine})
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for step := range steps {
			level := 0.1
			if step%2 == 0 {
				level = 0.9
			}
			x := make([][]float64, nodes)
			for i := range x {
				x[i] = []float64{level + 0.002*float64(i), level}
			}
			if _, err := sys.Step(x); err != nil {
				t.Error(err)
				return
			}
			if _, err := engine.Evaluate(sys.Snapshot()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var responses atomic.Int64
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/alerts", nil))
				var resp AlertsResponse
				if rec.Code != http.StatusOK {
					t.Errorf("GET /v1/alerts: code %d (%s)", rec.Code, rec.Body.String())
					return
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Error(err)
					return
				}
				if len(resp.Firing) != resp.Stats.Firing {
					t.Errorf("one response lists %d firing instances and counts %d", len(resp.Firing), resp.Stats.Firing)
					return
				}
				responses.Add(1)
			}
		}()
	}
	wg.Wait()
	if st := engine.Stats(); st.Fires < int64(steps/2) || responses.Load() == 0 {
		t.Fatalf("%d fires over %d steps, %d responses: the test did not exercise the race", st.Fires, steps, responses.Load())
	}
}

// TestRecommendationsValidation pins the ?h bounds of /v1/recommendations to
// those of /v1/forecast: a given h must lie in [1, the snapshot's horizon],
// and no h means horizon 1.
func TestRecommendationsValidation(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 8, 4, 30)
	engine, err := alert.New(alert.Config{
		Rules: &alert.RuleSet{StepsPerHour: 1, Rules: []alert.Rule{
			{Name: "cluster-high", Kind: alert.KindThreshold, Scope: alert.ScopeCluster, Cluster: -1,
				Horizon: 1, Above: true, Threshold: 0.5, FireStreak: 1, ClearStreak: 1},
		}},
		MaxHorizon: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: sys, Alerts: engine})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		query       string
		code, horiz int
	}{
		{"", http.StatusOK, 1},
		{"?h=1", http.StatusOK, 1},
		{"?h=4", http.StatusOK, 4},
		{"?h=0", http.StatusBadRequest, 0},
		{"?h=-1", http.StatusBadRequest, 0},
		{"?h=5", http.StatusBadRequest, 0},
		{"?h=nope", http.StatusBadRequest, 0},
	} {
		var resp RecommendationsResponse
		var out any
		if tc.code == http.StatusOK {
			out = &resp
		}
		get(t, srv, "/v1/recommendations"+tc.query, tc.code, out)
		if tc.code == http.StatusOK && (resp.Horizon != tc.horiz || len(resp.Recommendations) != 3) {
			t.Fatalf("%s: horizon %d with %d recommendations, want %d with 3", tc.query, resp.Horizon, len(resp.Recommendations), tc.horiz)
		}
	}
}
