package serve

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/obs"
)

// pinnedSeries is the /metrics naming contract. The names and kinds above the
// blank-line groups predate the registry migration — scrape configs and
// dashboards depend on them — so renaming or re-typing any of them is a
// breaking change this test exists to catch.
var pinnedSeries = []struct{ name, kind string }{
	// Pipeline series (pre-registry contract).
	{"orcf_steps_total", "counter"},
	{"orcf_snapshot_generation", "gauge"},
	{"orcf_ready", "gauge"},
	{"orcf_nodes", "gauge"},
	{"orcf_fleet_slots", "gauge"},
	{"orcf_node_evictions_total", "counter"},
	{"orcf_mean_transmit_frequency", "gauge"},
	{"orcf_training_runs_total", "counter"},
	{"orcf_training_seconds_total", "counter"},
	{"orcf_forecast_cache_hits_total", "counter"},
	{"orcf_http_requests_total", "counter"},
	{"orcf_http_requests_rejected_total", "counter"},

	// Model-zoo selection (always registered; zero for single-family runs).
	{"orcf_forecast_candidates", "gauge"},
	{"orcf_forecast_champion_switches_total", "counter"},
	{"orcf_forecast_evaluations_total", "counter"},

	// Persistence series (pre-registry contract).
	{"orcf_checkpoints_total", "counter"},
	{"orcf_checkpoint_errors_total", "counter"},
	{"orcf_last_checkpoint_step", "gauge"},
	{"orcf_last_checkpoint_age_seconds", "gauge"},
	{"orcf_wal_records_total", "counter"},
	{"orcf_wal_bytes_total", "counter"},
	{"orcf_recovered_step", "gauge"},
	{"orcf_replayed_steps", "gauge"},

	// Persistence durations.
	{"orcf_checkpoint_seconds_total", "counter"},
	{"orcf_last_checkpoint_seconds", "gauge"},
	{"orcf_wal_append_seconds_total", "counter"},

	// Process identity.
	{"orcf_build_info", "gauge"},
	{"orcf_uptime_seconds", "gauge"},

	// Per-endpoint request latency.
	{"orcf_http_forecast_seconds", "histogram"},
	{"orcf_http_node_seconds", "histogram"},
	{"orcf_http_clusters_seconds", "histogram"},
	{"orcf_http_models_seconds", "histogram"},
	{"orcf_http_stats_seconds", "histogram"},
	{"orcf_http_metrics_seconds", "histogram"},

	// Step sub-phase timing (via NewStepTimings on the shared registry).
	{"orcf_step_ingest_seconds", "histogram"},
	{"orcf_step_cluster_seconds", "histogram"},
	{"orcf_step_refit_seconds", "histogram"},
	{"orcf_step_forecast_seconds", "histogram"},
	{"orcf_step_publish_seconds", "histogram"},
}

// TestStepPhaseSeriesNames pins the literal step-phase series names (spelled
// out for the docscheck metric gate) to the StepPhase.String() convention.
func TestStepPhaseSeriesNames(t *testing.T) {
	t.Parallel()
	for p, name := range stepPhaseSeries {
		want := "orcf_step_" + core.StepPhase(p).String() + "_seconds"
		if name != want {
			t.Errorf("stepPhaseSeries[%d] = %q, want %q", p, name, want)
		}
	}
}

func TestMetricsSeriesNamesPinned(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	NewStepTimings(reg)
	srv, err := New(Config{
		Source:       SourceFunc(func() *core.Snapshot { return nil }),
		Registry:     reg,
		PersistStats: func() PersistStats { return PersistStats{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, s := range pinnedSeries {
		header := fmt.Sprintf("# TYPE %s %s\n", s.name, s.kind)
		if !strings.Contains(body, header) {
			t.Errorf("metrics output missing %q", strings.TrimSpace(header))
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestMetricsLiveStepping drives a real pipeline with the step-phase observer
// wired to the server's registry and checks the scrape shows stage-timing
// histograms filling alongside the pre-existing pipeline series.
func TestMetricsLiveStepping(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	timings := NewStepTimings(reg)
	sys, err := core.NewSystem(core.Config{
		Nodes: 8, Resources: 2, K: 3, InitialCollection: 20, RetrainEvery: 25,
		MPrime: 3, Policy: alwaysPolicy, Seed: 42, SnapshotHorizon: 6,
		PhaseObserver: timings,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	const steps = 30
	for i := 0; i < steps; i++ {
		if _, err := sys.Step(testStep(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	srv, err := New(Config{Source: sys, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/forecast?h=2", http.StatusOK, nil)

	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("orcf_steps_total %d\n", steps),
		fmt.Sprintf("orcf_step_ingest_seconds_count %d\n", steps),
		fmt.Sprintf("orcf_step_cluster_seconds_count %d\n", steps),
		fmt.Sprintf("orcf_step_publish_seconds_count %d\n", steps),
		"orcf_http_forecast_seconds_count 1\n",
		"orcf_ready 1\n",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("live scrape missing %q", strings.TrimSpace(want))
		}
	}
	// The fan-out phases did real work, so their histogram sums are nonzero.
	for _, phase := range []string{"cluster", "refit"} {
		if strings.Contains(body, "orcf_step_"+phase+"_seconds_sum 0\n") {
			t.Errorf("phase %s histogram sum is zero after %d steps", phase, steps)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

// TestMetricsSnapshotConsistency checks a scrape's generation and step come
// from one staged Stats: the step counter and snapshot generation must agree
// (they advance in lockstep under SnapshotHorizon > 0).
func TestMetricsSnapshotConsistency(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 8, 6, 25)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := rec.Body.String()
	if !strings.Contains(body, "orcf_steps_total 25\n") ||
		!strings.Contains(body, "orcf_snapshot_generation 25\n") {
		t.Fatalf("scrape mixes pipeline states:\n%s", body)
	}
}
