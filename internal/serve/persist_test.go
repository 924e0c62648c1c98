package serve

import (
	"encoding/json"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/persist"
	"orcf/internal/transport"
)

// stepperEnv is one store+stepper+manager stack over a temp state dir.
type stepperEnv struct {
	store   *transport.Store
	stepper *StoreStepper
	mgr     *persist.Manager
}

func stepperConfig() core.Config {
	return core.Config{
		Nodes:             6,
		Resources:         2,
		K:                 2,
		MPrime:            3,
		InitialCollection: 12,
		RetrainEvery:      8,
		Seed:              3,
		SnapshotHorizon:   4,
	}
}

func newStepperEnv(t *testing.T, dir string) *stepperEnv {
	t.Helper()
	cfg := stepperConfig()
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, cfg)
	if err != nil {
		t.Fatalf("stepper: %v", err)
	}
	mgr, err := persist.New(stepper.System(), cfg, persist.Options{Dir: dir, CheckpointEvery: 7})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	info, err := mgr.Recover(nil)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.Steps != stepper.System().Steps() {
		t.Fatalf("recovery info steps %d, system at %d", info.Steps, stepper.System().Steps())
	}
	// Stop the background checkpointer before TempDir removes dir under it
	// (cleanups run last-registered first, and dir was made before this).
	t.Cleanup(func() { _ = mgr.Close() })
	stepper.SetLog(mgr)
	return &stepperEnv{store: store, stepper: stepper, mgr: mgr}
}

// feed applies one tick's worth of arrivals: nodes for which the seeded RNG
// decides "arrive" get a fresh measurement at agent step `tick`; the rest
// keep their stale store entry. With all=true every node reports — the
// first tick, and the reconnect burst after a collector restart.
func (e *stepperEnv) feed(t *testing.T, tick int, all bool) {
	t.Helper()
	cfg := stepperConfig()
	rng := rand.New(rand.NewPCG(17, uint64(tick)))
	for i := 0; i < cfg.Nodes; i++ {
		if !all && rng.Float64() > 0.6 {
			continue
		}
		vals := make([]float64, cfg.Resources)
		for d := range vals {
			vals[d] = 0.5 + 0.4*math.Sin(float64(tick)*0.23+float64(i*3+d))
		}
		e.store.Apply(transport.Measurement{Node: i, Step: tick, Values: vals})
	}
}

func (e *stepperEnv) tick(t *testing.T, tick int) {
	t.Helper()
	e.feed(t, tick, tick == 1)
	if _, ok, err := e.stepper.Tick(); err != nil || !ok {
		t.Fatalf("tick %d: ok=%v err=%v", tick, ok, err)
	}
}

// TestStoreStepperPersistRecovery proves the distributed path round-trips:
// arrival patterns (which drive eq. 5 frequency accounting) are recorded in
// the WAL and replayed through System.StepArrivals, so a collector that
// crashes without a final checkpoint recovers bit-identical frequencies,
// memberships, and forecasts at the crash point. (Continuation equality
// past the crash is the core.System property — the transport store itself
// is ephemeral network state that agents repopulate on reconnect.)
func TestStoreStepperPersistRecovery(t *testing.T) {
	t.Parallel()
	const total, crash = 30, 19
	cfg := stepperConfig()

	ref := newStepperEnv(t, t.TempDir())
	var refFreqAtCrash []float64
	var refForecastAtCrash [][][]float64
	for i := 1; i <= total; i++ {
		ref.tick(t, i)
		if i == crash {
			for n := 0; n < cfg.Nodes; n++ {
				refFreqAtCrash = append(refFreqAtCrash, ref.stepper.System().Frequency(n))
			}
			f, err := ref.stepper.System().Forecast(3)
			if err != nil {
				t.Fatalf("ref forecast at crash: %v", err)
			}
			refForecastAtCrash = f
		}
	}

	dir := t.TempDir()
	crashed := newStepperEnv(t, dir)
	for i := 1; i <= crash; i++ {
		crashed.tick(t, i)
	}
	// Crash: no checkpoint, no close. Recovery replays the WAL through
	// core.System.Reapply, re-feeding the arrival flags.
	rec := newStepperEnv(t, dir)
	sys := rec.stepper.System()
	if got := sys.Steps(); got != crash {
		t.Fatalf("recovered to step %d, want %d", got, crash)
	}
	for n := 0; n < cfg.Nodes; n++ {
		if sys.Frequency(n) != refFreqAtCrash[n] {
			t.Fatalf("node %d recovered frequency %v, want %v", n, sys.Frequency(n), refFreqAtCrash[n])
		}
	}
	got, err := sys.Forecast(3)
	if err != nil {
		t.Fatalf("recovered forecast: %v", err)
	}
	if !reflect.DeepEqual(got, refForecastAtCrash) {
		t.Fatal("recovered forecast diverges from uninterrupted run at the crash point")
	}

	// The recovered collector keeps serving: agents reconnect (the empty
	// store repopulates on the first post-restart tick) and ticking resumes
	// from the recovered state.
	for i := crash + 1; i <= total; i++ {
		rec.feed(t, i, i == crash+1)
		if _, ok, err := rec.stepper.Tick(); err != nil || !ok {
			t.Fatalf("post-recovery tick %d: ok=%v err=%v", i, ok, err)
		}
	}
	if sys.Steps() != total {
		t.Fatalf("continued to step %d, want %d", sys.Steps(), total)
	}
}

// TestStatsReportPersist checks the /v1/stats persist block and the
// /metrics checkpoint gauges appear when a durability plane is attached.
func TestStatsReportPersist(t *testing.T) {
	t.Parallel()
	env := newStepperEnv(t, t.TempDir())
	for i := 1; i <= 14; i++ {
		env.tick(t, i)
	}
	if err := env.mgr.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}

	srv, err := New(Config{
		Source: env.stepper.System(),
		PersistStats: func() PersistStats {
			st := env.mgr.Stats()
			age := -1.0
			if !st.LastCheckpointTime.IsZero() {
				age = 0 // deterministic for the assertion below
			}
			return PersistStats{
				LastCheckpointStep:       st.LastCheckpointStep,
				LastCheckpointAgeSeconds: age,
				LastCheckpointSeconds:    Finite64(st.LastCheckpointDuration.Seconds()),
				Checkpoints:              st.Checkpoints,
				CheckpointErrors:         st.CheckpointErrors,
				CheckpointSecondsTotal:   Finite64(st.CheckpointTime.Seconds()),
				WALRecords:               st.WALRecords,
				WALBytes:                 st.WALBytes,
				WALAppendSecondsTotal:    Finite64(st.WALAppendTime.Seconds()),
				RecoveredStep:            st.RecoveredStep,
				ReplayedSteps:            st.ReplayedSteps,
			}
		},
	})
	if err != nil {
		t.Fatalf("server: %v", err)
	}

	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	var resp StatsResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &resp); err != nil {
		t.Fatalf("stats json: %v", err)
	}
	if resp.Persist == nil {
		t.Fatal("stats response has no persist block")
	}
	if resp.Persist.LastCheckpointStep != 14 || resp.Persist.WALRecords != 14 || resp.Persist.Checkpoints < 1 {
		t.Fatalf("persist stats = %+v", resp.Persist)
	}
	if resp.Persist.WALAppendSecondsTotal <= 0 || resp.Persist.CheckpointSecondsTotal <= 0 ||
		resp.Persist.LastCheckpointSeconds <= 0 {
		t.Fatalf("persist duration stats not flowing: %+v", resp.Persist)
	}

	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	body := rr.Body.String()
	for _, metric := range []string{
		"orcf_checkpoints_total", "orcf_last_checkpoint_step 14",
		"orcf_wal_records_total 14", "orcf_recovered_step 0",
		"orcf_last_checkpoint_seconds", "orcf_checkpoint_seconds_total",
		"orcf_wal_append_seconds_total",
	} {
		if !strings.Contains(body, metric) {
			t.Fatalf("metrics output missing %q:\n%s", metric, body)
		}
	}
}

// TestStatsOmitPersistWhenDetached pins the nil-config behaviour: no
// persist block, no checkpoint metrics.
func TestStatsOmitPersistWhenDetached(t *testing.T) {
	t.Parallel()
	srv, err := New(Config{Source: SourceFunc(func() *core.Snapshot { return nil })})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/stats", nil))
	if strings.Contains(rr.Body.String(), "persist") {
		t.Fatalf("detached stats mention persist: %s", rr.Body.String())
	}
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if strings.Contains(rr.Body.String(), "orcf_checkpoints_total") {
		t.Fatal("detached metrics report checkpoint counters")
	}
}
