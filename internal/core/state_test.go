package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// stateTestInput is a deterministic measurement waveform: the same (node,
// resource, step) always yields the same value, so an interrupted run can
// regenerate exactly the inputs an uninterrupted run saw.
func stateTestInput(nodes, resources, t int) [][]float64 {
	x := make([][]float64, nodes)
	for i := range x {
		x[i] = make([]float64, resources)
		for d := range x[i] {
			phase := float64(i*7+d*3) * 0.31
			v := 0.5 + 0.35*math.Sin(float64(t)*0.21+phase) + 0.1*math.Sin(float64(t)*0.037*float64(i+1))
			x[i][d] = math.Min(1, math.Max(0, v))
		}
	}
	return x
}

func stateTestConfig() Config {
	return Config{
		Nodes:             10,
		Resources:         2,
		K:                 3,
		MPrime:            3,
		InitialCollection: 20,
		RetrainEvery:      15,
		Seed:              7,
		SnapshotHorizon:   6,
		Zoo: forecast.Pinned(func() forecast.Model {
			m, err := forecast.NewSES(0.3)
			if err != nil {
				panic(err)
			}
			return m
		}),
	}
}

// stepObs is everything observable about one step that the bit-identity
// property compares.
type stepObs struct {
	Res      *StepResult
	Forecast [][][]float64
	Freq     []float64
	Gen      uint64
}

// cloneStepResult deep-copies a step result out of the System's buffers, for
// tests that keep results across later steps.
func cloneStepResult(res *StepResult) *StepResult {
	out := &StepResult{
		T:           res.T,
		Transmitted: slices.Clone(res.Transmitted),
		Present:     slices.Clone(res.Present),
		Evicted:     slices.Clone(res.Evicted),
		PerResource: make([]ResourceStep, len(res.PerResource)),
	}
	for tr, rs := range res.PerResource {
		out.PerResource[tr].Assignments = slices.Clone(rs.Assignments)
		out.PerResource[tr].Centroids = make([][]float64, len(rs.Centroids))
		for j, c := range rs.Centroids {
			out.PerResource[tr].Centroids[j] = slices.Clone(c)
		}
	}
	return out
}

func observeStep(t *testing.T, s *System, x [][]float64) stepObs {
	t.Helper()
	res, err := s.Step(x)
	if err != nil {
		t.Fatalf("step: %v", err)
	}
	obs := stepObs{Res: cloneStepResult(res)}
	if s.Ready() {
		f, err := s.Forecast(4)
		if err != nil {
			t.Fatalf("forecast: %v", err)
		}
		obs.Forecast = f
	}
	obs.Freq = make([]float64, len(x))
	for i := range x {
		obs.Freq[i] = s.Frequency(i)
	}
	if snap := s.Snapshot(); snap != nil {
		obs.Gen = snap.Generation()
	}
	return obs
}

// gobRoundTrip proves the State is serializable and strips any accidental
// memory sharing with the exporting system.
func gobRoundTrip(t *testing.T, st *State) *State {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	out := new(State)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// TestRestoreContinuesBitIdentically is the crash-consistency property: for
// random and hand-picked crash points (before/at/after initial training and
// retraining boundaries), exporting at step c, restoring into a fresh
// system, and continuing must reproduce the uninterrupted run's
// transmissions, clusterings, forecasts, frequencies, and snapshot
// generations bit-for-bit at every subsequent step.
func TestRestoreContinuesBitIdentically(t *testing.T) {
	t.Parallel()
	cfgs := map[string]Config{
		"ses-adaptive": stateTestConfig(),
		"joint-uniform": func() Config {
			cfg := stateTestConfig()
			cfg.JointClustering = true
			cfg.Policy = func(int) (transmit.Policy, error) { return transmit.NewUniform(0.4) }
			return cfg
		}(),
		"zoo": func() Config {
			cfg := stateTestConfig()
			zoo, err := forecast.Zoo("ses", "holt", "sample-and-hold")
			if err != nil {
				t.Fatal(err)
			}
			cfg.Zoo = zoo
			cfg.Selection = forecast.SelectionConfig{Window: 8, Streak: 2}
			return cfg
		}(),
		"current-step-only-fitwindow": func() Config {
			cfg := stateTestConfig()
			cfg.MPrime = -1
			cfg.FitWindow = 12
			cfg.SnapshotHorizon = 0
			return cfg
		}(),
	}
	for name, cfg := range cfgs {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			const total = 60
			crashes := map[int]bool{1: true, 19: true, 20: true, 21: true, 35: true, total - 1: true}
			rng := rand.New(rand.NewPCG(11, 13))
			for len(crashes) < 9 {
				crashes[1+rng.IntN(total-1)] = true
			}

			ref, err := NewSystem(cfg)
			if err != nil {
				t.Fatalf("ref system: %v", err)
			}
			refObs := make([]stepObs, total+1)
			for step := 1; step <= total; step++ {
				refObs[step] = observeStep(t, ref, stateTestInput(cfg.Nodes, cfg.Resources, step))
			}

			for c := range crashes {
				crashed, err := NewSystem(cfg)
				if err != nil {
					t.Fatalf("crash system: %v", err)
				}
				for step := 1; step <= c; step++ {
					if _, err := crashed.Step(stateTestInput(cfg.Nodes, cfg.Resources, step)); err != nil {
						t.Fatalf("crash %d step %d: %v", c, step, err)
					}
				}
				st, err := crashed.ExportState()
				if err != nil {
					t.Fatalf("crash %d export: %v", c, err)
				}
				st = gobRoundTrip(t, st)

				// Workers is a runtime knob outside the fingerprint: the
				// restoring process may pick another, and its republished
				// snapshot follows it.
				rcfg := cfg
				rcfg.Workers = 3
				restored, err := NewSystem(rcfg)
				if err != nil {
					t.Fatalf("restored system: %v", err)
				}
				if err := restored.RestoreState(st); err != nil {
					t.Fatalf("crash %d restore: %v", c, err)
				}
				if restored.Steps() != c {
					t.Fatalf("crash %d: restored to step %d", c, restored.Steps())
				}
				if pre, post := crashed.Snapshot(), restored.Snapshot(); (pre == nil) != (post == nil) {
					t.Fatalf("crash %d: snapshot presence diverged (pre %v, post %v)", c, pre != nil, post != nil)
				} else if pre != nil {
					comparePublished(t, c, pre, post)
					if post.Workers() != rcfg.Workers {
						t.Fatalf("crash %d: republished snapshot has %d workers, want %d", c, post.Workers(), rcfg.Workers)
					}
				}
				for step := c + 1; step <= total; step++ {
					got := observeStep(t, restored, stateTestInput(cfg.Nodes, cfg.Resources, step))
					if !reflect.DeepEqual(got, refObs[step]) {
						t.Fatalf("crash %d: step %d diverged from uninterrupted run:\n got %+v\nwant %+v",
							c, step, got, refObs[step])
					}
				}
			}
		})
	}
}

// comparePublished checks that a restored system republishes the pre-crash
// snapshot: same generation, frequencies, training-run count and zoo
// selection state, and bit-identical served forecasts.
func comparePublished(t *testing.T, c int, pre, post *Snapshot) {
	t.Helper()
	if pre.Generation() != post.Generation() || pre.Steps() != post.Steps() || pre.Ready() != post.Ready() {
		t.Fatalf("crash %d: republished snapshot gen/steps/ready %d/%d/%v, want %d/%d/%v",
			c, post.Generation(), post.Steps(), post.Ready(), pre.Generation(), pre.Steps(), pre.Ready())
	}
	if pre.MeanFrequency() != post.MeanFrequency() {
		t.Fatalf("crash %d: republished mean frequency %v, want %v", c, post.MeanFrequency(), pre.MeanFrequency())
	}
	for i := 0; i < pre.Nodes(); i++ {
		if pre.Frequency(i) != post.Frequency(i) {
			t.Fatalf("crash %d: republished frequency of node %d is %v, want %v", c, i, post.Frequency(i), pre.Frequency(i))
		}
	}
	// Training wall time is a measurement of the exporting process; the run
	// count is state.
	_, preRuns := pre.TrainingTime()
	if _, postRuns := post.TrainingTime(); postRuns != preRuns {
		t.Fatalf("crash %d: republished snapshot counts %d training runs, want %d", c, postRuns, preRuns)
	}
	for tr := 0; tr < pre.Trackers(); tr++ {
		if got, want := post.ModelSelection(tr), pre.ModelSelection(tr); !reflect.DeepEqual(got, want) {
			t.Fatalf("crash %d: republished selection of tracker %d:\n got %+v\nwant %+v", c, tr, got, want)
		}
	}
	if !pre.Ready() {
		return
	}
	want, err := pre.Forecast(pre.MaxHorizon())
	if err != nil {
		t.Fatalf("crash %d: pre-crash snapshot forecast: %v", c, err)
	}
	got, err := post.Forecast(post.MaxHorizon())
	if err != nil {
		t.Fatalf("crash %d: republished snapshot forecast: %v", c, err)
	}
	forecastBits(t, got, want, "republished snapshot", c)
}

func TestExportStateRejectsNonPersistentPolicy(t *testing.T) {
	t.Parallel()
	cfg := stateTestConfig()
	cfg.Policy = func(int) (transmit.Policy, error) {
		return opaquePolicy{}, nil
	}
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	if _, err := s.Step(stateTestInput(cfg.Nodes, cfg.Resources, 1)); err != nil {
		t.Fatalf("step: %v", err)
	}
	if _, err := s.ExportState(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("export err = %v, want ErrNotPersistent", err)
	}
}

type opaquePolicy struct{}

func (opaquePolicy) Decide(int, []float64, []float64) bool { return true }

func TestRestoreStateValidation(t *testing.T) {
	t.Parallel()
	cfg := stateTestConfig()
	s, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	for step := 1; step <= 5; step++ {
		if _, err := s.Step(stateTestInput(cfg.Nodes, cfg.Resources, step)); err != nil {
			t.Fatalf("step: %v", err)
		}
	}
	st, err := s.ExportState()
	if err != nil {
		t.Fatalf("export: %v", err)
	}

	// Restoring into a system that already stepped must fail.
	if err := s.RestoreState(st); !errors.Is(err, ErrBadState) {
		t.Fatalf("restore into stepped system: %v, want ErrBadState", err)
	}

	// A different topology must be rejected by the fingerprint. (A different
	// Nodes value is NOT a different topology anymore: the state carries the
	// membership roster, so fleet size reconciles on restore.)
	other := cfg
	other.K = cfg.K + 1
	o, err := NewSystem(other)
	if err != nil {
		t.Fatalf("other system: %v", err)
	}
	if err := o.RestoreState(st); !errors.Is(err, ErrBadState) {
		t.Fatalf("fingerprint mismatch: %v, want ErrBadState", err)
	}

	// A mismatched construction-time fleet size restores fine: the roster
	// replaces it.
	sized := cfg
	sized.Nodes = cfg.Nodes + 5
	o2, err := NewSystem(sized)
	if err != nil {
		t.Fatalf("resized system: %v", err)
	}
	if err := o2.RestoreState(st); err != nil {
		t.Fatalf("restore across fleet sizes: %v", err)
	}
	if o2.Slots() != cfg.Nodes || o2.LiveNodes() != cfg.Nodes {
		t.Fatalf("restored fleet %d slots / %d live, want %d", o2.Slots(), o2.LiveNodes(), cfg.Nodes)
	}

	// A wrong version must be rejected.
	bad := *st
	bad.Version = StateVersion + 1
	fresh, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("fresh system: %v", err)
	}
	if err := fresh.RestoreState(&bad); !errors.Is(err, ErrBadState) {
		t.Fatalf("version mismatch: %v, want ErrBadState", err)
	}

	// Truncated per-node state must be rejected without mutating the system.
	bad = *st
	bad.Meters = bad.Meters[:3]
	if err := fresh.RestoreState(&bad); !errors.Is(err, ErrBadState) {
		t.Fatalf("short meters: %v, want ErrBadState", err)
	}

	// Ensembles out of step with each other must be rejected: the trackers
	// observe every step and train in the same rounds.
	bad = *st
	bad.Ensembles = append([]*forecast.EnsembleState(nil), st.Ensembles...)
	skewed := *st.Ensembles[1]
	skewed.LastRefit++
	bad.Ensembles[1] = &skewed
	if err := fresh.RestoreState(&bad); !errors.Is(err, ErrBadState) {
		t.Fatalf("ensembles out of step: %v, want ErrBadState", err)
	}
	if err := fresh.RestoreState(st); err != nil {
		t.Fatalf("valid restore after rejected ones: %v", err)
	}
	if fresh.Steps() != 5 {
		t.Fatalf("restored steps = %d, want 5", fresh.Steps())
	}
}
