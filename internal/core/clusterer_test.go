package core

import (
	"errors"
	"math/rand/v2"
	"testing"

	"orcf/internal/cluster"
)

var errNoClusterer = errors.New("no clusterer here")

func TestClustererFactoryValidation(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name    string
		factory ClustererFactory
	}{
		{"error", func(int) (Clusterer, error) { return nil, errNoClusterer }},
		{"nil", func(int) (Clusterer, error) { return nil, nil }},
		{"second tracker errors", func(tr int) (Clusterer, error) {
			if tr == 1 {
				return nil, errNoClusterer
			}
			return cluster.NewMinimumDistance(2, rand.New(rand.NewPCG(1, 2)))
		}},
	} {
		_, err := NewSystem(Config{Nodes: 4, Resources: 2, K: 2, Clusterer: tc.factory})
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%s: got %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestClustererFactoryTrackerMatchesDefault builds the default System's
// trackers through Config.Clusterer — cluster.NewTracker, seeded as
// newSystem seeds it — and steps both Systems through warm and full refits
// and a leave and a join: every StepResult and forecast must carry the same
// bits. The factory-built System exports and restores nothing.
func TestClustererFactoryTrackerMatchesDefault(t *testing.T) {
	t.Parallel()
	cfg := Config{
		Nodes: 12, Resources: 2, K: 3, M: 2, MPrime: 3,
		InitialCollection: 30, RetrainEvery: 20, IncrementalRefit: true, Seed: 5,
	}
	want, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seeded := cfg
	seeded.Clusterer = func(tr int) (Clusterer, error) {
		return cluster.NewTracker(cluster.Config{K: cfg.K, M: cfg.M, Incremental: true},
			rand.New(rand.NewPCG(cfg.Seed, uint64(tr)+0x1234)))
	}
	got, err := NewSystem(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := got.ExportState(); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("ExportState of a factory-built System: got %v, want ErrNotPersistent", err)
	}
	rng := rand.New(rand.NewPCG(8, 0))
	for step := 1; step <= 300; step++ {
		switch step {
		case 120:
			for _, s := range []*System{want, got} {
				if err := s.RemoveNodes(4); err != nil {
					t.Fatal(err)
				}
			}
		case 180:
			for _, s := range []*System{want, got} {
				if err := s.AddNodes(40); err != nil {
					t.Fatal(err)
				}
			}
		}
		x := noisyStep(rng, want.Slots())
		if step >= 120 && step < 180 {
			x[4] = nil // the departed member's tombstone
		}
		rw, err := want.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := got.Step(x)
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(rg, rw) {
			t.Fatalf("step %d: factory-built result diverged from the default System's", step)
		}
		if want.Ready() && step%7 == 0 {
			fw, err := want.Forecast(4)
			if err != nil {
				t.Fatal(err)
			}
			fg, err := got.Forecast(4)
			if err != nil {
				t.Fatal(err)
			}
			sameForecasts(t, "factory tracker", fg, fw)
		}
	}
	gw, gf := got.RefitStats()
	ww, wf := want.RefitStats()
	if gw != ww || gf != wf || ww == 0 || wf < 2 {
		t.Fatalf("refit stats (%d, %d), want (%d, %d) with warm and full steps", gw, gf, ww, wf)
	}
	st, err := want.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewSystem(seeded)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.RestoreState(st); !errors.Is(err, ErrNotPersistent) {
		t.Fatalf("RestoreState into a factory-built System: got %v, want ErrNotPersistent", err)
	}
}
