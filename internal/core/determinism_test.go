package core

// Regression tests for the concurrency contract: the parallel Step/Forecast
// paths must produce numerically identical output to the serial path for a
// fixed seed, because every tracker owns its RNG and output slots and no
// cross-goroutine floating-point reduction exists. Run with the race
// detector when touching the pool fan-out:
//
//	go test -race ./internal/core
//
// (CI runs the same invocation; see the ci target in the Makefile.)

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"orcf/internal/forecast"
)

// detTrace builds a deterministic synthetic measurement tensor with enough
// structure that clusterings are non-trivial.
func detTrace(steps, nodes, resources int, seed uint64) [][][]float64 {
	rng := rand.New(rand.NewPCG(seed, 0xfeed))
	base := make([][]float64, nodes)
	for i := range base {
		base[i] = make([]float64, resources)
		for d := range base[i] {
			base[i][d] = 0.2 + 0.6*rng.Float64()
		}
	}
	out := make([][][]float64, steps)
	for t := range out {
		out[t] = make([][]float64, nodes)
		for i := range out[t] {
			out[t][i] = make([]float64, resources)
			for d := range out[t][i] {
				v := base[i][d] + 0.1*rng.Float64() - 0.05
				if v < 0 {
					v = 0
				}
				if v > 1 {
					v = 1
				}
				out[t][i][d] = v
			}
		}
	}
	return out
}

// TestParallelMatchesSerialExactly steps a Workers: 1 and a Workers: 8
// system side by side, with the default sample-and-hold model and with a
// four-family zoo whose rounds put every tracker's fits on one list. After a
// refit the wide system is replaced by a Workers: 8 restore of its exported
// state, so the restore's fit list is covered too. Step results, forecasts
// and the final exported states must be bit-identical; training time is wall
// clock and left out.
func TestParallelMatchesSerialExactly(t *testing.T) {
	t.Parallel()
	const (
		nodes     = 24
		resources = 2
		steps     = 90
		warmup    = 40
		horizon   = 7
		restoreAt = 70 // after the round at step 65
	)
	zoo := func(c *Config) {
		cands, err := forecast.Zoo("ses", "holt", "ar", "arima")
		if err != nil {
			t.Fatal(err)
		}
		c.Zoo = cands
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"scalar clustering", func(*Config) {}},
		{"joint clustering", func(c *Config) { c.JointClustering = true }},
		{"zoo scalar clustering", zoo},
		{"zoo joint clustering", func(c *Config) { zoo(c); c.JointClustering = true }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			data := detTrace(steps, nodes, resources, 7)
			build := func(workers int) *System {
				cfg := Config{
					Nodes: nodes, Resources: resources, K: 3,
					InitialCollection: warmup, RetrainEvery: 25,
					Seed: 11, Workers: workers,
				}
				tc.mutate(&cfg)
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			serial := build(1)
			wide := build(8) // oversubscribes the pool on any machine

			for step := 0; step < steps; step++ {
				if step == restoreAt {
					st, err := wide.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					wide = build(8)
					if err := wide.RestoreState(st); err != nil {
						t.Fatalf("restore at %d: %v", step, err)
					}
				}
				rs, err := serial.Step(data[step])
				if err != nil {
					t.Fatalf("serial step %d: %v", step, err)
				}
				rw, err := wide.Step(data[step])
				if err != nil {
					t.Fatalf("parallel step %d: %v", step, err)
				}
				compareStepResults(t, step, rs, rw)

				if !serial.Ready() {
					continue
				}
				fs, err := serial.Forecast(horizon)
				if err != nil {
					t.Fatalf("serial forecast at %d: %v", step, err)
				}
				fw, err := wide.Forecast(horizon)
				if err != nil {
					t.Fatalf("parallel forecast at %d: %v", step, err)
				}
				for hi := range fs {
					for i := range fs[hi] {
						for r := range fs[hi][i] {
							if fs[hi][i][r] != fw[hi][i][r] {
								t.Fatalf("step %d h=%d node %d res %d: serial %v != parallel %v",
									step, hi+1, i, r, fs[hi][i][r], fw[hi][i][r])
							}
						}
					}
				}
			}
			if !serial.Ready() || !wide.Ready() {
				t.Fatal("systems never became ready; forecast path untested")
			}
			var states [2]*State
			for i, sys := range []*System{serial, wide} {
				st, err := sys.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range st.Ensembles {
					e.TrainTime = 0 // wall clock
				}
				states[i] = st
			}
			if !reflect.DeepEqual(states[0], states[1]) {
				t.Fatal("exported states differ between Workers 1 and 8")
			}
		})
	}
}

func compareStepResults(t *testing.T, step int, a, b *StepResult) {
	t.Helper()
	if a.T != b.T {
		t.Fatalf("step %d: T %d != %d", step, a.T, b.T)
	}
	for i := range a.Transmitted {
		if a.Transmitted[i] != b.Transmitted[i] {
			t.Fatalf("step %d: node %d transmitted %v != %v", step, i, a.Transmitted[i], b.Transmitted[i])
		}
	}
	if len(a.PerResource) != len(b.PerResource) {
		t.Fatalf("step %d: %d trackers != %d", step, len(a.PerResource), len(b.PerResource))
	}
	for tr := range a.PerResource {
		pa, pb := a.PerResource[tr], b.PerResource[tr]
		for i := range pa.Assignments {
			if pa.Assignments[i] != pb.Assignments[i] {
				t.Fatalf("step %d tracker %d: node %d assigned %d != %d",
					step, tr, i, pa.Assignments[i], pb.Assignments[i])
			}
		}
		for j := range pa.Centroids {
			for d := range pa.Centroids[j] {
				if pa.Centroids[j][d] != pb.Centroids[j][d] {
					t.Fatalf("step %d tracker %d: centroid %d dim %d %v != %v",
						step, tr, j, d, pa.Centroids[j][d], pb.Centroids[j][d])
				}
			}
		}
	}
}
