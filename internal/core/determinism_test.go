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
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
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

// setMaxProcs sets GOMAXPROCS, and so the width of every worker pool, to n
// until the test ends. A test that calls it must not be parallel.
func setMaxProcs(t testing.TB, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestParallelMatchesSerialExactly runs a system at GOMAXPROCS 1 and again
// at GOMAXPROCS 8, with the default sample-and-hold model and with a
// four-family zoo whose rounds put every tracker's fits on one list. After a
// refit the wide system is replaced by a restore of its exported state, so
// the restore's fit list is covered too. The fleet spans three plan blocks,
// so the wide plan build fans out. Step results, forecasts and the final
// exported states must be bit-identical; training time is wall clock and
// left out. The incremental case warm-starts its trackers, and a member
// leaving at churnAt and another joining its slot at rejoinAt force full
// refits between warm runs, so the trackers run inline (after a step that
// warm-started them all) and on the pool (after one that did not) under
// both widths. Not parallel: it sets GOMAXPROCS.
func TestParallelMatchesSerialExactly(t *testing.T) {
	const (
		nodes     = 3*planBlock - 40
		resources = 2
		steps     = 90
		warmup    = 40
		horizon   = 7
		restoreAt = 70 // after the round at step 65
		churnAt   = 50 // incremental case: slot churnSlot's member leaves
		rejoinAt  = 53 // and a new member joins into the slot
		churnSlot = 5
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
		churn  bool
	}{
		{"scalar clustering", func(*Config) {}, false},
		{"joint clustering", func(c *Config) { c.JointClustering = true }, false},
		{"zoo scalar clustering", zoo, false},
		{"zoo joint clustering", func(c *Config) { zoo(c); c.JointClustering = true }, false},
		{"incremental scalar clustering with churn", func(c *Config) { c.IncrementalRefit = true }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := detTrace(steps, nodes, resources, 7)
			build := func() *System {
				cfg := Config{
					Nodes: nodes, Resources: resources, K: 3,
					InitialCollection: warmup, RetrainEvery: 25, Seed: 11,
				}
				tc.mutate(&cfg)
				sys, err := NewSystem(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			type run struct {
				steps     []*StepResult
				forecasts [][][][]float64 // nil before the models are ready
				state     *State
				inline    int // steps whose trackers ran inline
			}
			drive := func(procs int, restore bool) run {
				setMaxProcs(t, procs)
				var r run
				sys := build()
				for step := 0; step < steps; step++ {
					if restore && step == restoreAt {
						st, err := sys.ExportState()
						if err != nil {
							t.Fatal(err)
						}
						sys = build()
						if err := sys.RestoreState(st); err != nil {
							t.Fatalf("restore at %d: %v", step, err)
						}
					}
					x := data[step]
					if tc.churn {
						switch step {
						case churnAt:
							if err := sys.RemoveNodes(churnSlot); err != nil {
								t.Fatal(err)
							}
						case rejoinAt:
							if err := sys.AddNodes(nodes); err != nil {
								t.Fatal(err)
							}
						}
						if step >= churnAt && step < rejoinAt {
							x = append([][]float64(nil), x...)
							x[churnSlot] = nil
						}
					}
					if sys.allWarm {
						r.inline++
					}
					res, err := sys.Step(x)
					if err != nil {
						t.Fatalf("GOMAXPROCS %d: step %d: %v", procs, step, err)
					}
					r.steps = append(r.steps, cloneStepResult(res))
					var f [][][]float64
					if sys.Ready() {
						if f, err = sys.Forecast(horizon); err != nil {
							t.Fatalf("GOMAXPROCS %d: forecast at %d: %v", procs, step, err)
						}
					}
					r.forecasts = append(r.forecasts, f)
				}
				if !sys.Ready() {
					t.Fatal("system never became ready; forecast path untested")
				}
				st, err := sys.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range st.Ensembles {
					e.TrainTime = 0 // wall clock
				}
				r.state = st
				return r
			}
			serial, wide := drive(1, false), drive(8, true) // 8 oversubscribes any machine
			if tc.churn {
				// The pool takes step 0 and the steps after the leave and
				// the join, each a full refit; the wide run's restore adds
				// one.
				for _, r := range []run{serial, wide} {
					if pool := steps - r.inline; pool < 3 || r.inline < steps/2 {
						t.Fatalf("trackers ran inline at %d of %d steps; want them on the pool after every full refit and inline otherwise", r.inline, steps)
					}
				}
			}

			for step := range serial.steps {
				compareStepResults(t, step, serial.steps[step], wide.steps[step])
				fs, fw := serial.forecasts[step], wide.forecasts[step]
				if len(fs) != len(fw) {
					t.Fatalf("step %d: serial forecast has %d horizons, parallel %d", step, len(fs), len(fw))
				}
				for hi := range fs {
					for i := range fs[hi] {
						for r := range fs[hi][i] {
							if math.Float64bits(fs[hi][i][r]) != math.Float64bits(fw[hi][i][r]) {
								t.Fatalf("step %d h=%d node %d res %d: serial %v != parallel %v",
									step, hi+1, i, r, fs[hi][i][r], fw[hi][i][r])
							}
						}
					}
				}
			}
			if !reflect.DeepEqual(serial.state, wide.state) {
				t.Fatal("exported states differ between GOMAXPROCS 1 and 8")
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
