package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"orcf/internal/parallel"
)

// referenceReconstruct is the pre-plan reconstruct, kept verbatim as the
// oracle: it applies §V-C over an env's look-back window: forecasted
// centroid of each node's mode cluster plus the α-scaled offset of eq. (12),
// both computed over the steps the node was present at (the per-node
// presence mask of an elastic fleet). Slots that are dead, or whose member
// has no presence in the window yet (a joiner still warming up), forecast
// as NaN. centF is indexed [tracker][cluster][dim][hi] and must cover
// hi < h. The h×N×d result shares one flat backing and one row-header array
// instead of h·N small slices; nodes fan out on the worker pool and each
// node writes only its own output rows, so the result is identical for any
// worker count.
func referenceReconstruct(env *reconEnv, centF [][][][]float64, h, workers int) ([][][]float64, error) {
	n, d := env.nodes, env.resources
	flat := make([]float64, h*n*d)
	rows := make([][]float64, h*n)
	out := make([][][]float64, h)
	for hi := range out {
		out[hi] = rows[hi*n : (hi+1)*n : (hi+1)*n]
		for i := 0; i < n; i++ {
			off := (hi*n + i) * d
			out[hi][i] = flat[off : off+d : off+d]
		}
	}

	scratches := make([]fcScratch, parallel.Workers(workers))
	err := parallel.ForEachWorker(workers, n, func(w, i int) error {
		sc := &scratches[w]
		if sc.counts == nil {
			sc.counts = make([]int, env.k)
			sc.offset = make([]float64, env.dims)
			sc.zi = make([]float64, env.dims)
			sc.delta = make([]float64, env.dims)
		}
		if !env.aliveAt(i) {
			referenceNanRow(out, i, h, d)
			return nil
		}
		for tr := 0; tr < env.nTracker; tr++ {
			jStar := env.modeCluster(sc, tr, i)
			if jStar < 0 {
				// No presence in the window yet: NaN-masked warm-up.
				referenceNanRow(out, i, h, d)
				return nil
			}
			offset := env.offset(sc, tr, i, jStar)
			for d := 0; d < env.dims; d++ {
				resIdx := tr
				if env.joint {
					resIdx = d
				}
				for hi := 0; hi < h; hi++ {
					v := centF[tr][jStar][d][hi] + offset[d]
					if !env.disableClamp {
						if v < 0 {
							v = 0
						}
						if v > 1 {
							v = 1
						}
					}
					out[hi][i][resIdx] = v
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// referenceNanRow fills node i's output rows at every horizon with NaN.
func referenceNanRow(out [][][]float64, i, h, d int) {
	nan := math.NaN()
	for hi := 0; hi < h; hi++ {
		for r := 0; r < d; r++ {
			out[hi][i][r] = nan
		}
	}
}

// oracleFleet drives a churning fleet to a state that exercises every branch
// of the reconstruction: recycled slots (nodes 1 and 3 removed, their slots handed to joiners 103
// and 104, which forces the pubWinStale window rebuild), a joiner still
// warming up (104 is silent for its first steps) and a tombstoned slot (node
// 5 removed, slot left empty). visit is called after every step once the models
// are trained.
func oracleFleet(t *testing.T, cfg Config, visit func(step int, sys *System)) {
	t.Helper()
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	silent := map[int]bool{}
	for step := 1; step <= 40; step++ {
		switch step {
		case 22:
			if err := sys.RemoveNodes(1, 3, 5); err != nil {
				t.Fatal(err)
			}
		case 25:
			if err := sys.AddNodes(103); err != nil {
				t.Fatal(err)
			}
			if cfg.SnapshotHorizon > 0 && !sys.pubWinStale {
				t.Fatal("recycling a slot did not mark the published window stale")
			}
		case 30:
			if err := sys.AddNodes(104); err != nil {
				t.Fatal(err)
			}
			silent[104] = true
		case 34:
			delete(silent, 104)
		}
		stepFleet(t, sys, step, silent)
		if sys.Ready() {
			visit(step, sys)
		}
	}
	roster := sys.Roster()
	if slot, ok := roster.SlotOf(103); !ok || slot != 1 {
		t.Fatalf("joiner 103 at slot %d (ok=%v), want recycled slot 1", slot, ok)
	}
	if _, live := roster.IDAt(5); live {
		t.Fatal("slot 5 was recycled; the scenario lost its tombstone")
	}
}

// TestPlanMatchesReferenceReconstruct is the differential oracle of the
// plan/fill split: for every horizon, clustering mode, ablation and worker
// count, System.Forecast, Snapshot.Forecast and the per-node plan produce
// the float bits of the pre-split reconstruct, on a fleet with a tombstone,
// a recycled slot and a warming joiner.
func TestPlanMatchesReferenceReconstruct(t *testing.T) {
	t.Parallel()
	const maxH = 6
	for _, joint := range []bool{false, true} {
		for _, noClamp := range []bool{false, true} {
			for _, noAlpha := range []bool{false, true} {
				for _, workers := range []int{1, 0} {
					name := fmt.Sprintf("joint=%v/noclamp=%v/noalpha=%v/workers=%d", joint, noClamp, noAlpha, workers)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := churnConfig(8)
						cfg.JointClustering = joint
						cfg.DisableClamp = noClamp
						cfg.DisableAlphaClamp = noAlpha
						cfg.Workers = workers
						cfg.SnapshotHorizon = maxH
						sawNaN := false
						oracleFleet(t, cfg, func(step int, sys *System) {
							snap := sys.Snapshot()
							full, err := snap.Forecast(maxH, workers)
							if err != nil {
								t.Fatalf("step %d: %v", step, err)
							}
							for h := 1; h <= maxH; h++ {
								want, err := referenceReconstruct(snap.reconEnv(), snap.centF, h, workers)
								if err != nil {
									t.Fatal(err)
								}
								got, err := snap.Forecast(h, workers)
								if err != nil {
									t.Fatalf("step %d h %d: %v", step, h, err)
								}
								forecastBits(t, got, want, "snapshot vs reference", step)
								forecastBits(t, got, full[:h], "Forecast(h) vs prefix of Forecast(H)", step)

								live, err := sys.Forecast(h)
								if err != nil {
									t.Fatalf("step %d h %d: %v", step, h, err)
								}
								forecastBits(t, live, want, "system vs reference", step)
							}
							for slot := 0; slot < snap.Nodes(); slot++ {
								p := snap.PlanNode(slot)
								for hi := 0; hi < maxH; hi++ {
									for r := 0; r < snap.Resources(); r++ {
										got, want := p.At(slot, r, hi), full[hi][slot][r]
										if math.Float64bits(got) != math.Float64bits(want) {
											t.Fatalf("step %d: PlanNode(%d).At(r%d, h%d) = %v, fleet row has %v",
												step, slot, r, hi, got, want)
										}
										sawNaN = sawNaN || math.IsNaN(want)
									}
								}
							}
						})
						if !sawNaN {
							t.Fatal("scenario lost coverage: no NaN row was ever compared")
						}
					})
				}
			}
		}
	}
}

// TestPlanBuiltOncePerSnapshot pins the single-flight contract of the lazily
// built fleet plan: any number of concurrent first readers get the same plan
// and exactly one of them is told it built it.
func TestPlanBuiltOncePerSnapshot(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(8)
	cfg.SnapshotHorizon = 3
	var snap *Snapshot
	oracleFleet(t, cfg, func(_ int, sys *System) { snap = sys.Snapshot() })

	const readers = 64
	var builds atomic.Int64
	plans := make([]*ForecastPlan, readers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			p, built := snap.Plan(0)
			if built {
				builds.Add(1)
			}
			plans[g] = p
		}(g)
	}
	close(start)
	wg.Wait()
	if got := builds.Load(); got != 1 {
		t.Fatalf("%d readers reported building the plan, want exactly 1", got)
	}
	for g, p := range plans {
		if p == nil || p != plans[0] {
			t.Fatalf("reader %d got plan %p, reader 0 got %p", g, p, plans[0])
		}
	}
	if _, built := snap.Plan(0); built {
		t.Fatal("a later Plan call rebuilt the plan")
	}
}

// TestPlanBeforeTraining pins the not-ready behaviour of the plan accessors:
// every slot is undefined, nothing panics.
func TestPlanBeforeTraining(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(4)
	cfg.SnapshotHorizon = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stepFleet(t, sys, 1, nil)
	snap := sys.Snapshot()
	if snap.Ready() {
		t.Fatal("ready after one step")
	}
	fleet, _ := snap.Plan(1)
	for slot := 0; slot < snap.Nodes(); slot++ {
		if v := fleet.At(slot, 0, 0); !math.IsNaN(v) {
			t.Fatalf("fleet plan slot %d = %v before training, want NaN", slot, v)
		}
		if v := snap.PlanNode(slot).At(slot, 1, 1); !math.IsNaN(v) {
			t.Fatalf("node plan slot %d = %v before training, want NaN", slot, v)
		}
	}
}
