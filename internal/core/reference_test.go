package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"orcf/internal/cluster"
	"orcf/internal/forecast"
	"orcf/internal/mat"
	"orcf/internal/parallel"
	"orcf/internal/transmit"
)

// referenceReconstruct is the pre-plan reconstruct, kept verbatim as the
// oracle: it applies §V-C over an env's look-back window: forecasted
// centroid of each node's mode cluster plus the α-scaled offset of eq. (12),
// both computed over the steps the node was present at (the per-node
// presence mask of an elastic fleet). Slots that are dead, or whose member
// has no presence in the window yet (a joiner still warming up), forecast
// as NaN. cent is the plan's flat centroid table [hi][tracker][cluster·dims]
// (it was a [tracker][cluster][dim][hi] tensor) and must cover hi < h. The
// h×N×d result shares one flat backing and one row-header array instead of
// h·N small slices. Nodes run one after another on one scratch; the oracle
// once fanned them out on the worker pool, which changes no result.
func referenceReconstruct(env *reconEnv, cent []float64, h int) ([][][]float64, error) {
	n, d := env.nodes, env.resources
	kd := env.k * env.dims
	stride := env.nTracker * kd
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

	sc := &fcScratch{
		counts: make([]int, env.k),
		offset: make([]float64, env.dims),
		delta:  make([]float64, env.dims),
	}
	node := func(i int) {
		if i >= len(env.alive) || !env.alive[i] {
			referenceNanRow(out, i, h, d)
			return
		}
		for tr := 0; tr < env.nTracker; tr++ {
			jStar := referenceModeCluster(env, sc, tr, i)
			if jStar < 0 {
				// No presence in the window yet: NaN-masked warm-up.
				referenceNanRow(out, i, h, d)
				return
			}
			offset := referenceOffset(env, sc, tr, i, jStar)
			for d := 0; d < env.dims; d++ {
				resIdx := tr
				if env.joint {
					resIdx = d
				}
				for hi := 0; hi < h; hi++ {
					v := cent[hi*stride+tr*kd+jStar*env.dims+d] + offset[d]
					if v < 0 {
						v = 0
					}
					if v > 1 {
						v = 1
					}
					out[hi][i][resIdx] = v
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		node(i)
	}
	return out, nil
}

// fcScratch is the scratch of referenceReconstruct: reused across the nodes
// so the per-node path allocates nothing.
type fcScratch struct {
	counts []int     // membership counts, len K
	offset []float64 // eq. (12) accumulator, len dims
	delta  []float64 // maxAlphaInCell scratch, len dims
}

// presentAt reports slot i's presence, treating slots beyond the recorded
// fleet size as absent: the published windows the references read could be
// shorter than the fleet.
func (slot *ringSlot) presentAt(i int) bool {
	return i < len(slot.present) && slot.present[i]
}

// referenceModeCluster is the per-node modeCluster the slot-major plan
// kernel replaced, kept verbatim over env.slots: it returns the cluster node
// i belonged to most often within the look-back window [t−M′, t] for tracker
// tr (§V-C), counting only the steps the node was present at. Ties break
// toward the newest present membership when it participates in the tie, and
// otherwise toward the smaller cluster index, keeping the choice
// deterministic. It returns -1 when the node was present at no step of the
// window.
func referenceModeCluster(env *reconEnv, sc *fcScratch, tr, node int) int {
	counts := sc.counts
	for j := range counts {
		counts[j] = 0
	}
	newest := -1
	for ago := 0; ago < len(env.slots); ago++ {
		slot := env.slots[ago]
		if !slot.presentAt(node) {
			continue
		}
		a := int(slot.assignments[tr][node])
		if a < 0 {
			continue
		}
		counts[a]++
		if newest < 0 {
			newest = a
		}
	}
	if newest < 0 {
		return -1
	}
	best := newest // newest present membership
	bestCount := counts[best]
	for j, c := range counts {
		if c > bestCount {
			best, bestCount = j, c
		}
	}
	return best
}

// referenceOffset is the per-node eq. (12) offset the slot-major plan kernel
// replaced, kept verbatim over env.slots: the averaged α-scaled deviation of
// node i from the centroid of cluster jStar over the look-back steps the
// node was present at. α is 1 when the node belonged to jStar at that step;
// otherwise it shrinks the deviation just enough that centroid+α·deviation
// still falls in jStar's cell. The returned slice is the scratch
// accumulator, valid until the next call with the same scratch.
func referenceOffset(env *reconEnv, sc *fcScratch, tr, node, jStar int) []float64 {
	out := sc.offset[:env.dims]
	for d := range out {
		out[d] = 0
	}
	seen := 0
	for ago := 0; ago < len(env.slots); ago++ {
		slot := env.slots[ago]
		if !slot.presentAt(node) {
			continue
		}
		seen++
		cents := slot.centroids(tr)
		c := cents[jStar*env.dims : (jStar+1)*env.dims]
		zi := slot.z.vec(tr, node)
		alpha := 1.0
		if !env.disableAlphaClamp && int(slot.assignments[tr][node]) != jStar {
			alpha = maxAlphaInCell(zi, jStar, cents, sc.delta)
		}
		for d := 0; d < env.dims; d++ {
			out[d] += alpha * (zi[d] - c[d])
		}
	}
	if seen == 0 {
		return out
	}
	inv := 1 / float64(seen)
	for d := range out {
		out[d] *= inv
	}
	return out
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
// of the reconstruction: recycled slots (nodes 1 and 3 removed, their slots
// handed to joiners 103 and 104), a joiner still warming up (104 is silent
// for its first steps) and a tombstoned slot (node 5 removed, slot left
// empty). visit is called after every step, before and after training.
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
		case 30:
			if err := sys.AddNodes(104); err != nil {
				t.Fatal(err)
			}
			silent[104] = true
		case 34:
			delete(silent, 104)
		}
		stepFleet(t, sys, step, silent)
		visit(step, sys)
	}
	roster := sys.Roster()
	if slot, ok := roster.SlotOf(103); !ok || slot != 1 {
		t.Fatalf("joiner 103 at slot %d (ok=%v), want recycled slot 1", slot, ok)
	}
	if _, live := roster.IDAt(5); live {
		t.Fatal("slot 5 was recycled; the scenario lost its tombstone")
	}
}

// blockEdgeFleet drives a fleet several plan blocks wide whose block edge at
// slot planBlock carries both special cases: node planBlock-1 and node
// planBlock are removed, joiner 9000 recycles slot planBlock-1 (the last of
// the first block) and stays silent, so it is still warming at the end, and
// slot planBlock (the first of the second block) stays a tombstone. visit is
// called after every step, before and after training.
func blockEdgeFleet(t *testing.T, cfg Config, visit func(step int, sys *System)) {
	t.Helper()
	cfg.Nodes = 3*planBlock + 17
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	silent := map[int]bool{9000: true}
	for step := 1; step <= 24; step++ {
		switch step {
		case 14:
			if err := sys.RemoveNodes(planBlock-1, planBlock); err != nil {
				t.Fatal(err)
			}
		case 16:
			if err := sys.AddNodes(9000); err != nil {
				t.Fatal(err)
			}
		}
		stepFleet(t, sys, step, silent)
		visit(step, sys)
	}
	roster := sys.Roster()
	if slot, ok := roster.SlotOf(9000); !ok || slot != planBlock-1 {
		t.Fatalf("joiner 9000 at slot %d (ok=%v), want recycled slot %d", slot, ok, planBlock-1)
	}
	if _, live := roster.IDAt(planBlock); live {
		t.Fatalf("slot %d was recycled; the scenario lost its tombstone", planBlock)
	}
}

// grownFleet drives a fleet that grows across the first block edge after
// older window slots were written: five joiners take the new slots
// planBlock-2 … planBlock+2, so every ring slot from before the join is
// grown in place, and the second block starts with slots no step before
// the join knew of. The joiners stay silent for their first steps. visit is
// called after every step, before and after training.
func grownFleet(t *testing.T, cfg Config, visit func(step int, sys *System)) {
	t.Helper()
	cfg.Nodes = planBlock - 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	joiners := []int{9000, 9001, 9002, 9003, 9004}
	silent := map[int]bool{}
	for step := 1; step <= 24; step++ {
		switch step {
		case 16:
			if err := sys.AddNodes(joiners...); err != nil {
				t.Fatal(err)
			}
			for _, id := range joiners {
				silent[id] = true
			}
		case 18:
			clear(silent)
		}
		stepFleet(t, sys, step, silent)
		visit(step, sys)
	}
	if slot, ok := sys.Roster().SlotOf(joiners[4]); !ok || slot != planBlock+2 {
		t.Fatalf("joiner %d at slot %d (ok=%v), want appended slot %d", joiners[4], slot, ok, planBlock+2)
	}
}

// TestPlanMatchesReferenceReconstruct is the differential oracle of the
// plan/fill split: for every horizon, clustering mode, ablation and pool
// width, the plan a snapshot was published with (through Snapshot.Forecast
// and ForecastPlan.At) and System.Forecast produce the float bits of the
// pre-split reconstruct over the System's ring after the step — on a small
// fleet with a tombstone, a recycled slot and a warming joiner, on one whose
// tombstone and warming joiner sit on a plan block edge, and on one that grew
// across a block edge after older window slots were written.
func TestPlanMatchesReferenceReconstruct(t *testing.T) {
	const maxH = 6
	fleets := []struct {
		name  string
		drive func(t *testing.T, cfg Config, visit func(step int, sys *System))
	}{{"churn", oracleFleet}, {"block-edge", blockEdgeFleet}, {"grown", grownFleet}}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			setMaxProcs(t, procs)
			for _, fleet := range fleets {
				for _, joint := range []bool{false, true} {
					for _, noAlpha := range []bool{false, true} {
						if testing.Short() && fleet.name != "churn" && noAlpha {
							continue // the race pass: the ablation on the small fleet only
						}
						name := fmt.Sprintf("%s/joint=%v/noalpha=%v", fleet.name, joint, noAlpha)
						t.Run(name, func(t *testing.T) {
							t.Parallel()
							cfg := churnConfig(8)
							cfg.JointClustering = joint
							cfg.DisableAlphaClamp = noAlpha
							cfg.SnapshotHorizon = maxH
							sawNaN := false
							fleet.drive(t, cfg, func(step int, sys *System) {
								if !sys.Ready() {
									return
								}
								snap := sys.Snapshot()
								full, err := snap.Forecast(maxH)
								if err != nil {
									t.Fatalf("step %d: %v", step, err)
								}
								for h := 1; h <= maxH; h++ {
									want, err := referenceReconstruct(sys.reconEnv(), snap.plan.cent, h)
									if err != nil {
										t.Fatal(err)
									}
									got, err := snap.Forecast(h)
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
								p := snap.Plan()
								for slot := 0; slot < snap.Nodes(); slot++ {
									for hi := 0; hi < maxH; hi++ {
										for r := 0; r < snap.Resources(); r++ {
											got, want := p.At(slot, r, hi), full[hi][slot][r]
											if math.Float64bits(got) != math.Float64bits(want) {
												t.Fatalf("step %d: Plan().At(%d, r%d, h%d) = %v, fleet row has %v",
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
		})
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
	fleet := snap.Plan()
	for slot := 0; slot < snap.Nodes(); slot++ {
		if v := fleet.At(slot, 0, 0); !math.IsNaN(v) {
			t.Fatalf("fleet plan slot %d = %v before training, want NaN", slot, v)
		}
		if v := fleet.At(slot, 1, 1); !math.IsNaN(v) {
			t.Fatalf("fleet plan slot %d resource 1 = %v before training, want NaN", slot, v)
		}
	}
}

// referenceSystem is the step pipeline as it was before the flat store: a
// z [][]float64 store with nil holes, per-tracker projection buffers, the
// rows-of-slices Tracker.UpdateMasked, and a StepResult of fresh copies. It
// carries the roster, the look-back ring and the state export — everything
// TestStepMatchesReferenceExactly compares — and leaves out snapshot
// publishing, which reads the ring but never feeds back into a step. The
// method bodies below the constructor are the pre-change code, with type
// and helper names prefixed.
type referenceSystem struct {
	cfg       Config
	nTrackers int
	dims      int
	policies  []transmit.Policy
	meters    []transmit.Meter
	z         [][]float64
	zf        *mat.Frame
	trackers  []*cluster.Tracker
	pcgs      []*rand.PCG
	ensembles []*forecast.Ensemble

	ids        []int
	byID       map[int]int
	alive      []bool
	absentFor  []int
	free       []int
	presentBuf []bool
	evictions  uint64
	rosterGen  uint64

	ring    []referenceSlot
	stage   referenceSlot
	head    int
	ringLen int

	ptsF []*mat.Frame
	pts  [][][]float64

	t int
}

func newReferenceSystem(t *testing.T, cfg Config) *referenceSystem {
	t.Helper()
	cfg = cfg.withDefaults()
	s := &referenceSystem{cfg: cfg, byID: make(map[int]int)}
	s.policies = make([]transmit.Policy, cfg.Nodes)
	s.meters = make([]transmit.Meter, cfg.Nodes)
	s.ids = make([]int, cfg.Nodes)
	s.alive = make([]bool, cfg.Nodes)
	s.absentFor = make([]int, cfg.Nodes)
	s.presentBuf = make([]bool, cfg.Nodes)
	for i := range s.policies {
		p, err := cfg.Policy(i)
		if err != nil {
			t.Fatal(err)
		}
		s.policies[i] = p
		s.ids[i] = i
		s.alive[i] = true
		s.byID[i] = i
	}
	s.z = make([][]float64, cfg.Nodes)
	s.zf = mat.NewFrame(cfg.Nodes, cfg.Resources)

	s.nTrackers = cfg.Resources
	s.dims = 1
	if cfg.JointClustering {
		s.nTrackers = 1
		s.dims = cfg.Resources
	}
	for tr := 0; tr < s.nTrackers; tr++ {
		pcg := rand.NewPCG(cfg.Seed, uint64(tr)+0x1234)
		s.pcgs = append(s.pcgs, pcg)
		tracker, err := cluster.NewTracker(cluster.Config{
			K:                cfg.K,
			M:                cfg.M,
			Similarity:       cfg.Similarity,
			HistoryDepth:     cfg.M,
			DisableMatching:  cfg.DisableMatching,
			Incremental:      cfg.IncrementalRefit,
			IncrementalChurn: cfg.IncrementalChurn,
		}, rand.New(pcg))
		if err != nil {
			t.Fatal(err)
		}
		s.trackers = append(s.trackers, tracker)
		candidates := cfg.Zoo
		if len(candidates) == 0 {
			candidates = forecast.Pinned(func() forecast.Model { return forecast.NewSampleAndHold() })
		}
		ens, err := forecast.NewEnsemble(forecast.EnsembleConfig{
			Clusters:          cfg.K,
			Dims:              s.dims,
			InitialCollection: cfg.InitialCollection,
			RetrainEvery:      cfg.RetrainEvery,
			FitWindow:         cfg.fitWindow(),
			Candidates:        candidates,
			Selection:         cfg.Selection,
		})
		if err != nil {
			t.Fatal(err)
		}
		s.ensembles = append(s.ensembles, ens)
	}
	s.ring = make([]referenceSlot, cfg.MPrime+1)
	for si := range s.ring {
		s.ring[si] = s.newRingSlot()
	}
	s.stage = s.newRingSlot()
	if !cfg.JointClustering {
		s.ptsF = make([]*mat.Frame, s.nTrackers)
		s.pts = make([][][]float64, s.nTrackers)
		for tr := range s.pts {
			s.ptsF[tr] = mat.NewFrame(cfg.Nodes, 1)
			s.pts[tr] = frameRows(s.ptsF[tr], nil)
		}
	}
	return s
}

func (s *referenceSystem) RefitStats() (warm, full int) {
	for _, tr := range s.trackers {
		w, f := tr.RefitStats()
		warm += w
		full += f
	}
	return warm, full
}

// ---- The pre-flat-store Step pipeline, verbatim (names prefixed) ----

// referenceSlot is one slot of the look-back ring used by eq. (12). All backing
// arrays are allocated in NewSystem and overwritten in place; they grow in
// place when the fleet grows. (The immutable per-step copies published for
// concurrent readers reuse the same layout but may be shorter than the
// current fleet if it grew after their publication — see Snapshot and the
// *At accessors.)
type referenceSlot struct {
	zf          *mat.Frame    // N×d stored measurements (flat row-major backing)
	z           [][]float64   // row views into zf
	assignments [][]int       // [tracker][slot]; -1 = absent
	centroids   [][][]float64 // [tracker][cluster][dim]
	present     []bool        // slots clustered at this step
}

// presentAt reports slot i's presence, treating slots beyond the recorded
// fleet size (the fleet grew after this slot was written) as absent.
func (slot *referenceSlot) presentAt(i int) bool {
	return i < len(slot.present) && slot.present[i]
}

// newRingSlot allocates one empty look-back slot shaped for the current
// fleet size.
func (s *referenceSystem) newRingSlot() referenceSlot {
	var slot referenceSlot
	n := len(s.ids)
	slot.zf = mat.NewFrame(n, s.cfg.Resources)
	slot.z = frameRows(slot.zf, nil)
	slot.assignments = make([][]int, s.nTrackers)
	slot.centroids = make([][][]float64, s.nTrackers)
	slot.present = make([]bool, n)
	for tr := range slot.assignments {
		slot.assignments[tr] = make([]int, n)
		for i := range slot.assignments[tr] {
			slot.assignments[tr][i] = -1
		}
		slot.centroids[tr] = referenceMatrix(s.cfg.K, s.dims)
	}
	return slot
}

// maskSlot erases one node's trace from a live look-back slot: absent
// presence and -1 assignments (its z values are unreachable once masked).
// Never called on published snapshot slots, which stay immutable.
func referenceMaskSlot(slot *referenceSlot, i int) {
	slot.present[i] = false
	for tr := range slot.assignments {
		slot.assignments[tr][i] = -1
	}
}

// growSlot extends a slot's per-node arrays to n entries in place (new
// entries are absent). Never called on slots inside a published snapshot
// window, which stay immutable at the size they were written (a retiree
// recycled through the arena is grown here after its retention expires).
func referenceGrowSlot(slot *referenceSlot, n, nTrackers int) {
	if len(slot.z) < n {
		slot.zf.Grow(n)
		slot.z = frameRows(slot.zf, slot.z)
	}
	for len(slot.present) < n {
		slot.present = append(slot.present, false)
	}
	for tr := 0; tr < nTrackers; tr++ {
		for len(slot.assignments[tr]) < n {
			slot.assignments[tr] = append(slot.assignments[tr], -1)
		}
	}
}

// newMatrix allocates an n×d matrix whose rows share one backing array.
func referenceMatrix(n, d int) [][]float64 {
	flat := make([]float64, n*d)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*d : (i+1)*d : (i+1)*d]
	}
	return rows
}

// AddNodes joins new members to the fleet, one per stable ID. Each joiner
// gets a fresh policy and meter and an empty history: it is masked out of
// clustering until its first stored measurement and out of eq. (12) windows
// until presence accumulates, so existing members' assignments and
// forecasts are unperturbed. Departed slots are recycled (lowest slot
// first) before the fleet grows; a previously evicted ID may rejoin and
// never inherits its old history. IDs must be non-negative and not already
// live. Call it from the stepping goroutine, between Steps.
func (s *referenceSystem) AddNodes(ids ...int) error {
	if len(ids) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("core: node ID %d < 0: %w", id, ErrBadConfig)
		}
		if _, live := s.byID[id]; live || seen[id] {
			return fmt.Errorf("core: node %d already a member: %w", id, ErrBadConfig)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if err := s.addSlot(id); err != nil {
			return err
		}
	}
	s.rosterGen++
	return nil
}

// RemoveNodes departs live members immediately (the administrative
// counterpart of the absence timeout): their slots are tombstoned, their
// history masked, and their IDs retired until a future AddNodes rejoins
// them fresh. Surviving members are unperturbed. Call it from the stepping
// goroutine, between Steps.
func (s *referenceSystem) RemoveNodes(ids ...int) error {
	for _, id := range ids {
		if _, ok := s.byID[id]; !ok {
			return fmt.Errorf("core: node %d is not a live member: %w", id, ErrBadConfig)
		}
	}
	for _, id := range ids {
		s.evictSlot(s.byID[id])
	}
	return nil
}

// addSlot binds one new member to a slot: the lowest free (tombstoned) slot
// when one exists, else a freshly appended one.
func (s *referenceSystem) addSlot(id int) error {
	i := len(s.ids)
	if len(s.free) > 0 {
		i = s.free[0]
	}
	return s.addSlotAt(i, id)
}

// addSlotAt binds a new member to a specific slot — a tombstoned one or the
// next append position (used by addSlot and by roster reconciliation during
// WAL replay, which must reproduce the original slot layout exactly).
func (s *referenceSystem) addSlotAt(i, id int) error {
	switch {
	case i == len(s.ids):
		s.ids = append(s.ids, 0)
		s.alive = append(s.alive, false)
		s.absentFor = append(s.absentFor, 0)
		s.presentBuf = append(s.presentBuf, false)
		s.policies = append(s.policies, nil)
		s.meters = append(s.meters, transmit.Meter{})
		s.z = append(s.z, nil)
		s.growBacking()
		n := len(s.ids)
		for si := range s.ring {
			referenceGrowSlot(&s.ring[si], n, s.nTrackers)
		}
		referenceGrowSlot(&s.stage, n, s.nTrackers)
	default:
		at := -1
		for fi, f := range s.free {
			if f == i {
				at = fi
				break
			}
		}
		if at < 0 {
			return fmt.Errorf("core: slot %d is not free: %w", i, ErrBadConfig)
		}
		s.free = append(s.free[:at], s.free[at+1:]...)
		// The slot's ring history was masked at eviction; mask again
		// defensively and drop published-window sharing — old published
		// slots still show the previous occupant as present, so the next
		// snapshot must rebuild its window from the live ring.
		for si := range s.ring {
			referenceMaskSlot(&s.ring[si], i)
		}
		referenceMaskSlot(&s.stage, i)
		for _, tr := range s.trackers {
			tr.ForgetSlot(i)
		}
	}
	p, err := s.cfg.Policy(i)
	if err != nil {
		return fmt.Errorf("core: policy for node %d (slot %d): %w", id, i, err)
	}
	if p == nil {
		return fmt.Errorf("core: nil policy for node %d: %w", id, ErrBadConfig)
	}
	s.policies[i] = p
	s.meters[i] = transmit.Meter{}
	s.ids[i] = id
	s.alive[i] = true
	s.absentFor[i] = 0
	s.z[i] = nil
	s.byID[id] = i
	return nil
}

// growBacking grows the flat z frame (and the scalar-clustering point
// frames) after the slot count grew, re-pointing the row views.
func (s *referenceSystem) growBacking() {
	n := len(s.ids)
	s.zf.Grow(n)
	for i := range s.z {
		if s.z[i] != nil {
			s.z[i] = s.zf.Row(i)
		}
	}
	if !s.cfg.JointClustering {
		for tr := range s.pts {
			s.ptsF[tr].Grow(n)
			s.pts[tr] = frameRows(s.ptsF[tr], s.pts[tr])
		}
	}
}

// evictSlot departs the member occupying slot i: the stable ID is retired,
// the slot tombstoned for reuse, and every trace of the member masked out
// of the live look-back (so a later occupant of the slot starts blank and
// the member itself forecasts as NaN immediately).
func (s *referenceSystem) evictSlot(i int) {
	delete(s.byID, s.ids[i])
	s.alive[i] = false
	s.absentFor[i] = 0
	s.z[i] = nil
	s.policies[i] = nil
	s.meters[i] = transmit.Meter{}
	for si := range s.ring {
		referenceMaskSlot(&s.ring[si], i)
	}
	referenceMaskSlot(&s.stage, i)
	for _, tr := range s.trackers {
		tr.ForgetSlot(i)
	}
	// Keep the free list ascending so slot reuse is deterministic.
	at := len(s.free)
	for at > 0 && s.free[at-1] > i {
		at--
	}
	s.free = append(s.free, 0)
	copy(s.free[at+1:], s.free[at:])
	s.free[at] = i
	s.evictions++
	s.rosterGen++
}

// Stored returns a copy of the measurements currently held at the central
// node (z_t). Entries are nil for nodes that never transmitted.
func (s *referenceSystem) Stored() [][]float64 {
	out := make([][]float64, len(s.z))
	for i, zi := range s.z {
		if zi != nil {
			out[i] = append([]float64(nil), zi...)
		}
	}
	return out
}

func (s *referenceSystem) Step(x [][]float64) (*StepResult, error) {
	if len(x) != len(s.ids) {
		return nil, fmt.Errorf("core: %d rows in step, want %d fleet slots: %w", len(x), len(s.ids), ErrBadInput)
	}
	for i, xi := range x {
		if xi == nil {
			continue
		}
		if !s.alive[i] {
			return nil, fmt.Errorf("core: slot %d holds no live member but got a report: %w", i, ErrBadInput)
		}
		if len(xi) != s.cfg.Resources {
			return nil, fmt.Errorf("core: node %d has dim %d, want %d: %w",
				i, len(xi), s.cfg.Resources, ErrBadInput)
		}
		for d, v := range xi {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("core: node %d resource %d is %v: %w",
					i, d, v, ErrBadInput)
			}
		}
	}
	// The members clustered this step: the stored ones and the reporting
	// ones that have nothing stored, whose first report the walk stores.
	nPresent := 0
	for i, xi := range x {
		if s.alive[i] && (s.z[i] != nil || xi != nil) {
			nPresent++
		}
	}
	if nPresent < s.cfg.K {
		return nil, fmt.Errorf("core: %d present members < K=%d — grow the fleet (AddNodes) "+
			"or wait for first transmissions before stepping: %w", nPresent, s.cfg.K, ErrBadInput)
	}
	s.t++
	res := &StepResult{
		T:           s.t,
		Transmitted: make([]bool, len(x)),
		Present:     make([]bool, len(x)),
		PerResource: make([]ResourceStep, s.nTrackers),
	}
	ob := s.cfg.PhaseObserver
	var tIngest time.Time
	if ob != nil {
		tIngest = time.Now()
	}

	// Layer 1: transmission decisions update the central store in place,
	// and a member's first report is stored whatever its policy decided;
	// silent live members accrue absence. Members at the timeout are only
	// marked for eviction here, and evicted after the presence mask.
	var evict []int
	for i, xi := range x {
		if !s.alive[i] {
			continue
		}
		if xi == nil {
			s.absentFor[i]++
			if s.cfg.AbsenceTimeout > 0 && s.absentFor[i] >= s.cfg.AbsenceTimeout {
				evict = append(evict, i)
			}
			continue
		}
		s.absentFor[i] = 0
		if s.policies[i].Decide(s.t, xi, s.z[i]) || s.z[i] == nil {
			if s.z[i] == nil {
				s.z[i] = s.zf.Row(i)
			}
			copy(s.z[i], xi)
			res.Transmitted[i] = true
		}
		s.meters[i].Observe(res.Transmitted[i])
	}

	// Presence mask: live members with a stored measurement take part in
	// clustering; joiners that have not reported yet stay masked (warm-up),
	// as do members departing this step.
	present := s.presentBuf
	for i := range present {
		present[i] = s.alive[i] && s.z[i] != nil
	}
	// Evictions never shrink the clustered set below K: when a mass outage
	// would (e.g. every agent silent after a collector restart), the excess
	// members are retained — still present with their last-known values —
	// and retried next step, so the pipeline degrades to serving stale
	// forecasts instead of failing. Deferral is by slot order
	// (deterministic, so WAL replay reproduces it).
	for _, i := range evict {
		if present[i] {
			if nPresent <= s.cfg.K {
				continue // deferred: absentFor stays past the timeout
			}
			present[i] = false
			nPresent--
		}
		res.Evicted = append(res.Evicted, s.ids[i])
		s.evictSlot(i)
	}
	copy(res.Present, present)

	// Record the store's state into the staging slot; it only enters the
	// eq. (12) look-back ring when the whole step succeeds.
	snap := &s.stage
	for i, zi := range s.z {
		if zi != nil {
			copy(snap.z[i], zi)
		}
	}
	copy(snap.present, present)

	if ob != nil {
		ob.ObserveStepPhase(PhaseIngest, time.Since(tIngest))
	}

	// Layers 2+3: per-tracker clustering and model maintenance. Trackers are
	// independent — each owns its RNG, ensemble, and the tr-indexed slots
	// written below — so the fan-out is deterministic. Phase timing sums CPU
	// time across trackers through atomics (integer adds commute, so the
	// worker schedule cannot perturb the total).
	var clusterNanos, refitNanos atomic.Int64
	err := parallel.ForEach(s.nTrackers, func(tr int) error {
		var t0 time.Time
		if ob != nil {
			t0 = time.Now()
		}
		step, err := s.trackers[tr].UpdateMasked(s.trackerPoints(tr), present)
		if err != nil {
			return fmt.Errorf("core: tracker %d: %w", tr, err)
		}
		var t1 time.Time
		if ob != nil {
			t1 = time.Now()
			clusterNanos.Add(int64(t1.Sub(t0)))
		}
		if err := s.ensembles[tr].Observe(step.Centroids); err != nil {
			return fmt.Errorf("core: ensemble %d: %w", tr, err)
		}
		if ob != nil {
			refitNanos.Add(int64(time.Since(t1)))
		}
		res.PerResource[tr] = ResourceStep{
			Assignments: step.Assignments,
			Centroids:   step.Centroids,
		}
		copy(snap.assignments[tr], step.Assignments)
		for j, c := range step.Centroids {
			copy(snap.centroids[tr][j], c)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if ob != nil {
		ob.ObserveStepPhase(PhaseCluster, time.Duration(clusterNanos.Load()))
		ob.ObserveStepPhase(PhaseRefit, time.Duration(refitNanos.Load()))
	}

	// Commit: swap the staged slot with the oldest ring slot (slice headers
	// only — no copying), making it the current look-back entry.
	var tCommit time.Time
	if ob != nil {
		tCommit = time.Now()
	}
	s.head = (s.head + 1) % len(s.ring)
	if s.ringLen < len(s.ring) {
		s.ringLen++
	}
	s.ring[s.head], s.stage = s.stage, s.ring[s.head]

	if ob != nil {
		ob.ObserveStepPhase(PhasePublish, time.Since(tCommit))
	}
	return res, nil
}

// trackerPoints projects the stored measurements into the point space of
// tracker tr: scalars of resource tr (reusing the per-tracker buffer), or
// the stored vectors themselves for joint clustering (the tracker reads the
// points but never retains them). Rows of slots without a stored
// measurement are zero/nil — the presence mask keeps them out of
// clustering.
func (s *referenceSystem) trackerPoints(tr int) [][]float64 {
	if s.cfg.JointClustering {
		return s.z
	}
	flat := s.ptsF[tr].Data()
	for i, zi := range s.z {
		if zi == nil {
			flat[i] = 0
			continue
		}
		flat[i] = zi[tr]
	}
	return s.pts[tr]
}

// snapAt returns the ring slot from `ago` steps back (0 = current step);
// ago must be < ringLen.
func (s *referenceSystem) snapAt(ago int) *referenceSlot {
	n := len(s.ring)
	return &s.ring[(s.head-ago+n)%n]
}

func (s *referenceSystem) ExportState() (*State, error) {
	st := &State{
		Version:     StateVersion,
		Fingerprint: s.cfg.Fingerprint(),
		T:           s.t,
		IDs:         append([]int(nil), s.ids...),
		Alive:       append([]bool(nil), s.alive...),
		AbsentFor:   append([]int(nil), s.absentFor...),
		Evictions:   s.evictions,
	}

	st.Policies = make([][]byte, len(s.policies))
	for i, p := range s.policies {
		if p == nil {
			continue // tombstoned slot
		}
		pp, ok := p.(transmit.Persistent)
		if !ok {
			return nil, fmt.Errorf("core: node %d policy %T: %w", i, p, ErrNotPersistent)
		}
		b, err := pp.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("core: node %d policy state: %w", i, err)
		}
		st.Policies[i] = b
	}

	st.Meters = make([]MeterState, len(s.meters))
	for i := range s.meters {
		st.Meters[i] = MeterState{Steps: s.meters[i].Steps(), Transmits: s.meters[i].Transmits()}
	}

	st.ZSet = make([]bool, len(s.z))
	st.Z = make([][]float64, len(s.z))
	for i, zi := range s.z {
		if zi != nil {
			st.ZSet[i] = true
			st.Z[i] = append([]float64(nil), zi...)
		}
	}

	st.Window = make([]SlotState, s.ringLen)
	for ago := 0; ago < s.ringLen; ago++ {
		st.Window[ago] = referenceExportSlot(s.snapAt(ago))
	}

	st.Trackers = make([]*cluster.State, s.nTrackers)
	st.Ensembles = make([]*forecast.EnsembleState, s.nTrackers)
	st.TrackerRNGs = make([][]byte, s.nTrackers)
	err := parallel.ForEach(s.nTrackers, func(tr int) error {
		st.Trackers[tr] = s.trackers[tr].ExportState()
		st.Ensembles[tr] = s.ensembles[tr].ExportState()
		rng, err := s.pcgs[tr].MarshalBinary()
		if err != nil {
			return fmt.Errorf("core: tracker %d rng: %w", tr, err)
		}
		st.TrackerRNGs[tr] = rng
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// exportSlot deep-copies one look-back slot.
func referenceExportSlot(slot *referenceSlot) SlotState {
	out := SlotState{
		Z:           make([][]float64, len(slot.z)),
		Assignments: make([][]int, len(slot.assignments)),
		Centroids:   make([][][]float64, len(slot.centroids)),
		Present:     append([]bool(nil), slot.present...),
	}
	for i, zi := range slot.z {
		out.Z[i] = append([]float64(nil), zi...)
	}
	for tr := range slot.assignments {
		out.Assignments[tr] = append([]int(nil), slot.assignments[tr]...)
		out.Centroids[tr] = make([][]float64, len(slot.centroids[tr]))
		for j, c := range slot.centroids[tr] {
			out.Centroids[tr][j] = append([]float64(nil), c...)
		}
	}
	return out
}

// coreStateDigest fingerprints an exported State, floats by bit pattern.
// Three things are left out: the snapshot generation (the reference does not
// publish), the ensembles' wall-clock training time, and the stored values a
// look-back slot holds for members that were not present at its step —
// nothing reads those, and the two pipelines leave different leftovers there
// (the reference whatever the recycled ring slot last held, the flat store a
// copy of the central store).
func coreStateDigest(st *State) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ints := func(vs []int) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			u64(uint64(int64(v)))
		}
	}
	bools := func(vs []bool) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			if v {
				u64(1)
			} else {
				u64(0)
			}
		}
	}
	floats := func(vs []float64) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(st.Version))
	u64(st.Fingerprint)
	u64(uint64(st.T))
	ints(st.IDs)
	bools(st.Alive)
	ints(st.AbsentFor)
	u64(st.Evictions)
	bools(st.ZSet)
	for _, z := range st.Z {
		floats(z)
	}
	u64(uint64(len(st.Window)))
	for _, w := range st.Window {
		bools(w.Present)
		for i, z := range w.Z {
			if w.Present[i] {
				floats(z)
			}
		}
		for _, a := range w.Assignments {
			ints(a)
		}
		for _, tr := range w.Centroids {
			for _, c := range tr {
				floats(c)
			}
		}
	}
	for _, m := range st.Meters {
		u64(uint64(m.Steps))
		u64(uint64(m.Transmits))
	}
	for _, p := range st.Policies {
		u64(uint64(len(p)))
		h.Write(p)
	}
	for _, r := range st.TrackerRNGs {
		h.Write(r)
	}
	for _, tr := range st.Trackers {
		u64(uint64(tr.T))
		u64(uint64(tr.Dim))
		u64(uint64(tr.N))
		for _, row := range tr.Hist {
			ints(row)
		}
	}
	for _, e := range st.Ensembles {
		u64(uint64(e.T))
		u64(uint64(e.LastRefit))
		u64(uint64(e.TrainRuns))
		u64(uint64(e.SeriesStart))
		bools([]bool{e.Ready})
		for _, cl := range e.Series {
			for _, series := range cl {
				floats(series)
			}
		}
	}
	return h.Sum64()
}

// referenceFleetInput builds step's input rows for the scenario of
// TestStepMatchesReferenceExactly: smooth per-node signals, except that at
// step 40 every node reports one of two values (previous centroids cannot
// keep three clusters populated: the emptied-cluster fallback) and at step 46
// the nodes trade levels (churn past any threshold).
func referenceFleetInput(roster *Roster, step int, silent map[int]bool) [][]float64 {
	x := make([][]float64, roster.Slots())
	for i := range x {
		id, live := roster.IDAt(i)
		if !live || silent[id] {
			continue
		}
		x[i] = churnRow(id, step, 2)
		switch step {
		case 40:
			x[i] = []float64{0.1 + 0.8*float64(id%2), 0.9 - 0.8*float64(id%2)}
		case 46:
			x[i] = churnRow(id+1, step+15, 2)
		}
	}
	return x
}

// sameClusterings compares two results' per-tracker outcomes: equal
// assignment vectors, centroids equal bit for bit.
func sameClusterings(t *testing.T, step int, got, want *StepResult) {
	t.Helper()
	if len(got.PerResource) != len(want.PerResource) {
		t.Fatalf("step %d: %d trackers, reference %d", step, len(got.PerResource), len(want.PerResource))
	}
	for tr, w := range want.PerResource {
		g := got.PerResource[tr]
		if !slices.Equal(g.Assignments, w.Assignments) {
			t.Fatalf("step %d tracker %d: assignments %v, reference %v", step, tr, g.Assignments, w.Assignments)
		}
		if len(g.Centroids) != len(w.Centroids) {
			t.Fatalf("step %d tracker %d: %d centroids, reference %d", step, tr, len(g.Centroids), len(w.Centroids))
		}
		for j := range w.Centroids {
			if len(g.Centroids[j]) != len(w.Centroids[j]) {
				t.Fatalf("step %d tracker %d: centroid %d has dim %d, reference %d",
					step, tr, j, len(g.Centroids[j]), len(w.Centroids[j]))
			}
			for d, wv := range w.Centroids[j] {
				if gv := g.Centroids[j][d]; math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("step %d tracker %d: centroid %d dim %d = %v, reference %v (bitwise)", step, tr, j, d, gv, wv)
				}
			}
		}
	}
}

// TestStepMatchesReferenceExactly is the differential oracle of the flat
// step path: the same inputs and membership changes go through the
// pre-change pipeline (referenceSystem) and the System, and after every step
// the result, the central store, the refit counts and the exported state
// must be identical — over scalar and joint clustering, full refits, warm
// starts and their forced fallbacks, serial and pooled trackers, with and
// without publishing, on a fleet with an absence-timeout eviction, an
// administrative removal, recycled slots, a tombstone, growth and a joiner
// that is a member before its first report.
func TestStepMatchesReferenceExactly(t *testing.T) {
	type variant struct {
		joint    bool
		inc      bool
		churn    float64
		always   bool
		snapshot int
	}
	var variants []variant
	for _, joint := range []bool{false, true} {
		for _, always := range []bool{false, true} {
			variants = append(variants,
				variant{joint, false, 0, always, 0},
				variant{joint, true, 0, always, 3},
				variant{joint, true, 0.9, always, 0},
				variant{joint, true, -1, always, 3})
		}
	}
	var warmSeen, fullSeen, maskedSeen, evictedSeen atomic.Int64
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			setMaxProcs(t, procs)
			for _, v := range variants {
				t.Run(fmt.Sprintf("%+v", v), func(t *testing.T) {
					t.Parallel()
					cfg := churnConfig(10)
					cfg.AbsenceTimeout = 3
					cfg.JointClustering = v.joint
					cfg.IncrementalRefit = v.inc
					cfg.IncrementalChurn = v.churn
					if v.always {
						cfg.Policy = func(int) (transmit.Policy, error) { return transmit.Always{}, nil }
					}
					ref := newReferenceSystem(t, cfg)
					cfg.SnapshotHorizon = v.snapshot
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					both := func(op string, fn func(add, remove func(ids ...int) error) error) {
						t.Helper()
						if err := fn(ref.AddNodes, ref.RemoveNodes); err != nil {
							t.Fatalf("%s: reference: %v", op, err)
						}
						if err := fn(sys.AddNodes, sys.RemoveNodes); err != nil {
							t.Fatalf("%s: %v", op, err)
						}
					}
					silent := map[int]bool{}
					for step := 1; step <= 60; step++ {
						switch step {
						case 14:
							silent[2] = true // evicted by the absence timeout at step 16
						case 20:
							both("remove", func(_, remove func(...int) error) error { return remove(5) })
						case 24: // recycles slot 2
							both("join", func(add, _ func(...int) error) error { return add(100) })
						case 28: // 101 recycles slot 5, 102 grows the fleet and reports from step 30
							both("join", func(add, _ func(...int) error) error { return add(101, 102) })
							silent[102] = true
						case 30:
							delete(silent, 102)
						case 50: // a tombstone that stays
							both("remove", func(_, remove func(...int) error) error { return remove(7) })
						}
						x := referenceFleetInput(sys.Roster(), step, silent)
						want, err := ref.Step(x)
						if err != nil {
							t.Fatalf("step %d: reference: %v", step, err)
						}
						got, err := sys.Step(x)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if got.T != want.T || !slices.Equal(got.Transmitted, want.Transmitted) ||
							!slices.Equal(got.Present, want.Present) || !slices.Equal(got.Evicted, want.Evicted) {
							t.Fatalf("step %d: result header differs:\n got %+v\nwant %+v", step, got, want)
						}
						sameClusterings(t, step, got, want)
						if !reflect.DeepEqual(sys.Stored(), ref.Stored()) {
							t.Fatalf("step %d: central stores differ", step)
						}
						gw, gf := sys.RefitStats()
						ww, wf := ref.RefitStats()
						if gw != ww || gf != wf {
							t.Fatalf("step %d: RefitStats (%d,%d), reference (%d,%d)", step, gw, gf, ww, wf)
						}
						gotState, err := sys.ExportState()
						if err != nil {
							t.Fatal(err)
						}
						wantState, err := ref.ExportState()
						if err != nil {
							t.Fatal(err)
						}
						if g, w := coreStateDigest(gotState), coreStateDigest(wantState); g != w {
							t.Fatalf("step %d: ExportState digest %016x, reference %016x", step, g, w)
						}
						if slices.Contains(got.Present, false) {
							maskedSeen.Add(1)
						}
						evictedSeen.Add(int64(len(got.Evicted)))
					}
					warm, full := sys.RefitStats()
					if accepts := v.inc && v.churn >= 0; (warm > 0) != accepts {
						t.Fatalf("%d warm tracker steps, incremental accepts=%v", warm, accepts)
					}
					warmSeen.Add(int64(warm))
					fullSeen.Add(int64(full))
				})
			}
		})
	}
	t.Logf("covered: %d warm and %d full tracker steps, %d masked steps, %d timeout evictions",
		warmSeen.Load(), fullSeen.Load(), maskedSeen.Load(), evictedSeen.Load())
	if warmSeen.Load() == 0 || fullSeen.Load() == 0 || maskedSeen.Load() == 0 || evictedSeen.Load() == 0 {
		t.Fatalf("scenario lost coverage: warm=%d full=%d masked steps=%d evictions=%d",
			warmSeen.Load(), fullSeen.Load(), maskedSeen.Load(), evictedSeen.Load())
	}
}

// frameRows appends a view of every row of f to dst[:0] and returns it,
// reusing dst's backing array when it is large enough: the slice-of-rows
// layout the reference pipeline keeps over its flat frames.
func frameRows(f *mat.Frame, dst [][]float64) [][]float64 {
	dst = dst[:0]
	for i := 0; i < len(f.Data())/f.Cols(); i++ {
		dst = append(dst, f.Row(i))
	}
	return dst
}
