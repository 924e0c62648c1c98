package cluster

// Differential test plane for the incremental eq. (10) refit path: a
// test-local array-of-structs oracle re-implements the historical tracker
// (prepend-list history, O(N·M) core-set scan, per-call scratch) plus the
// same warm/fallback decision procedure, and the property tests drive both
// through randomized workloads × membership churn × every Similarity mode,
// requiring bit-identical steps and RNG streams throughout.

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"orcf/internal/hungarian"
	"orcf/internal/kmeans"
)

// oracleTracker is the slow reference. Its full-refit path is the historical
// implementation verbatim; its warm path mirrors the documented decision
// procedure using oracleNearest per point.
type oracleTracker struct {
	cfg       Config
	rng       *rand.Rand
	t         int
	dim       int
	n         int
	hist      [][]int
	prevCents [][]float64
	series    [][][]float64
}

// oracleNearest is the slice-of-rows nearest-centroid scan: the strict-<,
// ascending-index float compare.
func oracleNearest(p []float64, centroids [][]float64) int {
	best, bestD := 0, math.Inf(1)
	for j, c := range centroids {
		if d := kmeans.SqDist(p, c); d < bestD {
			best, bestD = j, d
		}
	}
	return best
}

func newOracle(cfg Config, rng *rand.Rand) *oracleTracker {
	return &oracleTracker{cfg: cfg.withDefaults(), rng: rng}
}

func (o *oracleTracker) histAt(ago, slot int) int {
	h := o.hist[ago]
	if slot >= len(h) {
		return -1
	}
	return h[slot]
}

func (o *oracleTracker) forgetSlot(slot int) {
	for m := range o.hist {
		if slot < len(o.hist[m]) {
			o.hist[m][slot] = -1
		}
	}
}

func (o *oracleTracker) matchToHistory(raw []int) []int {
	k := o.cfg.K
	lookback := min(o.cfg.M, o.t)
	core := make([]int, len(raw))
	for i := range core {
		j := o.histAt(0, i)
		for m := 1; m < lookback && j >= 0; m++ {
			if o.histAt(m, i) != j {
				j = -1
			}
		}
		core[i] = j
	}
	inter := make([][]float64, k)
	for kk := range inter {
		inter[kk] = make([]float64, k)
	}
	rawSize := make([]float64, k)
	coreSize := make([]float64, k)
	for i, kk := range raw {
		if kk < 0 {
			continue
		}
		rawSize[kk]++
		if j := core[i]; j >= 0 {
			coreSize[j]++
			inter[kk][j]++
		}
	}
	w := inter
	if o.cfg.Similarity == SimilarityJaccard {
		w = make([][]float64, k)
		for kk := range w {
			w[kk] = make([]float64, k)
			for j := range w[kk] {
				union := rawSize[kk] + coreSize[j] - inter[kk][j]
				if union > 0 {
					w[kk][j] = inter[kk][j] / union
				}
			}
		}
	}
	mapping, _, err := hungarian.MaxWeightMatch(w)
	if err != nil {
		panic(err)
	}
	return mapping
}

func (o *oracleTracker) stabilize(raw []int) []int {
	if o.t == 0 || o.cfg.DisableMatching {
		return raw
	}
	mapping := o.matchToHistory(raw)
	stable := make([]int, len(raw))
	for i, k := range raw {
		if k < 0 {
			stable[i] = -1
			continue
		}
		stable[i] = mapping[k]
	}
	return stable
}

// update returns the step and whether it was warm-started.
func (o *oracleTracker) update(points [][]float64, present []bool) (*Step, bool) {
	var packed [][]float64
	var packIdx []int
	for i, p := range points {
		if present == nil || present[i] {
			if o.dim == 0 {
				o.dim = len(p)
			}
			packed = append(packed, p)
			packIdx = append(packIdx, i)
		}
	}
	o.n = len(points)
	pn := len(packed)

	scatter := func(assign []int) []int {
		raw := make([]int, len(points))
		for i := range raw {
			raw[i] = -1
		}
		for pi, slot := range packIdx {
			raw[slot] = assign[pi]
		}
		return raw
	}

	var stable []int
	warm := false
	if o.cfg.Incremental && o.t > 0 && o.cfg.IncrementalChurn >= 0 &&
		pn > o.cfg.K && len(o.prevCents) == o.cfg.K {
		same := true
		for i := range points {
			p := present == nil || present[i]
			if p != (o.histAt(0, i) >= 0) {
				same = false
				break
			}
		}
		if same {
			warmAssign := make([]int, pn)
			counts := make([]int, o.cfg.K)
			for pi, p := range packed {
				warmAssign[pi] = oracleNearest(p, o.prevCents)
				counts[warmAssign[pi]]++
			}
			empty := false
			for _, c := range counts {
				if c == 0 {
					empty = true
				}
			}
			if !empty {
				cand := o.stabilize(scatter(warmAssign))
				thr := o.cfg.IncrementalChurn
				if thr == 0 {
					thr = DefaultIncrementalChurn
				}
				changed := 0
				for _, slot := range packIdx {
					if cand[slot] != o.histAt(0, slot) {
						changed++
					}
				}
				if float64(changed) <= thr*float64(pn) {
					stable, warm = cand, true
				}
			}
		}
	}
	if !warm {
		res, err := kmeans.Run(packed, kmeans.Config{K: o.cfg.K}, o.rng)
		if err != nil {
			panic(err)
		}
		stable = o.stabilize(scatter(res.Assignments))
	}

	cents := CentroidsFor(stable, o.cfg.K, points)
	o.t++
	cp := make([]int, len(stable))
	copy(cp, stable)
	o.hist = append([][]int{cp}, o.hist...)
	if len(o.hist) > o.cfg.HistoryDepth {
		o.hist = o.hist[:o.cfg.HistoryDepth]
	}
	if o.series == nil {
		o.series = make([][][]float64, o.cfg.K)
		for j := range o.series {
			o.series[j] = make([][]float64, o.dim)
		}
	}
	o.prevCents = make([][]float64, o.cfg.K)
	for j := 0; j < o.cfg.K; j++ {
		o.prevCents[j] = append([]float64(nil), cents[j]...)
		for d := 0; d < o.dim; d++ {
			o.series[j][d] = append(o.series[j][d], cents[j][d])
		}
	}
	return &Step{T: o.t, Assignments: stable, Centroids: cents}, warm
}

// churnSim generates a randomized elastic-fleet workload: drifting grouped
// measurements over a slot array with joins, leaves, and rejoins.
type churnSim struct {
	rng     *rand.Rand
	k       int
	dim     int
	present []bool
	step    int
}

func newChurnSim(rng *rand.Rand, k, dim, slots int) *churnSim {
	sim := &churnSim{rng: rng, k: k, dim: dim, present: make([]bool, slots)}
	for i := range sim.present {
		sim.present[i] = true
	}
	return sim
}

// next returns the points and mask for one step, mutating membership with
// probability churn. forget reports slots whose history must be erased
// (leavers and recycled rejoiners), mirroring core.System's calls.
func (sim *churnSim) next(churn float64) (points [][]float64, present []bool, forget []int) {
	sim.step++
	if sim.rng.Float64() < churn {
		switch sim.rng.IntN(3) {
		case 0: // leave
			if n := sim.presentCount(); n > sim.k+2 {
				idx := sim.nthPresent(sim.rng.IntN(n))
				sim.present[idx] = false
				forget = append(forget, idx)
			}
		case 1: // rejoin an absent slot (recycled: history erased)
			for i, p := range sim.present {
				if !p {
					sim.present[i] = true
					forget = append(forget, i)
					break
				}
			}
		case 2: // grow: a brand-new slot joins
			if len(sim.present) < 64 {
				sim.present = append(sim.present, true)
			}
		}
	}
	points = make([][]float64, len(sim.present))
	present = append([]bool(nil), sim.present...)
	for i, p := range sim.present {
		if !p {
			continue // absent points may be nil
		}
		g := i % sim.k
		level := float64(g)*10 + 2*math.Sin(float64(sim.step)/7+float64(g))
		vec := make([]float64, sim.dim)
		for d := range vec {
			vec[d] = level + sim.rng.NormFloat64()*0.5
		}
		points[i] = vec
	}
	return points, present, forget
}

func (sim *churnSim) presentCount() int {
	n := 0
	for _, p := range sim.present {
		if p {
			n++
		}
	}
	return n
}

func (sim *churnSim) nthPresent(n int) int {
	for i, p := range sim.present {
		if p {
			if n == 0 {
				return i
			}
			n--
		}
	}
	return -1
}

func sameStep(t *testing.T, tag string, got, want *Step) {
	t.Helper()
	if got.T != want.T {
		t.Fatalf("%s: T=%d, want %d", tag, got.T, want.T)
	}
	if len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("%s: %d assignments, want %d", tag, len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			t.Fatalf("%s: assign[%d]=%d, want %d", tag, i, got.Assignments[i], want.Assignments[i])
		}
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d centroids, want %d", tag, len(got.Centroids), len(want.Centroids))
	}
	for j := range want.Centroids {
		for d := range want.Centroids[j] {
			g, w := got.Centroids[j][d], want.Centroids[j][d]
			if math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: centroid[%d][%d]=%v, want %v (bitwise)", tag, j, d, g, w)
			}
		}
	}
}

// trackerConfigs enumerates the similarity modes (and a matching-disabled
// ablation) every differential property must hold under.
func trackerConfigs(base Config) []Config {
	prop, jacc, nomatch := base, base, base
	prop.Similarity = SimilarityProposed
	jacc.Similarity = SimilarityJaccard
	nomatch.DisableMatching = true
	return []Config{prop, jacc, nomatch}
}

// TestIncrementalMatchesOracleExactly is the tentpole differential property:
// the incremental tracker must be bit-identical to the array-of-structs
// oracle — same assignments, centroids, warm/full decisions, and RNG draw
// sequence — over randomized workloads with join/evict/rejoin churn, in
// every similarity mode, at several churn thresholds including the default.
func TestIncrementalMatchesOracleExactly(t *testing.T) {
	t.Parallel()
	for _, thr := range []float64{0, 0.05, 0.9} {
		for ci, cfg := range trackerConfigs(Config{K: 3, M: 2, Incremental: true, IncrementalChurn: thr}) {
			for seed := uint64(1); seed <= 4; seed++ {
				tag := fmt.Sprintf("thr=%v cfg=%d seed=%d", thr, ci, seed)
				tr, err := NewTracker(cfg, testRNG(seed))
				if err != nil {
					t.Fatal(err)
				}
				or := newOracle(cfg, testRNG(seed))
				sim := newChurnSim(rand.New(rand.NewPCG(seed, 99)), cfg.K, 2, 24)
				warmSeen := 0
				for step := 0; step < 60; step++ {
					points, present, forget := sim.next(0.3)
					for _, slot := range forget {
						tr.ForgetSlot(slot)
						or.forgetSlot(slot)
					}
					got, err := tr.UpdateMasked(points, present)
					if err != nil {
						t.Fatalf("%s step %d: %v", tag, step, err)
					}
					want, warm := or.update(points, present)
					sameStep(t, fmt.Sprintf("%s step %d", tag, step), got, want)
					w, f := tr.RefitStats()
					if warm {
						warmSeen++
					}
					if w != warmSeen || w+f != tr.t {
						t.Fatalf("%s step %d: RefitStats=(%d,%d), oracle warm=%d steps=%d",
							tag, step, w, f, warmSeen, tr.t)
					}
				}
				if a, b := tr.rng.Uint64(), or.rng.Uint64(); a != b {
					t.Fatalf("%s: RNG streams diverged", tag)
				}
				if warmSeen == 0 && thr == 0.9 {
					t.Fatalf("%s: high threshold never warm-started; property vacuous", tag)
				}
			}
		}
	}
}

// TestForcedFallbackMatchesPlainTracker pins the differential-test boundary:
// with IncrementalChurn < 0 every step must fall back to a full refit and the
// tracker is bit-identical — including the RNG stream — to one with
// Incremental off.
func TestForcedFallbackMatchesPlainTracker(t *testing.T) {
	t.Parallel()
	for ci, cfg := range trackerConfigs(Config{K: 3, M: 2}) {
		inc := cfg
		inc.Incremental = true
		inc.IncrementalChurn = -1
		trInc, err := NewTracker(inc, testRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		trRef, err := NewTracker(cfg, testRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		sim := newChurnSim(rand.New(rand.NewPCG(7, 7)), cfg.K, 1, 20)
		for step := 0; step < 40; step++ {
			points, present, forget := sim.next(0.25)
			for _, slot := range forget {
				trInc.ForgetSlot(slot)
				trRef.ForgetSlot(slot)
			}
			a, err := trInc.UpdateMasked(points, present)
			if err != nil {
				t.Fatalf("cfg %d step %d: %v", ci, step, err)
			}
			b, err := trRef.UpdateMasked(points, present)
			if err != nil {
				t.Fatalf("cfg %d step %d: %v", ci, step, err)
			}
			sameStep(t, fmt.Sprintf("cfg %d step %d", ci, step), a, b)
		}
		if w, f := trInc.RefitStats(); w != 0 || f != trInc.t {
			t.Fatalf("cfg %d: forced fallback RefitStats=(%d,%d), want (0,%d)", ci, w, f, trInc.t)
		}
		if trInc.rng.Uint64() != trRef.rng.Uint64() {
			t.Fatalf("cfg %d: RNG streams diverged", ci)
		}
	}
}

// TestStreakCountersMatchHistoryScan pins the incremental core-set counters
// against the direct definition: slot i is in cluster j's eq. (10) core iff
// its assignment was j at all of the last min(M, t) steps.
func TestStreakCountersMatchHistoryScan(t *testing.T) {
	t.Parallel()
	for _, m := range []int{1, 2, 4} {
		cfg := Config{K: 3, M: m}
		tr, err := NewTracker(cfg, testRNG(11))
		if err != nil {
			t.Fatal(err)
		}
		sim := newChurnSim(rand.New(rand.NewPCG(uint64(m), 5)), cfg.K, 1, 18)
		for step := 0; step < 50; step++ {
			points, present, forget := sim.next(0.35)
			for _, slot := range forget {
				tr.ForgetSlot(slot)
			}
			if _, err := tr.UpdateMasked(points, present); err != nil {
				t.Fatalf("M=%d step %d: %v", m, step, err)
			}
			lookback := min(tr.cfg.M, tr.t)
			for i := 0; i < tr.n; i++ {
				want := tr.histAt(0, i)
				for ago := 1; ago < lookback && want >= 0; ago++ {
					if tr.histAt(ago, i) != want {
						want = -1
					}
				}
				got := -1
				if int(tr.runs[i].n) >= lookback {
					got = int(tr.runs[i].val)
				}
				if got != want {
					t.Fatalf("M=%d step %d slot %d: streak core %d, scan core %d", m, step, i, got, want)
				}
			}
		}
	}
}

// TestIncrementalRestoreResumesExactly pins that export/restore preserves the
// warm-start inputs (previous centroids, streak counters): a restored
// incremental tracker must continue bit-identically to the uninterrupted one.
func TestIncrementalRestoreResumesExactly(t *testing.T) {
	t.Parallel()
	cfg := Config{K: 3, M: 2, Incremental: true}
	src := rand.NewPCG(21, 42)
	tr, err := NewTracker(cfg, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	sim := newChurnSim(rand.New(rand.NewPCG(3, 33)), cfg.K, 2, 20)

	// Warm the tracker, then snapshot its state, RNG and last centroids.
	var last *Step
	for step := 0; step < 20; step++ {
		points, present, forget := sim.next(0.2)
		for _, slot := range forget {
			tr.ForgetSlot(slot)
		}
		if last, err = tr.UpdateMasked(points, present); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	st := tr.ExportState()
	rngBytes, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	src2 := rand.NewPCG(0, 0)
	if err := src2.UnmarshalBinary(rngBytes); err != nil {
		t.Fatal(err)
	}
	tr2, err := NewTracker(cfg, rand.New(src2))
	if err != nil {
		t.Fatal(err)
	}
	seed := slices.Concat(last.Centroids...)

	// A malformed seed or state is rejected and leaves tr2 unrestored; the
	// bit-identical tail below then also shows that nothing of it stuck.
	dimless := *st
	dimless.Dim = 0
	for _, bad := range []struct {
		name string
		st   *State
		seed []float64
	}{
		{"seed one value short", st, seed[:len(seed)-1]},
		{"seed with a zero-step state", &State{}, seed},
		{"dim 0 after steps", &dimless, nil},
	} {
		if err := tr2.RestoreState(bad.st, bad.seed); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: restore returned %v, want ErrBadInput", bad.name, err)
		}
		if tr2.t != 0 {
			t.Fatalf("%s: rejected restore left the tracker at t=%d", bad.name, tr2.t)
		}
	}
	if err := tr2.RestoreState(st, seed); err != nil {
		t.Fatal(err)
	}

	// Drive both trackers through the same tail; they must not diverge.
	for step := 0; step < 20; step++ {
		points, present, forget := sim.next(0.2)
		for _, slot := range forget {
			tr.ForgetSlot(slot)
			tr2.ForgetSlot(slot)
		}
		want, err := tr.UpdateMasked(points, present)
		if err != nil {
			t.Fatalf("tail %d: %v", step, err)
		}
		got, err := tr2.UpdateMasked(points, present)
		if err != nil {
			t.Fatalf("restored tail %d: %v", step, err)
		}
		sameStep(t, fmt.Sprintf("restored tail %d", step), got, want)
	}
	if w, _ := tr.RefitStats(); w == 0 {
		t.Fatal("no warm steps exercised; restore property vacuous")
	}
}

// TestRestoreKeepsNewestHistoryRows pins that a tracker keeping M assignment
// rows restores a history recorded six rows deep: restored at depth M it
// continues bit-identically to the same state restored at depth 6 —
// assignments, centroids, warm/full decisions and RNG draws — through churn,
// because the eq. (10) matching reads only the newest M rows.
func TestRestoreKeepsNewestHistoryRows(t *testing.T) {
	t.Parallel()
	const recorded = 6
	for _, m := range []int{1, 3} {
		for ci, cfg := range trackerConfigs(Config{K: 3, M: m, HistoryDepth: m, Incremental: true}) {
			tag := fmt.Sprintf("M=%d cfg=%d", m, ci)
			deep := cfg
			deep.HistoryDepth = recorded
			src := rand.NewPCG(uint64(m), 17)
			tr, err := NewTracker(deep, rand.New(src))
			if err != nil {
				t.Fatal(err)
			}
			sim := newChurnSim(rand.New(rand.NewPCG(uint64(m), 71)), cfg.K, 2, 20)
			var last *Step
			for step := 0; step < 20; step++ {
				points, present, forget := sim.next(0.3)
				for _, slot := range forget {
					tr.ForgetSlot(slot)
				}
				if last, err = tr.UpdateMasked(points, present); err != nil {
					t.Fatalf("%s step %d: %v", tag, step, err)
				}
			}
			st := tr.ExportState()
			if len(st.Hist) != recorded {
				t.Fatalf("%s: exported %d history rows, want %d", tag, len(st.Hist), recorded)
			}
			rngBytes, err := src.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			restore := func(c Config) *Tracker {
				pcg := rand.NewPCG(0, 0)
				if err := pcg.UnmarshalBinary(rngBytes); err != nil {
					t.Fatal(err)
				}
				r, err := NewTracker(c, rand.New(pcg))
				if err != nil {
					t.Fatal(err)
				}
				if err := r.RestoreState(st, slices.Concat(last.Centroids...)); err != nil {
					t.Fatalf("%s: restore at depth %d: %v", tag, r.cfg.HistoryDepth, err)
				}
				return r
			}
			shallow, full := restore(cfg), restore(deep)
			if shallow.histLen != m {
				t.Fatalf("%s: restored %d history rows at depth %d", tag, shallow.histLen, m)
			}
			for step := 0; step < 30; step++ {
				points, present, forget := sim.next(0.3)
				for _, slot := range forget {
					shallow.ForgetSlot(slot)
					full.ForgetSlot(slot)
				}
				want, err := full.UpdateMasked(points, present)
				if err != nil {
					t.Fatalf("%s tail %d: %v", tag, step, err)
				}
				got, err := shallow.UpdateMasked(points, present)
				if err != nil {
					t.Fatalf("%s tail %d at depth M: %v", tag, step, err)
				}
				sameStep(t, fmt.Sprintf("%s tail %d", tag, step), got, want)
				gw, gf := shallow.RefitStats()
				ww, wf := full.RefitStats()
				if gw != ww || gf != wf {
					t.Fatalf("%s tail %d: RefitStats (%d,%d) at depth M, (%d,%d) at depth %d", tag, step, gw, gf, ww, wf, recorded)
				}
			}
			if w, f := full.RefitStats(); w == 0 || f == 0 {
				t.Fatalf("%s: the tail ran %d warm and %d full steps, want both", tag, w, f)
			}
			if a, b := shallow.rng.Uint64(), full.rng.Uint64(); a != b {
				t.Fatalf("%s: RNG streams diverged", tag)
			}
		}
	}
}

// TestTrackerSteadyStateAllocs pins the scratch hoisting: once warmed up, an
// UpdateMasked step must allocate only its returned Step (plus the small
// K×K matching solve), independent of N.
func TestTrackerSteadyStateAllocs(t *testing.T) {
	cfg := Config{K: 3, M: 2}
	tr, err := NewTracker(cfg, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(i%3)*10 + float64(i)*1e-4}
	}
	present := make([]bool, n)
	for i := range present {
		present[i] = true
	}
	for step := 0; step < 5; step++ {
		if _, err := tr.UpdateMasked(points, present); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := tr.UpdateMasked(points, present); err != nil {
			t.Fatal(err)
		}
	})
	// The historical implementation allocated O(N) slices per step (raw,
	// stable, history row, packed rows, centroid matrices). The bound below
	// covers the Step copies and the Hungarian solve only.
	if allocs > 40 {
		t.Fatalf("steady-state UpdateMasked allocates %v objects per step", allocs)
	}
}
