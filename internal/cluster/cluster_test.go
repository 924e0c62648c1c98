package cluster

import (
	"errors"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"orcf/internal/kmeans"
)

func testRNG(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0xabcdef)) }

// twoGroupPoints builds N scalar points in two well-separated groups whose
// levels move over time; swap flips which nodes belong to which group.
func twoGroupPoints(n int, loLevel, hiLevel float64, swap bool) [][]float64 {
	pts := make([][]float64, n)
	for i := range pts {
		inLow := i < n/2
		if swap {
			inLow = !inLow
		}
		if inLow {
			pts[i] = []float64{loLevel + 0.001*float64(i%5)}
		} else {
			pts[i] = []float64{hiLevel + 0.001*float64(i%5)}
		}
	}
	return pts
}

func TestNewTrackerValidation(t *testing.T) {
	t.Parallel()
	if _, err := NewTracker(Config{K: 0}, testRNG(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K=0: want ErrBadConfig, got %v", err)
	}
	if _, err := NewTracker(Config{K: 2}, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil rng: want ErrBadConfig, got %v", err)
	}
	if _, err := NewTracker(Config{K: 2, Similarity: Similarity(99)}, testRNG(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad similarity: want ErrBadConfig, got %v", err)
	}
}

func TestTrackerStableIndicesAcrossSteps(t *testing.T) {
	t.Parallel()
	tr, err := NewTracker(Config{K: 2, M: 1}, testRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	// Step 1 establishes indices; later steps move the group levels but keep
	// memberships: stable indices must follow the groups, not the levels.
	s1, err := tr.Update(twoGroupPoints(20, 0.1, 0.9, false))
	if err != nil {
		t.Fatal(err)
	}
	lowJ := s1.Assignments[0]
	for step := 0; step < 10; step++ {
		lo := 0.1 + 0.05*float64(step)
		hi := 0.9 - 0.02*float64(step)
		s, err := tr.Update(twoGroupPoints(20, lo, hi, false))
		if err != nil {
			t.Fatal(err)
		}
		if s.Assignments[0] != lowJ {
			t.Fatalf("step %d: low-group index drifted %d → %d", step, lowJ, s.Assignments[0])
		}
		// Centroid of the low cluster must track the low level.
		if math.Abs(s.Centroids[lowJ][0]-lo) > 0.01 {
			t.Fatalf("step %d: low centroid %v, want ≈ %v", step, s.Centroids[lowJ][0], lo)
		}
	}
}

func TestTrackerReindexAgainstLabelPermutation(t *testing.T) {
	t.Parallel()
	// Run many steps with identical group structure. Raw K-means labels are
	// random per step; the tracker must always map the same node set to the
	// same stable index.
	tr, err := NewTracker(Config{K: 3, M: 1}, testRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	mkPoints := func() [][]float64 {
		pts := make([][]float64, 30)
		for i := range pts {
			switch {
			case i < 10:
				pts[i] = []float64{0.1}
			case i < 20:
				pts[i] = []float64{0.5}
			default:
				pts[i] = []float64{0.9}
			}
		}
		return pts
	}
	first, err := tr.Update(mkPoints())
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 25; step++ {
		s, err := tr.Update(mkPoints())
		if err != nil {
			t.Fatal(err)
		}
		for i := range s.Assignments {
			if s.Assignments[i] != first.Assignments[i] {
				t.Fatalf("step %d: node %d moved %d → %d despite identical data",
					step, i, first.Assignments[i], s.Assignments[i])
			}
		}
	}
}

func TestTrackerCentroidSeriesContinuity(t *testing.T) {
	t.Parallel()
	tr, err := NewTracker(Config{K: 2, M: 1}, testRNG(4))
	if err != nil {
		t.Fatal(err)
	}
	steps := 50
	series := make([][]float64, 2)
	for step := 0; step < steps; step++ {
		lo := 0.2 + 0.1*math.Sin(float64(step)/5)
		hi := 0.8 + 0.1*math.Cos(float64(step)/5)
		s, err := tr.Update(twoGroupPoints(16, lo, hi, false))
		if err != nil {
			t.Fatal(err)
		}
		for j, c := range s.Centroids {
			series[j] = append(series[j], c[0])
		}
	}
	if tr.t != steps {
		t.Fatalf("%d steps counted, want %d", tr.t, steps)
	}
	for j, series := range series {
		// A coherent centroid series of a smooth signal has small step-to-
		// step jumps; an index mix-up would show |Δ| ≈ 0.6 jumps.
		for i := 1; i < len(series); i++ {
			if math.Abs(series[i]-series[i-1]) > 0.3 {
				t.Fatalf("cluster %d series jumps at %d: %v → %v (index mix-up)",
					j, i, series[i-1], series[i])
			}
		}
	}
}

func TestTrackerMembershipChurn(t *testing.T) {
	t.Parallel()
	// When half the nodes swap groups, the stable clusters should keep
	// their identity via the nodes that did NOT move (majority anchored).
	tr, err := NewTracker(Config{K: 2, M: 1}, testRNG(5))
	if err != nil {
		t.Fatal(err)
	}
	n := 20
	mk := func(migrated int) [][]float64 {
		pts := make([][]float64, n)
		for i := range pts {
			inLow := i < n/2
			if i < migrated { // first `migrated` low nodes moved high
				inLow = false
			}
			if inLow {
				pts[i] = []float64{0.1}
			} else {
				pts[i] = []float64{0.9}
			}
		}
		return pts
	}
	s0, err := tr.Update(mk(0))
	if err != nil {
		t.Fatal(err)
	}
	lowJ := s0.Assignments[n/2-1]
	highJ := s0.Assignments[n-1]
	s1, err := tr.Update(mk(3))
	if err != nil {
		t.Fatal(err)
	}
	// Unmoved low nodes keep index lowJ; migrated nodes join highJ.
	if s1.Assignments[n/2-1] != lowJ {
		t.Fatalf("anchor low node changed cluster: %d → %d", lowJ, s1.Assignments[n/2-1])
	}
	if s1.Assignments[0] != highJ {
		t.Fatalf("migrated node should be in high cluster %d, got %d", highJ, s1.Assignments[0])
	}
}

func TestTrackerInputValidation(t *testing.T) {
	t.Parallel()
	tr, err := NewTracker(Config{K: 3}, testRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Update(nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("empty: want ErrBadInput, got %v", err)
	}
	if _, err := tr.Update([][]float64{{1}, {2}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("n<K: want ErrBadInput, got %v", err)
	}
	if _, err := tr.Update([][]float64{{1}, {2}, {3}, {4}}); err != nil {
		t.Fatal(err)
	}
	// Node count change rejected.
	if _, err := tr.Update([][]float64{{1}, {2}, {3}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("node count change: want ErrBadInput, got %v", err)
	}
	// Dimension change rejected.
	if _, err := tr.Update([][]float64{{1, 2}, {2, 3}, {3, 4}, {4, 5}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("dim change: want ErrBadInput, got %v", err)
	}
}

func TestTrackerHistoryDepth(t *testing.T) {
	t.Parallel()
	tr, err := NewTracker(Config{K: 2, M: 1, HistoryDepth: 3}, testRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := tr.Update(twoGroupPoints(10, 0.1, 0.9, false)); err != nil {
			t.Fatal(err)
		}
	}
	hist := tr.ExportState().Hist
	if got := len(hist); got != 3 {
		t.Fatalf("%d history rows, want 3", got)
	}
	for ago, h := range hist {
		if len(h) != 10 {
			t.Fatalf("history row %d steps back has %d slots, want 10", ago, len(h))
		}
	}

	// A zero depth keeps the M rows the eq. (10) matching reads, and no more.
	for _, m := range []int{1, 3} {
		tr, err := NewTracker(Config{K: 2, M: m}, testRNG(7))
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 6; step++ {
			if _, err := tr.Update(twoGroupPoints(10, 0.1, 0.9, false)); err != nil {
				t.Fatal(err)
			}
			if got := len(tr.ExportState().Hist); got != min(m, step) {
				t.Fatalf("M=%d, step %d: %d history rows at zero depth, want %d", m, step, got, min(m, step))
			}
		}
	}
}

func TestJaccardSimilarityTracksToo(t *testing.T) {
	t.Parallel()
	tr, err := NewTracker(Config{K: 2, M: 1, Similarity: SimilarityJaccard}, testRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	s0, err := tr.Update(twoGroupPoints(20, 0.1, 0.9, false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s, err := tr.Update(twoGroupPoints(20, 0.15, 0.85, false))
		if err != nil {
			t.Fatal(err)
		}
		for n := range s.Assignments {
			if s.Assignments[n] != s0.Assignments[n] {
				t.Fatalf("jaccard matching lost identity at node %d", n)
			}
		}
	}
}

func TestCentroidsFor(t *testing.T) {
	t.Parallel()
	points := [][]float64{{0, 0}, {2, 2}, {10, 10}}
	assign := []int{0, 0, 1}
	cents := CentroidsFor(assign, 3, points)
	if cents[0][0] != 1 || cents[0][1] != 1 {
		t.Fatalf("cluster 0 centroid %v, want [1 1]", cents[0])
	}
	if cents[1][0] != 10 {
		t.Fatalf("cluster 1 centroid %v, want [10 10]", cents[1])
	}
	// Empty cluster 2 is a zero vector.
	if cents[2][0] != 0 || cents[2][1] != 0 {
		t.Fatalf("empty cluster centroid %v, want zeros", cents[2])
	}
	if CentroidsFor(nil, 2, nil) != nil {
		t.Fatal("no points should yield nil")
	}
}

// TestTrackerMeansMatchCentroidsFor pins commit's width-specialised eq. (1)
// sum to CentroidsFor's generic loop bit for bit, at every unrolled width and
// past it, over a masked fleet whose coordinates span many magnitudes (so
// the order of the adds shows in the last bits).
func TestTrackerMeansMatchCentroidsFor(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(21, 210))
	for dim := 1; dim <= 6; dim++ {
		tr, err := NewTracker(Config{K: 3}, testRNG(uint64(dim)))
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 6; step++ {
			points := make([][]float64, 200)
			present := make([]bool, len(points))
			for i := range points {
				present[i] = rng.IntN(10) != 0
				if !present[i] {
					continue
				}
				points[i] = make([]float64, dim)
				for d := range points[i] {
					points[i][d] = float64(i%3) + rng.NormFloat64()*math.Pow(10, float64(rng.IntN(9)-4))
				}
			}
			s, err := tr.UpdateMasked(points, present)
			if err != nil {
				t.Fatal(err)
			}
			want := CentroidsFor(s.Assignments, 3, points)
			for j := range want {
				for d := range want[j] {
					if g, w := s.Centroids[j][d], want[j][d]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("dim=%d step %d: centroid[%d][%d] = %v, CentroidsFor %v", dim, step, j, d, g, w)
					}
				}
			}
		}
	}
}

// baselinePoints is a few steps of n points of width dim on a grid of 9
// levels, so that ties between monitors and members come up, as flat rows
// and as the slice-of-rows form the baselines' old Step methods took.
func baselinePoints(rng *rand.Rand, steps, n, dim int) (flat [][]float64, rows [][][]float64) {
	for range steps {
		f := make([]float64, n*dim)
		r := make([][]float64, n)
		for i := range r {
			for d := range dim {
				f[i*dim+d] = float64(rng.IntN(9)) / 8
			}
			r[i] = f[i*dim : (i+1)*dim]
		}
		flat, rows = append(flat, f), append(rows, r)
	}
	return flat, rows
}

// equalBits reports whether two float slices hold the same bits.
func equalBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestStaticBaseline(t *testing.T) {
	t.Parallel()
	// Whole-series clustering: nodes 0-4 flat low, nodes 5-9 flat high.
	series := make([][]float64, 10)
	for i := range series {
		level := 0.1
		if i >= 5 {
			level = 0.9
		}
		row := make([]float64, 50)
		for t2 := range row {
			row[t2] = level
		}
		series[i] = row
	}
	st, err := NewStatic(series, 2, testRNG(9))
	if err != nil {
		t.Fatal(err)
	}
	// Centroids are the current member means.
	pts := twoGroupPoints(10, 0.2, 0.8, false)
	flat := make([]float64, len(pts))
	for i, p := range pts {
		flat[i] = p[0]
	}
	a, cents, err := st.UpdateFlat(flat, 10, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if a[i] != a[0] {
			t.Fatalf("low nodes split: %v", a)
		}
	}
	if a[5] == a[0] {
		t.Fatalf("groups merged: %v", a)
	}
	if lowC := cents[a[0]]; math.Abs(lowC-0.201) > 0.005 {
		t.Fatalf("static low centroid %v, want ≈ 0.2", lowC)
	}
	// The old Step's centroids were CentroidsFor over the fixed grouping.
	fixed := slices.Clone(a)
	for _, dim := range []int{1, 2, 4} {
		flats, rows := baselinePoints(testRNG(uint64(dim)), 5, 10, dim)
		for step := range flats {
			got, cents, err := st.UpdateFlat(flats[step], 10, dim, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, fixed) {
				t.Fatalf("dim=%d step %d: assignments %v, want the fixed %v", dim, step, got, fixed)
			}
			if want := slices.Concat(CentroidsFor(fixed, 2, rows[step])...); !equalBits(cents, want) {
				t.Fatalf("dim=%d step %d: centroids %v, CentroidsFor %v", dim, step, cents, want)
			}
		}
	}
	mask := slices.Repeat([]bool{true}, 10)
	if _, _, err := st.UpdateFlat(flat, 10, 1, mask); err != nil {
		t.Fatalf("all-present mask: %v", err)
	}
	mask[3] = false
	for _, bad := range []struct {
		name    string
		data    []float64
		n       int
		present []bool
	}{
		{"absent slot", flat, 10, mask},
		{"short mask", flat, 10, mask[:9]},
		{"other node count", flat[:9], 9, nil},
		{"short data", flat[:9], 10, nil},
	} {
		if _, _, err := st.UpdateFlat(bad.data, bad.n, 1, bad.present); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: want ErrBadInput, got %v", bad.name, err)
		}
	}
	if _, err := NewStatic(series, 0, testRNG(9)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K=0: want ErrBadConfig, got %v", err)
	}
	if _, err := NewStatic(series[:1], 2, testRNG(9)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("too few series: want ErrBadInput, got %v", err)
	}
}

func TestMinimumDistanceBaseline(t *testing.T) {
	t.Parallel()
	// The old Step: K monitors from rng.Perm, each point to the nearest
	// monitor by the strict-<, ascending-index float compare.
	oldStep := func(rng *rand.Rand, k int, points [][]float64) ([]int, []float64) {
		monitors := rng.Perm(len(points))[:k]
		cents := make([][]float64, k)
		for j, m := range monitors {
			cents[j] = slices.Clone(points[m])
		}
		assign := make([]int, len(points))
		for i, p := range points {
			best, bestD := 0, math.Inf(1)
			for j, c := range cents {
				if d := kmeans.SqDist(p, c); d < bestD {
					best, bestD = j, d
				}
			}
			assign[i] = best
		}
		return assign, slices.Concat(cents...)
	}
	for _, k := range []int{1, 2, 3, 5} {
		for _, dim := range []int{1, 2, 4} {
			md, err := NewMinimumDistance(k, testRNG(10))
			if err != nil {
				t.Fatal(err)
			}
			ref := testRNG(10)
			flats, rows := baselinePoints(testRNG(uint64(k*8+dim)), 6, 12, dim)
			for step := range flats {
				assign, cents, err := md.UpdateFlat(flats[step], 12, dim, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantA, wantC := oldStep(ref, k, rows[step])
				if !slices.Equal(assign, wantA) || !equalBits(cents, wantC) {
					t.Fatalf("K=%d dim=%d step %d: got %v %v, old Step %v %v", k, dim, step, assign, cents, wantA, wantC)
				}
			}
		}
	}
	md, err := NewMinimumDistance(2, testRNG(10))
	if err != nil {
		t.Fatal(err)
	}
	flat := []float64{0.1, 0.9, 0.2}
	for _, bad := range []struct {
		name    string
		n       int
		present []bool
	}{
		{"absent slot", 3, []bool{true, false, true}},
		{"short mask", 3, []bool{true, true}},
		{"too few points", 1, nil},
	} {
		if _, _, err := md.UpdateFlat(flat, bad.n, 1, bad.present); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: want ErrBadInput, got %v", bad.name, err)
		}
	}
	if _, err := NewMinimumDistance(0, testRNG(1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("K=0: want ErrBadConfig, got %v", err)
	}
	if _, err := NewMinimumDistance(2, nil); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("nil rng: want ErrBadConfig, got %v", err)
	}
}

func TestWindowBuffer(t *testing.T) {
	t.Parallel()
	if _, err := NewWindowBuffer(0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("w=0: want ErrBadConfig, got %v", err)
	}
	b, err := NewWindowBuffer(3)
	if err != nil {
		t.Fatal(err)
	}
	if b.Ready() {
		t.Fatal("empty buffer should not be ready")
	}
	b.Push([][]float64{{1, 10}, {2, 20}})
	b.Push([][]float64{{3, 30}, {4, 40}})
	if b.Ready() || b.Features() != nil {
		t.Fatal("buffer not full yet")
	}
	b.Push([][]float64{{5, 50}, {6, 60}})
	if !b.Ready() {
		t.Fatal("buffer should be ready after w pushes")
	}
	f := b.Features()
	// Node 0 features: most recent first → [5 50 3 30 1 10].
	want := []float64{5, 50, 3, 30, 1, 10}
	for i, v := range want {
		if f[0][i] != v {
			t.Fatalf("features[0] = %v, want %v", f[0], want)
		}
	}
	// Eviction: a fourth push drops the oldest.
	b.Push([][]float64{{7, 70}, {8, 80}})
	f = b.Features()
	if f[0][0] != 7 || f[0][4] != 3 {
		t.Fatalf("after eviction features[0] = %v", f[0])
	}
}

func TestWindowBufferCopiesInput(t *testing.T) {
	t.Parallel()
	b, err := NewWindowBuffer(1)
	if err != nil {
		t.Fatal(err)
	}
	src := [][]float64{{1}}
	b.Push(src)
	src[0][0] = 99
	if got := b.Features()[0][0]; got != 1 {
		t.Fatalf("buffer aliased caller slice: %v", got)
	}
}

func TestSimilarityString(t *testing.T) {
	t.Parallel()
	if SimilarityProposed.String() != "proposed" || SimilarityJaccard.String() != "jaccard" {
		t.Fatal("similarity names wrong")
	}
	if Similarity(42).String() == "" {
		t.Fatal("unknown similarity should still render")
	}
}

// TestProposedVsJaccardMultiStepLookback exercises M > 1: membership that
// flickers for one step must not steal cluster identity when M=3 requires
// sustained co-membership.
func TestProposedLookbackM(t *testing.T) {
	t.Parallel()
	tr, err := NewTracker(Config{K: 2, M: 3, HistoryDepth: 5}, testRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	s0, err := tr.Update(twoGroupPoints(12, 0.1, 0.9, false))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s, err := tr.Update(twoGroupPoints(12, 0.1, 0.9, false))
		if err != nil {
			t.Fatal(err)
		}
		for n := range s.Assignments {
			if s.Assignments[n] != s0.Assignments[n] {
				t.Fatalf("M=3 tracking lost identity at node %d, step %d", n, i)
			}
		}
	}
}
