package kmeans

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// genPoints builds a randomized workload. mode selects degenerate shapes:
// 0 = generic gaussian-ish clusters, 1 = all points identical (seeding must
// fall back to uniform picks), 2 = heavy duplication (empty-cluster repair
// likely), 3 = one-dimensional scalars (the paper's default configuration).
func genPoints(rng *rand.Rand, n, d, mode int) [][]float64 {
	pts := make([][]float64, n)
	switch mode {
	case 1:
		base := make([]float64, d)
		for t := range base {
			base[t] = rng.Float64()
		}
		for i := range pts {
			pts[i] = cloneVec(base)
		}
	case 2:
		distinct := 1 + rng.IntN(3)
		bases := make([][]float64, distinct)
		for b := range bases {
			bases[b] = make([]float64, d)
			for t := range bases[b] {
				bases[b][t] = rng.Float64() * 10
			}
		}
		for i := range pts {
			pts[i] = cloneVec(bases[rng.IntN(distinct)])
		}
	default:
		for i := range pts {
			p := make([]float64, d)
			for t := range p {
				p[t] = rng.NormFloat64()*2 + float64(rng.IntN(4))*10
			}
			pts[i] = p
		}
	}
	return pts
}

// sameFloat is bitwise equality, except that any NaN equals any NaN: which
// payload an addition of two NaNs keeps depends on the operand order the
// compiler picked, not on the program.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameResult(t *testing.T, tag string, got, want *Result) {
	t.Helper()
	if len(got.Assignments) != len(want.Assignments) {
		t.Fatalf("%s: %d assignments, want %d", tag, len(got.Assignments), len(want.Assignments))
	}
	for i := range want.Assignments {
		if got.Assignments[i] != want.Assignments[i] {
			t.Fatalf("%s: assign[%d] = %d, want %d", tag, i, got.Assignments[i], want.Assignments[i])
		}
	}
	if len(got.Centroids) != len(want.Centroids) {
		t.Fatalf("%s: %d centroids, want %d", tag, len(got.Centroids), len(want.Centroids))
	}
	for j := range want.Centroids {
		for tt := range want.Centroids[j] {
			g, w := got.Centroids[j][tt], want.Centroids[j][tt]
			if !sameFloat(g, w) {
				t.Fatalf("%s: centroid[%d][%d] = %v, want %v (bitwise)", tag, j, tt, g, w)
			}
		}
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: iterations %d, want %d", tag, got.Iterations, want.Iterations)
	}
}

// diffAgainstReference runs refRun and Run on the same points from the same
// RNG state and requires bit-identical results and — by comparing post-run
// draws — the same number of RNG values consumed in the same order.
func diffAgainstReference(t *testing.T, tag string, pts [][]float64, cfg Config, seed uint64) {
	t.Helper()
	rngRef := rand.New(rand.NewPCG(seed, 2))
	rngNew := rand.New(rand.NewPCG(seed, 2))
	want, errRef := refRun(pts, cfg, rngRef)
	got, errNew := Run(pts, cfg, rngNew)
	if (errRef == nil) != (errNew == nil) {
		t.Fatalf("%s: err mismatch ref=%v new=%v", tag, errRef, errNew)
	}
	if errRef != nil {
		return
	}
	sameResult(t, tag, got, want)
	for draw := 0; draw < 3; draw++ {
		if a, b := rngRef.Uint64(), rngNew.Uint64(); a != b {
			t.Fatalf("%s: RNG stream diverged at post-run draw %d", tag, draw)
		}
	}
}

// TestRunnerMatchesReferenceExactly is the differential pin for the flat,
// bound-pruned Runner: across randomized, degenerate and adversarial
// workloads, Run (Runner underneath) must reproduce the preserved
// slice-of-rows Lloyd bit for bit, including the RNG draw sequence.
func TestRunnerMatchesReferenceExactly(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		shapes := rand.New(rand.NewPCG(8, 80))
		for trial := 0; trial < 400; trial++ {
			n := 1 + shapes.IntN(40)
			if trial%8 == 0 {
				// Larger fleets, where bounds get carried over several iterations.
				n = 63 + shapes.IntN(192)
			}
			d := 1 + shapes.IntN(4)
			k := 1 + shapes.IntN(10)
			mode := shapes.IntN(4)
			if mode == 3 {
				d = 1
			}
			cfg := Config{K: k, MaxIterations: shapes.IntN(8)}
			seed := shapes.Uint64()
			pts := genPoints(rand.New(rand.NewPCG(seed, 1)), n, d, mode)
			diffAgainstReference(t, fmt.Sprintf("trial %d", trial), pts, cfg, seed)
		}
	})
	// The shapes a wrong skip would show on: exact distance ties, duplicates,
	// coincident seeds, empty-cluster repairs, K = n−1, every kernel width,
	// early stops by iteration cap, and coordinates whose
	// squared differences overflow, underflow or are not numbers.
	for _, kind := range adversarialKinds {
		t.Run(kind, func(t *testing.T) {
			shapes := rand.New(rand.NewPCG(13, 130))
			for _, d := range []int{1, 2, 3, 4, 5, 8} {
				for _, maxIter := range []int{1, 2, 50} {
					n := 24 + shapes.IntN(200)
					for _, k := range []int{2, 3, 7, n - 1} {
						seed := shapes.Uint64()
						pts := adversarialPoints(rand.New(rand.NewPCG(seed, 1)), n, d, kind)
						cfg := Config{K: k, MaxIterations: maxIter}
						tag := fmt.Sprintf("n=%d d=%d K=%d iters=%d", n, d, k, maxIter)
						diffAgainstReference(t, tag, pts, cfg, seed)
					}
				}
			}
		})
	}
	// A tie that only shows after the bounds were carried over an update
	// step. From the seeds (0, 8) point 5 joins centroid 1; the update moves
	// the centroids to 1 and 9, both exactly as far from 5 as the carried
	// bounds say (in one dimension the triangle inequality is tight), and the
	// lower index must win it back. Under a random affine map the same tie is
	// only as exact as rounding leaves it, which is what the slack is for.
	// Roughly one seed in twenty draws those two seeds in that order.
	t.Run("carried-tie", func(t *testing.T) {
		shapes := rand.New(rand.NewPCG(14, 140))
		for trial := 0; trial < 400; trial++ {
			scale, offset := 1.0, 0.0
			if trial > 0 {
				scale, offset = 0.1+shapes.Float64(), 4*shapes.Float64()
			}
			d := 1 + trial%5
			pts := make([][]float64, 0, 5)
			for _, x := range []float64{0, 2, 8, 5, 14} {
				p := make([]float64, d)
				for c := range p {
					p[c] = offset
				}
				p[0] += x * scale
				pts = append(pts, p)
			}
			for seed := uint64(0); seed < 32; seed++ {
				tag := fmt.Sprintf("trial %d d=%d seed=%d", trial, d, seed)
				diffAgainstReference(t, tag, pts, Config{K: 2}, seed)
			}
		}
	})
	// Small integer lattices scaled by 2⁻⁵³²: squared distances are subnormal
	// and keep only a few significant bits, so a relative slack alone would
	// not cover their error.
	t.Run("underflow-lattice", func(t *testing.T) {
		shapes := rand.New(rand.NewPCG(15, 150))
		for trial := 0; trial < 8000; trial++ {
			n, d, k := 4+shapes.IntN(12), 1+shapes.IntN(2), 2+shapes.IntN(3)
			seed := shapes.Uint64()
			rng := rand.New(rand.NewPCG(seed, 1))
			pts := make([][]float64, n)
			for i := range pts {
				pts[i] = make([]float64, d)
				for c := range pts[i] {
					pts[i][c] = float64(rng.IntN(16)) * 0x1p-532
				}
			}
			diffAgainstReference(t, fmt.Sprintf("trial %d", trial), pts, Config{K: k}, seed)
		}
	})
}

var adversarialKinds = []string{"grid", "duplicates", "identical", "two-values", "blobs", "extreme", "non-finite"}

// adversarialPoints builds the fixtures of the adversarial differential:
//
//   - grid: coordinates on {0, ¼, …, 1¾}, so exact distance ties between
//     centroids are common;
//   - duplicates: a handful of distinct points repeated, so clusters empty
//     and get repaired;
//   - identical: one point repeated (seeding takes the total ≤ 0 branch and
//     every cluster but one is empty);
//   - two-values: two distinct points, so seeds coincide for K > 2;
//   - blobs: overlapping Gaussian blobs that take Lloyd many iterations, so
//     most assignment steps run on carried bounds;
//   - extreme: blobs scaled to 1e155 and 1e-165 per coordinate pair, so
//     squared differences overflow to +Inf or underflow to 0;
//   - non-finite: blobs with NaN and ±Inf coordinates sprinkled in.
func adversarialPoints(rng *rand.Rand, n, d int, kind string) [][]float64 {
	pts := make([][]float64, n)
	blob := func() []float64 {
		p := make([]float64, d)
		c := float64(rng.IntN(4))
		for t := range p {
			p[t] = c + rng.NormFloat64()*0.8
		}
		return p
	}
	var bases [][]float64
	switch kind {
	case "duplicates":
		bases = make([][]float64, 2+rng.IntN(4))
	case "identical":
		bases = make([][]float64, 1)
	case "two-values":
		bases = make([][]float64, 2)
	}
	for b := range bases {
		bases[b] = blob()
	}
	for i := range pts {
		switch kind {
		case "grid":
			p := make([]float64, d)
			for t := range p {
				p[t] = float64(rng.IntN(8)) / 4
			}
			pts[i] = p
		case "duplicates", "identical", "two-values":
			pts[i] = cloneVec(bases[rng.IntN(len(bases))])
		case "extreme":
			p := blob()
			scale := 1e155
			if i%2 == 0 {
				scale = 1e-165
			}
			for t := range p {
				p[t] *= scale
			}
			pts[i] = p
		case "non-finite":
			p := blob()
			if i%7 == 0 {
				p[rng.IntN(d)] = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
			}
			pts[i] = p
		default:
			pts[i] = blob()
		}
	}
	return pts
}

// TestSeedingKeepsNaNMinimum pins the one running minimum of the package that
// can be NaN: seedPlusPlus starts d2[i] at a computed distance, not at +Inf.
// When the first seed is the +Inf point, its own d2 is NaN (Inf − Inf); no
// float compares below NaN, so it must stay NaN through every later seed,
// which keeps the sampling total NaN and makes every later seed the last
// point. An integer minimum alone would replace it by the +Inf distance to
// the second seed, the total would be +Inf, and the third seed would be the
// first point whose d2 is +Inf: the 1e200 point. Empty-cluster repair happens
// to undo that difference in a full run, so the seeds themselves are compared
// with the reference seeding. No point has a NaN coordinate, which would hide
// all of this behind a NaN total of its own.
func TestSeedingKeepsNaNMinimum(t *testing.T) {
	const k = 3
	for d := 1; d <= 5; d++ {
		var pts [][]float64
		for _, x := range []float64{1e200, math.Inf(1), 0, 1, 2, 3, 12} {
			p := make([]float64, d)
			p[d-1] = x
			pts = append(pts, p)
		}
		for seed := uint64(0); seed < 64; seed++ {
			want := refSeedPlusPlus(pts, k, rand.New(rand.NewPCG(seed, 2)))
			r := NewRunner()
			r.sizeScratch(len(pts), d, k)
			r.seedPlusPlus(flatten(pts), len(pts), d, k, rand.New(rand.NewPCG(seed, 2)))
			if got := r.cents; !slices.EqualFunc(got, flatten(want), sameFloat) {
				t.Fatalf("d=%d seed=%d: seeds %v, want %v", d, seed, got, want)
			}
		}
	}
}

// TestRunnerSettlesOnlyAfterPlainUpdate pins the conditions under which
// RunFlat skips an update step as settled: the assignment step moved no
// point, and the previous update was a plain mean — no empty-cluster repair,
// which moves a point out of its donor cluster without taking the donor's
// mean again — of finite centroids. The first case is such a repair: the
// step after it moves no point, but the update the reference runs next still
// moves the donor's centroid, 14 → 12.5, and takes a fourth iteration. The
// sweep over small integer lattices, with K close to n/2 so that clusters
// empty and get repaired often, finds more of them.
func TestRunnerSettlesOnlyAfterPlainUpdate(t *testing.T) {
	var pts [][]float64
	for _, x := range []float64{7, 6, 3, 17, 13, 2, 7, 12, 2} {
		pts = append(pts, []float64{x})
	}
	diffAgainstReference(t, "repair then no move", pts, Config{K: 4}, 5865742951672970985)

	shapes := rand.New(rand.NewPCG(25, 250))
	for trial := 0; trial < 20000; trial++ {
		n, d, k := 3+shapes.IntN(8), 1+shapes.IntN(2), 2+shapes.IntN(3)
		lim := 1 + shapes.IntN(20)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = make([]float64, d)
			for c := range pts[i] {
				pts[i][c] = float64(shapes.IntN(lim))
			}
		}
		diffAgainstReference(t, fmt.Sprintf("lattice trial %d", trial), pts, Config{K: k}, shapes.Uint64())
	}
}

// TestIterationsCountsExecutedIterations pins the iteration counter at the
// cap: a run stopped by MaxIterations used to report MaxIterations+1.
func TestIterationsCountsExecutedIterations(t *testing.T) {
	const n, d = 10000, 4
	frame := traceFrames(t, n, d, 1)[0]
	r := NewRunner()
	assign := make([]int, n)
	if err := r.RunFlat(frame, n, d, Config{K: 3, MaxIterations: 2}, testRNG(5), assign); err != nil {
		t.Fatal(err)
	}
	if got := r.Iterations(); got != 2 {
		t.Fatalf("Iterations() = %d after a run capped at 2", got)
	}
}

// TestRunFlatPrunesScans keeps the pruning honest: results stay bit-identical
// with it switched off, so only a count can show that it is still on. On
// clustered fleet frames Lloyd without bounds scans every point once per
// iteration; the Runner must need at most a third of that. The totals are
// pinned exactly, to the counts of the one-pass assignment step that tested
// and scanned point by point: the bound pass must list, and the scan pass
// scan, exactly the points that step scanned.
func TestRunFlatPrunesScans(t *testing.T) {
	for _, tc := range []struct {
		n, d         int
		scans, iters int
	}{
		{10000, 4, 148670, 55},
		{4096, 1, 35396, 39},
	} {
		r := NewRunner()
		rng := testRNG(6)
		assign := make([]int, tc.n)
		scans, iters := 0, 0
		for _, frame := range traceFrames(t, tc.n, tc.d, 4) {
			if err := r.RunFlat(frame, tc.n, tc.d, Config{K: 3}, rng, assign); err != nil {
				t.Fatal(err)
			}
			scans += r.scans
			iters += r.Iterations()
		}
		if scans < tc.n || 3*scans > tc.n*iters {
			t.Errorf("n=%d d=%d: %d full scans for %d point-iterations: pruning is off or broken", tc.n, tc.d, scans, tc.n*iters)
		}
		if scans != tc.scans || iters != tc.iters {
			t.Errorf("n=%d d=%d: %d scans in %d iterations, want %d in %d", tc.n, tc.d, scans, iters, tc.scans, tc.iters)
		}
	}
}

// TestRunnerScratchReuse pins that one Runner reused across runs of varying
// shapes keeps producing reference-identical results (stale scratch from a
// larger earlier run must not leak into a smaller later one).
func TestRunnerScratchReuse(t *testing.T) {
	r := NewRunner()
	shapes := rand.New(rand.NewPCG(9, 90))
	for trial := 0; trial < 120; trial++ {
		n := 2 + shapes.IntN(30)
		d := 1 + shapes.IntN(3)
		k := 1 + shapes.IntN(6)
		seed := shapes.Uint64()
		pts := genPoints(rand.New(rand.NewPCG(seed, 1)), n, d, shapes.IntN(3))
		flat := make([]float64, 0, n*d)
		for _, p := range pts {
			flat = append(flat, p...)
		}
		assign := make([]int, n)
		rngRef := rand.New(rand.NewPCG(seed, 3))
		rngNew := rand.New(rand.NewPCG(seed, 3))
		want, err := refRun(pts, Config{K: k}, rngRef)
		if err != nil {
			t.Fatalf("trial %d: ref err %v", trial, err)
		}
		if err := r.RunFlat(flat, n, d, Config{K: k}, rngNew, assign); err != nil {
			t.Fatalf("trial %d: RunFlat err %v", trial, err)
		}
		got := &Result{
			Assignments: assign,
			Centroids:   make([][]float64, r.NumCentroids()),
			Iterations:  r.Iterations(),
		}
		for j := range got.Centroids {
			got.Centroids[j] = r.Centroid(j)
		}
		sameResult(t, "reuse trial", got, want)
	}
}

// TestRunnerTrivialThenFullRun pins the scratch sizing across the K ≥ n
// shortcut: it grows the centroid buffer alone, and the next full run (a
// fleet of K nodes gaining one more) used to slice the still-empty
// previous-centroid buffer and panic.
func TestRunnerTrivialThenFullRun(t *testing.T) {
	r := NewRunner()
	pts := []float64{0, 1, 2, 3, 4, 5, 6, 7}
	for _, n := range []int{3, 8} {
		if err := r.RunFlat(pts[:n], n, 1, Config{K: 3}, testRNG(1), make([]int, n)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunFlatRejectsBadInput(t *testing.T) {
	r := NewRunner()
	rng := rand.New(rand.NewPCG(1, 1))
	cases := []struct {
		name      string
		pts       []float64
		n, d, k   int
		assignLen int
	}{
		{"zero n", nil, 0, 1, 1, 0},
		{"zero d", []float64{1}, 1, 0, 1, 1},
		{"zero k", []float64{1}, 1, 1, 0, 1},
		{"short pts", []float64{1, 2, 3}, 2, 2, 1, 2},
		{"short assign", []float64{1, 2, 3, 4}, 2, 2, 1, 1},
	}
	for _, tc := range cases {
		err := r.RunFlat(tc.pts, tc.n, tc.d, Config{K: tc.k}, rng, make([]int, tc.assignLen))
		if err == nil {
			t.Fatalf("%s: expected error", tc.name)
		}
	}
}

// TestRunFlatRejectsBadConfig pins the iteration values that used to change
// behaviour without an error: a negative MaxIterations ran no Lloyd
// iteration and returned the k-means++ seeds as the clustering. RunFlat and
// Run (which delegates to it) reject them with ErrBadInput before writing
// anything.
func TestRunFlatRejectsBadConfig(t *testing.T) {
	pts := [][]float64{{0}, {1}, {5}, {6}, {9}}
	for _, tc := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"MaxIterations=-1", Config{K: 2, MaxIterations: -1}, false},
		{"MaxIterations=minint", Config{K: 2, MaxIterations: math.MinInt}, false},
		{"defaults", Config{K: 2}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assign := []int{-1, -1, -1, -1, -1}
			err := NewRunner().RunFlat(flatten(pts), len(pts), 1, tc.cfg, testRNG(3), assign)
			if tc.ok {
				if err != nil {
					t.Fatalf("RunFlat: %v", err)
				}
				return
			}
			if !errors.Is(err, ErrBadInput) {
				t.Fatalf("RunFlat: want ErrBadInput, got %v", err)
			}
			if !slices.Equal(assign, []int{-1, -1, -1, -1, -1}) {
				t.Fatalf("RunFlat wrote %v before rejecting", assign)
			}
			if _, err := Run(pts, tc.cfg, testRNG(3)); !errors.Is(err, ErrBadInput) {
				t.Fatalf("Run: want ErrBadInput, got %v", err)
			}
		})
	}
}

// checkKernelsMatchReference runs AssignFlat over the n row-major points and
// nearestTwo on each of them, and requires what the preserved float-compare
// scan (refNearestTwo) finds: its winner from both, and from nearestTwo its
// best and second-best distance bit for bit (neither is ever NaN).
func checkKernelsMatchReference(t testing.TB, tag string, pts []float64, n, d int, cents []float64, k int) {
	t.Helper()
	assign := make([]int, n)
	AssignFlat(pts, n, d, cents, k, assign)
	for i := 0; i < n; i++ {
		p := pts[i*d : (i+1)*d]
		want, wantD, wantOther := refNearestTwo(p, cents, k)
		if assign[i] != want {
			t.Fatalf("%s: AssignFlat assign[%d] = %d, want %d (p=%v cents=%v)", tag, i, assign[i], want, p, cents)
		}
		best, bestD, otherD := nearestTwo(p, cents, k)
		if best != want || math.Float64bits(bestD) != math.Float64bits(wantD) ||
			math.Float64bits(otherD) != math.Float64bits(wantOther) {
			t.Fatalf("%s: nearestTwo(point %d) = (%d, %v, %v), want (%d, %v, %v) (p=%v cents=%v)",
				tag, i, best, bestD, otherD, want, wantD, wantOther, p, cents)
		}
	}
}

// flatten packs rows into one row-major slice.
func flatten(rows [][]float64) []float64 {
	var flat []float64
	for _, r := range rows {
		flat = append(flat, r...)
	}
	return flat
}

// TestKernelsMatchSqDist pins the unrolled kernels to the generic loop: the
// same bits from sqDistFlat and sqDistsTo as from sqDist, and from nearestTwo
// the winner, distance and smallest remaining distance of the reference scan,
// at every specialised width and past it, ties included (mode-2 duplicates).
func TestKernelsMatchSqDist(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 160))
	for d := 1; d <= 8; d++ {
		for trial := 0; trial < 200; trial++ {
			k := 1 + rng.IntN(6)
			rows := genPoints(rng, k+1, d, trial%3)
			p, cents := rows[0], rows[1:]
			dists := make([]float64, k)
			sqDistsTo(flatten(cents), d, p, dists)
			for j, c := range cents {
				if got, want := sqDistFlat(p, c), sqDist(p, c); !sameFloat(got, want) {
					t.Fatalf("d=%d: sqDistFlat = %v, sqDist = %v", d, got, want)
				}
				if got, want := dists[j], sqDist(c, p); !sameFloat(got, want) {
					t.Fatalf("d=%d: sqDistsTo = %v, sqDist = %v", d, got, want)
				}
			}
			checkKernelsMatchReference(t, fmt.Sprintf("d=%d k=%d", d, k), p, 1, d, flatten(cents), k)
		}
	}
}

// TestAssignFlatMatchesReference pins the scalar loop and the d > 1 loop of
// AssignFlat against the per-point reference scan: identical winners,
// including exact sqDist ties (mode-2 duplicated points), at every kernel
// width and past it.
func TestAssignFlatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 120))
	for _, n := range []int{1, 2, 7, 200} {
		for _, d := range []int{1, 2, 3, 4, 6} {
			for mode := 0; mode < 3; mode++ {
				k := 1 + rng.IntN(7)
				pts := flatten(genPoints(rng, n, d, mode))
				cents := flatten(genPoints(rng, k, d, 0))
				checkKernelsMatchReference(t, fmt.Sprintf("n=%d d=%d mode=%d", n, d, mode), pts, n, d, cents, k)
			}
		}
	}
}

// specialValues are the coordinates on which an integer order and the float
// order could part: NaN of both signs, both infinities, both zeros,
// subnormals, and magnitudes whose squares overflow or underflow.
var specialValues = []float64{
	math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000001),
	math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1p-1023,
	1e300, -1e300, 1e-300, -1e-300, math.MaxFloat64, -math.MaxFloat64,
	1, -1, 0.5, 1.0000000000000002,
}

// TestKernelsMatchReferenceOnSpecialValues feeds the kernels every pairing
// of the special coordinates (d = 1: each value as a point against each
// prefix of a centroid triple) and random mixtures of them at d = 1…8: a NaN
// distance must never win or be counted,
// +Inf must lose to anything finite and tie with itself by index, and −0,
// subnormal and overflowing squares must order as the float compare orders
// them.
func TestKernelsMatchReferenceOnSpecialValues(t *testing.T) {
	sv := specialValues
	for a := range sv {
		for b := range sv {
			for _, third := range []float64{math.NaN(), math.Inf(1), 0, 1} {
				cents := []float64{sv[a], sv[b], third}
				for k := 1; k <= 3; k++ {
					checkKernelsMatchReference(t, fmt.Sprintf("pairs k=%d", k), sv, len(sv), 1, cents, k)
				}
			}
		}
	}
	rng := rand.New(rand.NewPCG(17, 170))
	draw := func(count int) []float64 {
		out := make([]float64, count)
		for i := range out {
			if rng.IntN(3) == 0 {
				out[i] = rng.NormFloat64()
			} else {
				out[i] = sv[rng.IntN(len(sv))]
			}
		}
		return out
	}
	for d := 1; d <= 8; d++ {
		for _, n := range []int{1, 7, 131} {
			for k := 1; k <= 5; k++ {
				checkKernelsMatchReference(t, fmt.Sprintf("mixed n=%d d=%d k=%d", n, d, k), draw(n*d), n, d, draw(k*d), k)
			}
		}
	}
}

// TestAssignFlatMatchesNearest checks AssignFlat against the slice-of-rows
// lookup callers outside the package use.
func TestAssignFlatMatchesNearest(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 44))
	for trial := 0; trial < 50; trial++ {
		n, d, k := 1+rng.IntN(20), 1+rng.IntN(3), 1+rng.IntN(5)
		pts := genPoints(rng, n, d, trial%3)
		cents := genPoints(rng, k, d, 0)
		assign := make([]int, n)
		AssignFlat(flatten(pts), n, d, flatten(cents), k, assign)
		for i, p := range pts {
			if want := nearest(p, cents); assign[i] != want {
				t.Fatalf("trial %d: assign[%d] = %d, want %d", trial, i, assign[i], want)
			}
		}
	}
}

// TestAssignFlatPreconditions pins that a call with no centroid to assign to,
// or with a slice shorter than n, d and k say, panics before it writes
// anything — k = 0 used to assign every point to a centroid 0 that does not
// exist.
func TestAssignFlatPreconditions(t *testing.T) {
	for _, tc := range []struct {
		name                string
		pts, cents, assigns int
		n, d, k             int
	}{
		{"k=0", 4, 0, 4, 4, 1, 0},
		{"d=0", 4, 2, 4, 4, 0, 2},
		{"short cents d=1", 4, 1, 4, 4, 1, 2},
		{"short cents d=2", 8, 3, 4, 4, 2, 2},
		{"short assign", 4, 2, 3, 4, 1, 2},
		{"short pts d=1", 3, 2, 4, 4, 1, 2},
		{"short pts d=2", 7, 4, 4, 4, 2, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			assign := make([]int, tc.assigns)
			for i := range assign {
				assign[i] = -1
			}
			defer func() {
				if recover() == nil {
					t.Fatal("AssignFlat did not panic")
				}
				for i, a := range assign {
					if a != -1 {
						t.Fatalf("assign[%d] = %d written before the panic", i, a)
					}
				}
			}()
			AssignFlat(make([]float64, tc.pts), tc.n, tc.d, make([]float64, tc.cents), tc.k, assign)
		})
	}
}
