package cluster

// The pre-flat-path referenceTracker, kept verbatim (type and helper names prefixed)
// as the oracle of TestTrackerMatchesReferenceExactly and
// FuzzTrackerMatchesReference: rows-of-slices in, checkPoints → packPoints →
// canWarmStart → AssignFlat → count → scatterRaw → matchToHistory → stabilize
// → churn count → centroidsInto → pushHistory → result copies.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"orcf/internal/hungarian"
	"orcf/internal/kmeans"
	"orcf/internal/mat"
)

// referenceTracker maintains the evolving clustering.
//
// Slots vs nodes: the tracker addresses points positionally by "slot". A
// fixed fleet uses slot == node index; an elastic fleet (core.System with
// membership churn) keeps slots stable across joins and leaves by passing a
// presence mask to UpdateMasked — absent slots carry assignment -1 and take
// no part in K-means or the eq. (10) matching. The slot count may grow
// between updates (new joiners are appended) but never shrink; departed
// slots are masked out and their history erased with ForgetSlot.
type referenceTracker struct {
	cfg Config
	rng *rand.Rand
	t   int
	dim int
	n   int

	// Assignment history ring: hist[histHead] is the most recent vector and
	// hist[(histHead−ago+depth)%depth] the one `ago` steps back; -1 marks an
	// absent slot. Rows are overwritten in place, so once the ring has
	// filled at the current slot count a step allocates no history.
	hist     [][]int
	histHead int
	histLen  int

	// Per-slot run-length counters realizing eq. (10) incrementally: slot i
	// has held stable cluster streakVal[i] for the last streak[i]
	// consecutive steps (capped at M — deeper runs are indistinguishable to
	// the matching). Replaces the O(N·M) history scan per step.
	streak    []int
	streakVal []int

	// Previous step's stable centroids (K×dim row-major), seeding
	// warm-started incremental refits.
	prevCents []float64

	warmSteps int // warm-started refits accepted
	fullSteps int // full K-means refits run

	// Reusable scratch, sized lazily: the packed SoA point frame with its
	// slot mapping and assignment buffers, the K-means runner, the K×K
	// similarity matrices, and the centroid accumulator. Hoisted here so a
	// steady-state UpdateMasked allocates only its returned Step.
	packF      *mat.Frame
	packIdx    []int
	packAssign []int
	raw        []int
	stable     []int
	runner     *kmeans.Runner
	inter      []float64 // K×K intersection counts, row-major
	jacc       []float64 // K×K Jaccard weights, row-major
	wRows      [][]float64
	rawSize    []float64
	coreSize   []float64
	centsFlat  []float64 // K×dim centroid accumulator
	centCounts []int
}

// newReferenceTracker builds a referenceTracker. The rng drives K-means seeding; passing the
// same seed and inputs reproduces identical cluster evolutions.
func newReferenceTracker(cfg Config, rng *rand.Rand) (*referenceTracker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("cluster: nil rng: %w", ErrBadConfig)
	}
	return &referenceTracker{cfg: cfg, rng: rng}, nil
}

// Steps returns the number of updates processed so far.
func (tr *referenceTracker) Steps() int { return tr.t }

func (tr *referenceTracker) UpdateMasked(points [][]float64, present []bool) (*Step, error) {
	if err := tr.checkPoints(points, present); err != nil {
		return nil, err
	}
	pn := tr.packPoints(points, present)

	warm := tr.canWarmStart(points, present, pn) && tr.tryWarmStep(len(points), pn)
	if warm {
		tr.warmSteps++
	} else {
		if err := tr.fullRefit(len(points), pn); err != nil {
			return nil, err
		}
		tr.fullSteps++
	}

	k, dim := tr.cfg.K, tr.dim
	tr.centroidsInto(pn)
	tr.t++
	tr.pushHistory(tr.stable)
	if cap(tr.prevCents) < k*dim {
		tr.prevCents = make([]float64, k*dim)
	}
	tr.prevCents = tr.prevCents[:k*dim]
	copy(tr.prevCents, tr.centsFlat)

	assignCopy := make([]int, len(points))
	copy(assignCopy, tr.stable)
	flat := make([]float64, k*dim)
	copy(flat, tr.centsFlat)
	cents := make([][]float64, k)
	for j := range cents {
		cents[j] = flat[j*dim : (j+1)*dim : (j+1)*dim]
	}
	return &Step{T: tr.t, Assignments: assignCopy, Centroids: cents}, nil
}

// fullRefit runs the K-means refit over the packed points and stabilizes the
// result, the reference path every optimization is pinned against.
func (tr *referenceTracker) fullRefit(nSlots, pn int) error {
	if tr.runner == nil {
		tr.runner = kmeans.NewRunner()
	}
	tr.packAssign = referenceGrowInts(tr.packAssign, pn)
	err := tr.runner.RunFlat(tr.packF.Data()[:pn*tr.dim], pn, tr.dim, kmeans.Config{K: tr.cfg.K}, tr.rng, tr.packAssign)
	if err != nil {
		return fmt.Errorf("cluster: kmeans failed: %w", err)
	}
	tr.scatterRaw(nSlots, pn)
	return tr.stabilize(nSlots)
}

// canWarmStart reports whether this step may skip the full K-means refit:
// incremental mode on, previous centroids available, more present points
// than clusters, and exactly the same slots present as at the last step (a
// join, leave, or rejoin always forces a full refit).
func (tr *referenceTracker) canWarmStart(points [][]float64, present []bool, pn int) bool {
	if !tr.cfg.Incremental || tr.t == 0 || tr.cfg.IncrementalChurn < 0 {
		return false
	}
	if pn <= tr.cfg.K || len(tr.prevCents) != tr.cfg.K*tr.dim {
		return false
	}
	h0 := tr.hist[tr.histHead] // histAt(0, ·), hoisted out of the O(N) scan
	for i := range points {
		p := present == nil || present[i]
		if p != (i < len(h0) && h0[i] >= 0) {
			return false
		}
	}
	return true
}

// tryWarmStep assigns the packed points to the previous stable centroids
// (consuming no randomness), restabilizes through the usual eq. (10)/(11)
// matching, and accepts the step iff no cluster went empty and the fraction
// of slots that changed stable cluster stays within the churn threshold. It
// returns false to demand a full refit.
func (tr *referenceTracker) tryWarmStep(nSlots, pn int) bool {
	k, dim := tr.cfg.K, tr.dim
	tr.packAssign = referenceGrowInts(tr.packAssign, pn)
	kmeans.AssignFlat(tr.packF.Data()[:pn*dim], pn, dim, tr.prevCents, k, tr.packAssign)
	// A cluster emptied by drift needs K-means' empty-cluster repair.
	counts := referenceGrowInts(tr.centCounts, k)
	tr.centCounts = counts
	for j := range counts {
		counts[j] = 0
	}
	for _, a := range tr.packAssign {
		counts[a]++
	}
	for _, c := range counts {
		if c == 0 {
			return false
		}
	}
	tr.scatterRaw(nSlots, pn)
	if err := tr.stabilize(nSlots); err != nil {
		return false
	}
	thr := tr.cfg.IncrementalChurn
	if thr == 0 {
		thr = DefaultIncrementalChurn
	}
	changed := 0
	h0 := tr.hist[tr.histHead] // histAt(0, ·), hoisted out of the O(N) scan
	for _, slot := range tr.packIdx {
		prev := -1
		if slot < len(h0) {
			prev = h0[slot]
		}
		if tr.stable[slot] != prev {
			changed++
		}
	}
	return float64(changed) <= thr*float64(pn)
}

// scatterRaw spreads the packed assignments back onto the slot layout in
// tr.raw; absent slots stay -1.
func (tr *referenceTracker) scatterRaw(nSlots, pn int) {
	tr.raw = referenceGrowInts(tr.raw, nSlots)
	for i := range tr.raw {
		tr.raw[i] = -1
	}
	for pi := 0; pi < pn; pi++ {
		tr.raw[tr.packIdx[pi]] = tr.packAssign[pi]
	}
}

// stabilize re-indexes tr.raw into tr.stable via the eq. (11) matching (or a
// plain copy on the first step / with matching disabled).
func (tr *referenceTracker) stabilize(nSlots int) error {
	tr.stable = referenceGrowInts(tr.stable, nSlots)
	if tr.t == 0 || tr.cfg.DisableMatching {
		copy(tr.stable, tr.raw)
		return nil
	}
	mapping, err := tr.matchToHistory(tr.raw)
	if err != nil {
		return err
	}
	for i, k := range tr.raw {
		if k < 0 {
			tr.stable[i] = -1
			continue
		}
		tr.stable[i] = mapping[k]
	}
	return nil
}

// centroidsInto computes eq. (1) into the tracker's flat K×dim scratch,
// accumulating present slots in ascending order — the same summation order
// as CentroidsFor, so the means are bitwise identical to the historical
// per-call path.
func (tr *referenceTracker) centroidsInto(pn int) {
	k, dim := tr.cfg.K, tr.dim
	if cap(tr.centsFlat) < k*dim {
		tr.centsFlat = make([]float64, k*dim)
	}
	tr.centsFlat = tr.centsFlat[:k*dim]
	clear(tr.centsFlat)
	counts := referenceGrowInts(tr.centCounts, k)
	tr.centCounts = counts
	for j := range counts {
		counts[j] = 0
	}
	data := tr.packF.Data()
	for pi := 0; pi < pn; pi++ {
		j := tr.stable[tr.packIdx[pi]]
		if j < 0 {
			continue
		}
		counts[j]++
		row := data[pi*dim : (pi+1)*dim]
		cj := tr.centsFlat[j*dim : (j+1)*dim]
		for t, v := range row {
			cj[t] += v
		}
	}
	for j := 0; j < k; j++ {
		if counts[j] == 0 {
			continue
		}
		inv := 1 / float64(counts[j])
		cj := tr.centsFlat[j*dim : (j+1)*dim]
		for t := range cj {
			cj[t] *= inv
		}
	}
}

// referenceGrowInts returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite.
func referenceGrowInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

func (tr *referenceTracker) checkPoints(points [][]float64, present []bool) error {
	if len(points) == 0 {
		return fmt.Errorf("cluster: no points: %w", ErrBadInput)
	}
	if present != nil && len(present) != len(points) {
		return fmt.Errorf("cluster: %d mask entries for %d points: %w",
			len(present), len(points), ErrBadInput)
	}
	n := 0
	for i, p := range points {
		if present != nil && !present[i] {
			continue
		}
		n++
		if p == nil {
			return fmt.Errorf("cluster: present slot %d has nil point: %w", i, ErrBadInput)
		}
		if tr.dim == 0 {
			tr.dim = len(p)
		}
		if len(p) != tr.dim {
			return fmt.Errorf("cluster: point %d has dim %d, want %d: %w", i, len(p), tr.dim, ErrBadInput)
		}
	}
	if n < tr.cfg.K {
		return fmt.Errorf("cluster: %d present points < K=%d: %w", n, tr.cfg.K, ErrBadInput)
	}
	if len(points) < tr.n {
		return fmt.Errorf("cluster: slot count shrank %d → %d: %w", tr.n, len(points), ErrBadInput)
	}
	tr.n = len(points)
	for len(tr.streak) < tr.n {
		tr.streak = append(tr.streak, 0)
		tr.streakVal = append(tr.streakVal, -1)
	}
	return nil
}

// packPoints compacts the present points into the tracker's flat SoA frame,
// reusing its backing across steps; packIdx maps packed index → slot. It
// returns the present count.
func (tr *referenceTracker) packPoints(points [][]float64, present []bool) int {
	if tr.packF == nil {
		tr.packF = mat.NewFrame(0, tr.dim)
	}
	tr.packF.Grow(len(points))
	tr.packIdx = tr.packIdx[:0]
	data := tr.packF.Data()
	pn := 0
	for i, p := range points {
		if present != nil && !present[i] {
			continue
		}
		copy(data[pn*tr.dim:(pn+1)*tr.dim], p)
		tr.packIdx = append(tr.packIdx, i)
		pn++
	}
	return pn
}

// histAt reads the assignment of a slot `ago` steps back (0 = most recent;
// ago must be < histLen), treating vectors that predate the slot (recorded
// before the fleet grew to include it) as absent.
func (tr *referenceTracker) histAt(ago, slot int) int {
	depth := len(tr.hist)
	h := tr.hist[(tr.histHead-ago+depth)%depth]
	if slot >= len(h) {
		return -1
	}
	return h[slot]
}

// ForgetSlot erases a slot's retained assignment history, as if it had been
// absent at every remembered step. core.System calls it when a fleet member
// departs (and again when the slot is recycled for a new joiner), so a later
// occupant of the slot never inherits the old node's cluster continuity in
// the eq. (10) matching.
func (tr *referenceTracker) ForgetSlot(slot int) {
	if slot < 0 {
		return
	}
	for m := range tr.hist {
		if slot < len(tr.hist[m]) {
			tr.hist[m][slot] = -1
		}
	}
	if slot < len(tr.streak) {
		tr.streak[slot] = 0
		tr.streakVal[slot] = -1
	}
}

// matchToHistory computes the similarity matrix between fresh K-means
// clusters and stable clusters, then solves eq. (11) via maximum-weight
// matching. It returns mapping[k] = stable index j. Slots with raw
// assignment -1 (absent this step) contribute nothing; a slot that was
// absent at any of the last M steps has no core cluster, which realizes the
// eq. (10) intersection over a churning fleet.
func (tr *referenceTracker) matchToHistory(raw []int) ([]int, error) {
	k := tr.cfg.K
	lookback := min(tr.cfg.M, tr.t)

	// The core set ⋂_{m=1..M} C_{j,t−m} of eq. (10) is read off the
	// incremental run-length counters: slot i is in stable cluster j's core
	// iff it has held j for at least `lookback` consecutive steps. This is
	// exactly the historical all-of-the-last-M-rows scan, without the O(N·M)
	// walk.
	if cap(tr.inter) < k*k {
		tr.inter = make([]float64, k*k)
	}
	inter := tr.inter[:k*k] // |C'_k ∩ X_j|, row-major
	clear(inter)
	if cap(tr.rawSize) < k {
		tr.rawSize = make([]float64, k)
		tr.coreSize = make([]float64, k)
	}
	rawSize := tr.rawSize[:k]
	coreSize := tr.coreSize[:k]
	clear(rawSize)
	clear(coreSize)
	for i, kk := range raw {
		if kk < 0 {
			continue // absent slot
		}
		rawSize[kk]++
		if tr.streak[i] >= lookback {
			j := tr.streakVal[i]
			coreSize[j]++
			inter[kk*k+j]++
		}
	}

	wFlat := inter
	if tr.cfg.Similarity == SimilarityJaccard {
		if cap(tr.jacc) < k*k {
			tr.jacc = make([]float64, k*k)
		}
		jacc := tr.jacc[:k*k]
		for kk := 0; kk < k; kk++ {
			for j := 0; j < k; j++ {
				union := rawSize[kk] + coreSize[j] - inter[kk*k+j]
				if union > 0 {
					jacc[kk*k+j] = inter[kk*k+j] / union
				} else {
					jacc[kk*k+j] = 0 // scratch is reused; overwrite stale values
				}
			}
		}
		wFlat = jacc
	}

	if cap(tr.wRows) < k {
		tr.wRows = make([][]float64, k)
	}
	w := tr.wRows[:k]
	for kk := range w {
		w[kk] = wFlat[kk*k : (kk+1)*k : (kk+1)*k]
	}
	mapping, _, err := hungarian.MaxWeightMatch(w)
	if err != nil {
		return nil, fmt.Errorf("cluster: matching failed: %w", err)
	}
	return mapping, nil
}

func (tr *referenceTracker) pushHistory(assign []int) {
	depth := tr.cfg.HistoryDepth
	if tr.hist == nil {
		tr.hist = make([][]int, depth)
		tr.histHead = depth - 1
	}
	tr.histHead = (tr.histHead + 1) % depth
	row := tr.hist[tr.histHead]
	if cap(row) < len(assign) {
		row = make([]int, len(assign))
	}
	row = row[:len(assign)]
	copy(row, assign)
	tr.hist[tr.histHead] = row
	if tr.histLen < depth {
		tr.histLen++
	}
	for i, v := range assign {
		switch {
		case v >= 0 && v == tr.streakVal[i]:
			if tr.streak[i] < tr.cfg.M {
				tr.streak[i]++
			}
		case v >= 0:
			tr.streakVal[i] = v
			tr.streak[i] = 1
		default:
			tr.streakVal[i] = -1
			tr.streak[i] = 0
		}
	}
}

// AssignmentsAgo returns the stable assignment vector from `ago` steps back
// (0 = most recent). It returns nil when the history does not reach that far.
func (tr *referenceTracker) AssignmentsAgo(ago int) []int {
	if ago < 0 || ago >= tr.histLen {
		return nil
	}
	h := tr.hist[(tr.histHead-ago+len(tr.hist))%len(tr.hist)]
	out := make([]int, len(h))
	copy(out, h)
	return out
}

// HistoryLen returns the number of retained assignment vectors.
func (tr *referenceTracker) HistoryLen() int { return tr.histLen }

// RefitStats reports how many steps were warm-started incrementally and how
// many ran a full K-means refit; warm+full == Steps(). Without
// Config.Incremental every step is a full refit.
func (tr *referenceTracker) RefitStats() (warm, full int) { return tr.warmSteps, tr.fullSteps }

// ExportState deep-copies the tracker's mutable state. The returned State
// shares no memory with the tracker, so it may be serialized concurrently
// with further updates to the live tracker.
func (tr *referenceTracker) ExportState() *State {
	st := &State{T: tr.t, Dim: tr.dim, N: tr.n}
	st.Hist = make([][]int, tr.histLen)
	for i := 0; i < tr.histLen; i++ {
		h := tr.hist[(tr.histHead-i+len(tr.hist))%len(tr.hist)]
		st.Hist[i] = append([]int(nil), h...)
	}
	return st
}

// stateDigest fingerprints an exported tracker state, floats by bit pattern.
func stateDigest(st *State) uint64 {
	h := fnv.New64a()
	u64 := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	u64(uint64(st.T))
	u64(uint64(st.Dim))
	u64(uint64(st.N))
	for _, row := range st.Hist {
		u64(uint64(len(row)))
		for _, v := range row {
			u64(uint64(int64(v)))
		}
	}
	return h.Sum64()
}

// sameTrackerState compares everything the flat tracker keeps across updates
// with the reference's: history ring, run-length counters, refit counts and
// the exported state.
func sameTrackerState(t testing.TB, tag string, tr *Tracker, ref *referenceTracker) {
	t.Helper()
	st := tr.ExportState()
	if len(st.Hist) != ref.HistoryLen() {
		t.Fatalf("%s: history length %d, reference %d", tag, len(st.Hist), ref.HistoryLen())
	}
	for ago, got := range st.Hist {
		if want := ref.AssignmentsAgo(ago); !slices.Equal(got, want) {
			t.Fatalf("%s: history %d steps back = %v, reference %v", tag, ago, got, want)
		}
	}
	if len(tr.runs) < ref.n || len(ref.streak) != ref.n {
		t.Fatalf("%s: %d run counters, reference %d for %d slots", tag, len(tr.runs), len(ref.streak), ref.n)
	}
	for i := 0; i < ref.n; i++ {
		if r := tr.runs[i]; int(r.val) != ref.streakVal[i] || int(r.n) != ref.streak[i] {
			t.Fatalf("%s: slot %d run (%d×%d), reference (%d×%d)",
				tag, i, r.val, r.n, ref.streakVal[i], ref.streak[i])
		}
	}
	gw, gf := tr.RefitStats()
	ww, wf := ref.RefitStats()
	if gw != ww || gf != wf {
		t.Fatalf("%s: RefitStats (%d,%d), reference (%d,%d)", tag, gw, gf, ww, wf)
	}
	if got, want := stateDigest(st), stateDigest(ref.ExportState()); got != want {
		t.Fatalf("%s: ExportState digest %016x, reference %016x", tag, got, want)
	}
}

// flatten lays rows out as UpdateFlat wants them, with a poison value in the
// rows of absent slots: the tracker must never read those.
func flatten(points [][]float64, present []bool, dim int) []float64 {
	flat := make([]float64, len(points)*dim)
	for i, p := range points {
		row := flat[i*dim : (i+1)*dim]
		if present != nil && !present[i] {
			for d := range row {
				row[d] = math.NaN()
			}
			continue
		}
		copy(row, p)
	}
	return flat
}

// referenceScenario drives one randomized elastic-fleet evolution — joins,
// evictions, recycled slots, and three forced warm-start fallbacks (an
// emptied cluster, churn past the threshold, a membership change) — through
// the reference, the UpdateMasked adapter and UpdateFlat, comparing results
// and retained state after every step.
func referenceScenario(t *testing.T, cfg Config, dim int, seed uint64) (warm, full int) {
	t.Helper()
	tag := fmt.Sprintf("cfg=%+v dim=%d seed=%d", cfg, dim, seed)
	ref, err := newReferenceTracker(cfg, testRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	viaRows, err := NewTracker(cfg, testRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	viaFlat, err := NewTracker(cfg, testRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	sim := newChurnSim(rand.New(rand.NewPCG(seed, 99)), cfg.K, dim, 24)
	for step := 0; step < 70; step++ {
		churn := 0.0
		if step >= 30 {
			churn = 0.3 // the first stretch keeps membership fixed so warm steps happen
		}
		points, present, forget := sim.next(churn)
		switch step {
		case 12: // empty cluster: every group-2 node reports group 1's level
			for i, p := range points {
				if p != nil && i%cfg.K == 2 {
					copy(p, points[1])
				}
			}
		case 18: // churn over any threshold: groups trade places
			for i, p := range points {
				if p != nil {
					for d := range p {
						p[d] = float64((i+1)%cfg.K)*10 + float64(i%7)*0.01
					}
				}
			}
		}
		for _, slot := range forget {
			ref.ForgetSlot(slot)
			viaRows.ForgetSlot(slot)
			viaFlat.ForgetSlot(slot)
		}
		want, err := ref.UpdateMasked(points, present)
		if err != nil {
			t.Fatalf("%s step %d: reference: %v", tag, step, err)
		}
		got, err := viaRows.UpdateMasked(points, present)
		if err != nil {
			t.Fatalf("%s step %d: %v", tag, step, err)
		}
		sameStep(t, fmt.Sprintf("%s step %d (rows)", tag, step), got, want)
		assign, cents, err := viaFlat.UpdateFlat(flatten(points, present, dim), len(points), dim, present)
		if err != nil {
			t.Fatalf("%s step %d: %v", tag, step, err)
		}
		flat := &Step{T: viaFlat.t, Assignments: assign, Centroids: make([][]float64, cfg.K)}
		for j := range flat.Centroids {
			flat.Centroids[j] = cents[j*dim : (j+1)*dim]
		}
		sameStep(t, fmt.Sprintf("%s step %d (flat)", tag, step), flat, want)
		sameTrackerState(t, fmt.Sprintf("%s step %d (rows)", tag, step), viaRows, ref)
		sameTrackerState(t, fmt.Sprintf("%s step %d (flat)", tag, step), viaFlat, ref)
	}
	if a, b, c := ref.rng.Uint64(), viaRows.rng.Uint64(), viaFlat.rng.Uint64(); a != b || a != c {
		t.Fatalf("%s: RNG streams diverged", tag)
	}
	return ref.RefitStats()
}

// TestTrackerMatchesReferenceExactly is the differential oracle of the flat
// update path: assignments, centroid bits, history ring, run-length
// counters, RefitStats, exported state and RNG stream equal the pre-change
// pipeline's after every step, for scalar and vector points, every
// similarity mode, warm and forced-fallback steps, and a churning fleet.
func TestTrackerMatchesReferenceExactly(t *testing.T) {
	t.Parallel()
	for _, dim := range []int{1, 3} {
		for _, m := range []int{1, 3} {
			bases := []Config{
				{K: 3, M: m},
				{K: 3, M: m, Incremental: true},
				{K: 3, M: m, Incremental: true, IncrementalChurn: 0.9},
				{K: 3, M: m, Incremental: true, IncrementalChurn: -1},
			}
			for _, base := range bases {
				for _, cfg := range trackerConfigs(base) {
					for seed := uint64(1); seed <= 3; seed++ {
						warm, full := referenceScenario(t, cfg, dim, seed)
						if accepts := cfg.Incremental && cfg.IncrementalChurn >= 0; (warm > 0) != accepts {
							t.Fatalf("cfg=%+v dim=%d seed=%d: %d warm steps, incremental accepts=%v", cfg, dim, seed, warm, accepts)
						}
						// First step, emptied cluster, group swap, and at
						// least one membership change fall back.
						if full < 4 {
							t.Fatalf("cfg=%+v dim=%d seed=%d: only %d full refits; fallbacks not covered", cfg, dim, seed, full)
						}
					}
				}
			}
		}
	}
}

// TestRejectedUpdateLeavesTrackerUnchanged pins the validate-first contract:
// an update that fails validation commits nothing — not the dimension of its
// first row, not its slot count — so a later valid update of another shape
// succeeds, and the exported state is untouched.
func TestRejectedUpdateLeavesTrackerUnchanged(t *testing.T) {
	tr, err := NewTracker(Config{K: 2}, testRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	before := stateDigest(tr.ExportState())
	// A later row of a different length.
	if _, err := tr.Update([][]float64{{1, 2}, {3, 4}, {5}}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("ragged rows: want ErrBadInput, got %v", err)
	}
	// Fewer than K present points, over more slots than the next update has.
	if _, err := tr.UpdateMasked([][]float64{{1, 2}, nil, nil, nil, nil}, []bool{true, false, false, false, false}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("too few present: want ErrBadInput, got %v", err)
	}
	if after := stateDigest(tr.ExportState()); after != before {
		t.Fatalf("rejected first updates changed the exported state: %016x → %016x", before, after)
	}
	step, err := tr.Update([][]float64{{1, 1, 1}, {9, 9, 9}, {1, 1, 2}})
	if err != nil {
		t.Fatalf("valid update of another dimension after rejected ones: %v", err)
	}
	if len(step.Centroids[0]) != 3 || len(step.Assignments) != 3 {
		t.Fatalf("step shaped %d×%d, want 3 slots of dim 3", len(step.Assignments), len(step.Centroids[0]))
	}

	// After a committed step the shape is pinned, and a rejected update
	// still leaves everything as it was.
	before = stateDigest(tr.ExportState())
	for name, bad := range map[string][][]float64{
		"other dimension": {{1, 1}, {9, 9}, {1, 2}},
		"shrunk":          {{1, 1, 1}, {9, 9, 9}},
		"ragged":          {{1, 1, 1}, {9, 9, 9}, {1, 1}},
	} {
		if _, err := tr.Update(bad); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: want ErrBadInput, got %v", name, err)
		}
	}
	if _, _, err := tr.UpdateFlat(make([]float64, 8), 3, 3, nil); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short flat data: want ErrBadInput, got %v", err)
	}
	if after := stateDigest(tr.ExportState()); after != before {
		t.Fatalf("rejected updates changed the exported state: %016x → %016x", before, after)
	}
	if _, err := tr.Update([][]float64{{1, 1, 1}, {9, 9, 9}, {1, 1, 2}, {9, 9, 8}}); err != nil {
		t.Fatalf("valid grown update after rejected ones: %v", err)
	}
}
