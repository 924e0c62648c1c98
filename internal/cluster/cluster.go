// Package cluster implements §V-B of the paper: dynamic construction of K
// clusters over time from the measurements stored at the central node.
//
// Each time step the tracker runs K-means on the latest stored measurements,
// then re-indexes the resulting clusters against recent history by solving a
// maximum-weight bipartite matching on a cluster-similarity measure, so that
// cluster j at time t is the continuation of cluster j at time t−1. The
// matched centroids form K coherent time series that the forecasting layer
// (§V-C) trains on.
//
// The package also provides the two clustering baselines evaluated in the
// paper: offline static clustering (K-means on whole per-node series) and the
// minimum-distance baseline (K random nodes as centroids each step).
package cluster

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"

	"orcf/internal/hungarian"
	"orcf/internal/kmeans"
	"orcf/internal/mat"
)

// ErrBadConfig reports an invalid tracker configuration.
var ErrBadConfig = errors.New("cluster: invalid configuration")

// ErrBadInput reports invalid points passed to an update.
var ErrBadInput = errors.New("cluster: invalid input")

// Similarity selects the cluster-matching similarity measure.
type Similarity int

const (
	// SimilarityProposed is the paper's measure, eq. (10): the unnormalized
	// size of the intersection between a fresh cluster and the set of nodes
	// that stayed in stable cluster j throughout the last M steps.
	SimilarityProposed Similarity = iota + 1
	// SimilarityJaccard is the normalized Jaccard index used by Greene et
	// al. [20], compared against in Fig. 11.
	SimilarityJaccard
)

// String implements fmt.Stringer.
func (s Similarity) String() string {
	switch s {
	case SimilarityProposed:
		return "proposed"
	case SimilarityJaccard:
		return "jaccard"
	default:
		return fmt.Sprintf("Similarity(%d)", int(s))
	}
}

// DefaultIncrementalChurn is the warm-step churn threshold used when
// Config.IncrementalChurn is zero: a warm-started step is kept only while at
// most this fraction of present slots changed stable cluster.
const DefaultIncrementalChurn = 0.25

// Config parameterizes a Tracker.
type Config struct {
	// K is the number of clusters (and forecasting models). Required.
	K int
	// M is the similarity look-back in time steps, eq. (10). Zero means the
	// paper default of 1.
	M int
	// Similarity selects the matching measure. Zero means SimilarityProposed.
	Similarity Similarity
	// HistoryDepth is how many past assignment vectors the tracker retains
	// (≥ M; zero or a smaller value means M). The eq. (10) matching reads
	// only the newest M, so deeper rows are read only by ExportState, and
	// RestoreState keeps the newest HistoryDepth rows of a deeper recorded
	// history.
	HistoryDepth int
	// DisableMatching skips the Hungarian re-indexing step, leaving the raw
	// (arbitrary) K-means cluster order of each step. Only for ablation:
	// without matching the centroid "series" mix different clusters over
	// time and forecasting on them degrades, which is the justification for
	// §V-B's re-indexing.
	DisableMatching bool
	// Incremental enables warm-started refits: while fleet membership is
	// unchanged, a step re-assigns points to the previous stable centroids
	// (no K-means, no RNG draws) and keeps the result unless a cluster
	// empties or assignments churn past IncrementalChurn, in which case the
	// step falls back to a full refit. Warm-accepted steps consume no
	// randomness, so a mixed warm/full evolution draws a different RNG
	// stream than an all-full one; IncrementalChurn < 0 forces the fallback
	// every step, which is bit-identical to Incremental=false.
	Incremental bool
	// IncrementalChurn is the fraction of present slots allowed to change
	// stable cluster in a warm-started step before it is discarded for a
	// full refit. Zero means DefaultIncrementalChurn; negative forces a
	// full refit every step (the differential-test boundary).
	IncrementalChurn float64
}

func (c Config) withDefaults() Config {
	if c.M == 0 {
		c.M = 1
	}
	if c.Similarity == 0 {
		c.Similarity = SimilarityProposed
	}
	c.HistoryDepth = max(c.HistoryDepth, c.M)
	return c
}

// churn is the warm-step churn threshold, IncrementalChurn or its default.
func (c Config) churn() float64 {
	if c.IncrementalChurn == 0 {
		return DefaultIncrementalChurn
	}
	return c.IncrementalChurn
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("cluster: K = %d: %w", c.K, ErrBadConfig)
	}
	if c.M < 1 {
		return fmt.Errorf("cluster: M = %d: %w", c.M, ErrBadConfig)
	}
	if c.Similarity != SimilarityProposed && c.Similarity != SimilarityJaccard {
		return fmt.Errorf("cluster: unknown similarity %d: %w", int(c.Similarity), ErrBadConfig)
	}
	if math.IsNaN(c.IncrementalChurn) {
		return fmt.Errorf("cluster: NaN incremental churn threshold: %w", ErrBadConfig)
	}
	return nil
}

// Step is the clustering outcome for one time step.
type Step struct {
	// T is the 1-based time step index.
	T int
	// Assignments maps node index → stable cluster index in [0,K).
	Assignments []int
	// Centroids holds the K stable-cluster centroids (eq. 1): the mean of
	// the member measurements.
	Centroids [][]float64
}

// Tracker maintains the evolving clustering.
//
// Slots vs nodes: the tracker addresses points positionally by "slot". A
// fixed fleet uses slot == node index; an elastic fleet (core.System with
// membership churn) keeps slots stable across joins and leaves by passing a
// presence mask — absent slots carry assignment -1 and take no part in
// K-means or the eq. (10) matching. The slot count may grow between updates
// (new joiners are appended) but never shrink; departed slots are masked out
// and their history erased with ForgetSlot.
//
// One update walks the slots three times. Pass A assigns every present point
// (kmeans.AssignFlat against the previous centroids on a warm step, a full
// kmeans.Runner.RunFlat otherwise) and tallies, from the per-slot run-length
// counters, the K×K tables the step is decided on: the eq. (10) intersection
// counts, the fresh-cluster × previous-cluster counts that give the warm
// step's churn, and the cluster sizes that reveal an emptied cluster. The
// K×K Hungarian of eq. (11) follows. Pass B writes each slot's stable index
// straight into the next history row, accumulates the eq. (1) sums in
// ascending slot order and advances the run-length counters. Nothing the
// tracker keeps is written before pass B, so an update that fails leaves it
// as it was.
//
// A warm scalar update of the configuration core.System runs (M = 1,
// HistoryDepth = 1), with every slot present now and at the last commit,
// walks the slots twice: the assignment, then one pass (tallyMovers) that
// sums eq. (1) per fresh cluster and lists the movers, the slots whose fresh
// cluster differs from their stable one. The K×K tables follow from the
// movers and the last commit's cluster sizes, and a step accepted with the
// identity mapping writes only the movers' history entries and run counters
// (commitMovers); another mapping takes pass B, a rejection the full refit.
type Tracker struct {
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

	// Per-slot run-length counters realizing eq. (10) incrementally; see run.
	runs []run

	// cents holds the latest step's stable centroids (K×dim row-major): the
	// result of that step and the seed of the next warm start.
	cents []float64

	warmSteps int // warm-started refits accepted
	fullSteps int // full K-means refits run

	// Reusable scratch, sized lazily, so a steady-state update allocates
	// nothing but the small K×K matching solve.
	packF   *mat.Frame     // present points compacted (masked updates only)
	rowsF   *mat.Frame     // UpdateMasked's flat copy of its rows
	raw     []int          // fresh cluster of each present point, in slot order
	runner  *kmeans.Runner // full refits
	tallies []int          // inter | prev (K×K each) | rawSize (K)
	weights []float64      // K×K similarity handed to the matching
	wRows   [][]float64    // row views of weights
	ident   []int          // identity mapping (first step, matching disabled)
	sizes   []int          // per-cluster member counts of the last commit

	// settled holds while the last commit had every one of its n slots
	// present and no ForgetSlot or RestoreState came since: every run then
	// carries a cluster and sizes counts each cluster's runs, which the
	// movers pass derives its tables from.
	settled    bool
	sums       []float64 // the movers pass's eq. (1) sums per fresh cluster
	movers     []int32   // the movers pass's slots that change cluster
	moverSteps int       // updates committed by commitMovers
}

// run is one slot's run-length counter: the slot has held stable cluster val
// for the last n consecutive steps, n capped at M (deeper runs are
// indistinguishable to the matching). val is -1, and n 0, for a slot that
// was absent at the last step, so val doubles as the previous assignment.
type run struct{ val, n int32 }

// NewTracker builds a Tracker. The rng drives K-means seeding; passing the
// same seed and inputs reproduces identical cluster evolutions.
func NewTracker(cfg Config, rng *rand.Rand) (*Tracker, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if rng == nil {
		return nil, fmt.Errorf("cluster: nil rng: %w", ErrBadConfig)
	}
	return &Tracker{cfg: cfg, rng: rng}, nil
}

// UpdateMasked ingests the N current stored measurements (N×d, d ≥ 1) and
// returns the re-indexed clustering for this step; the dimension must stay
// constant across updates. present[i] marks the slots that currently hold a
// live, stored measurement. Absent slots (and their points, which may be
// nil) are excluded from K-means, the eq. (10) matching, and the centroid
// means; they come back with assignment -1. The present count must be ≥ K.
// A nil mask means all slots are present. The slot count may grow between
// calls (joiners append) but never shrink.
//
// It is the rows-of-slices adapter of UpdateFlat: the rows are copied into
// one flat frame and the result out of the tracker's buffers, so the
// returned Step is the caller's to keep.
func (tr *Tracker) UpdateMasked(points [][]float64, present []bool) (*Step, error) {
	n := len(points)
	if present != nil && len(present) != n {
		return nil, fmt.Errorf("cluster: %d mask entries for %d points: %w", len(present), n, ErrBadInput)
	}
	dim := tr.dim
	for i, p := range points {
		if present != nil && !present[i] {
			continue
		}
		if p == nil {
			return nil, fmt.Errorf("cluster: present slot %d has nil point: %w", i, ErrBadInput)
		}
		if dim == 0 {
			dim = len(p)
		}
		if len(p) != dim {
			return nil, fmt.Errorf("cluster: point %d has dim %d, want %d: %w", i, len(p), dim, ErrBadInput)
		}
	}
	if tr.rowsF == nil || tr.rowsF.Cols() != dim {
		tr.rowsF = mat.NewFrame(n, dim)
	}
	tr.rowsF.Grow(n)
	flat := tr.rowsF.Data()
	for i, p := range points {
		if present == nil || present[i] {
			copy(flat[i*dim:(i+1)*dim], p)
		}
	}
	assign, cents, err := tr.UpdateFlat(flat, n, dim, present)
	if err != nil {
		return nil, err
	}
	step := &Step{T: tr.t, Assignments: append([]int(nil), assign...), Centroids: make([][]float64, tr.cfg.K)}
	out := append([]float64(nil), cents...)
	for j := range step.Centroids {
		step.Centroids[j] = out[j*dim : (j+1)*dim : (j+1)*dim]
	}
	return step, nil
}

// UpdateFlat is the tracker's one update path. data holds the n slots'
// points row-major (n×dim, dim ≥ 1); present marks the slots that take part,
// nil meaning all of them, and the rows of absent slots are never read. It
// returns the stable assignment per slot (-1 for absent slots) and the K
// stable centroids (K×dim row-major, eq. 1) as views of the tracker's own
// buffers — the new history row and the next warm start's seed — valid
// until the next update, ForgetSlot or RestoreState. The present count must
// be ≥ K, dim must match earlier updates, and n may grow but never shrink.
// On error the tracker is unchanged.
func (tr *Tracker) UpdateFlat(data []float64, n, dim int, present []bool) (assign []int, cents []float64, err error) {
	pn, err := tr.checkUpdate(data, n, dim, present)
	if err != nil {
		return nil, nil, err
	}
	pts := data[:n*dim]
	if pn == n {
		present = nil
	} else {
		pts = tr.pack(data, n, dim, present, pn)
	}
	for len(tr.runs) < n {
		tr.runs = append(tr.runs, run{val: -1})
	}
	tr.raw = growInts(tr.raw, pn)

	moversPass := tr.settled && present == nil && n == tr.n && dim == 1 &&
		tr.cfg.M == 1 && tr.cfg.HistoryDepth == 1
	mapping, warm := tr.warmStart(pts, n, pn, dim, present, moversPass)
	if warm {
		tr.warmSteps++
	} else {
		if mapping, err = tr.fullRefit(pts, n, pn, dim, present); err != nil {
			return nil, nil, err
		}
		tr.fullSteps++
		moversPass = false
	}
	tr.dim, tr.n = dim, n
	if moversPass && isIdentity(mapping) {
		assign = tr.commitMovers()
	} else {
		assign = tr.commit(pts, n, dim, present, mapping)
	}
	tr.t++
	return assign, tr.cents, nil
}

// isIdentity reports whether mapping[k] == k for every k.
func isIdentity(mapping []int) bool {
	for kk, j := range mapping {
		if kk != j {
			return false
		}
	}
	return true
}

// checkUpdate validates an update's shape without touching the tracker and
// returns the present count.
func (tr *Tracker) checkUpdate(data []float64, n, dim int, present []bool) (pn int, err error) {
	if n < 1 {
		return 0, fmt.Errorf("cluster: no points: %w", ErrBadInput)
	}
	pn = n
	if present != nil {
		if len(present) != n {
			return 0, fmt.Errorf("cluster: %d mask entries for %d points: %w", len(present), n, ErrBadInput)
		}
		pn = 0
		for _, p := range present {
			if p {
				pn++
			}
		}
	}
	if pn < tr.cfg.K {
		return 0, fmt.Errorf("cluster: %d present points < K=%d: %w", pn, tr.cfg.K, ErrBadInput)
	}
	if dim < 1 || (tr.dim != 0 && dim != tr.dim) {
		return 0, fmt.Errorf("cluster: points have dim %d, want %d: %w", dim, max(tr.dim, 1), ErrBadInput)
	}
	if len(data) < n*dim {
		return 0, fmt.Errorf("cluster: %d values for %d points of dim %d: %w", len(data), n, dim, ErrBadInput)
	}
	if n < tr.n {
		return 0, fmt.Errorf("cluster: slot count shrank %d → %d: %w", tr.n, n, ErrBadInput)
	}
	return pn, nil
}

// pack compacts the pn present points into the tracker's own frame, in slot
// order, for the kernels that want their points contiguous.
func (tr *Tracker) pack(data []float64, n, dim int, present []bool, pn int) []float64 {
	if tr.packF == nil || tr.packF.Cols() != dim {
		tr.packF = mat.NewFrame(pn, dim)
	}
	tr.packF.Grow(pn)
	pts := tr.packF.Data()[:pn*dim]
	pi := 0
	for i, p := range present {
		if !p {
			continue
		}
		if dim == 1 {
			pts[pi] = data[i]
		} else {
			copy(pts[pi*dim:(pi+1)*dim], data[i*dim:(i+1)*dim])
		}
		pi++
	}
	return pts
}

// warmStart tries to skip the full K-means refit: it assigns the present
// points to the previous stable centroids (consuming no randomness), matches
// the result against history, and accepts iff incremental mode is on, exactly
// the same slots are present as at the last step (a join, leave, or rejoin
// always forces a full refit), no cluster went empty and the fraction of
// slots that changed stable cluster stays within the churn threshold. It
// returns the eq. (11) mapping of the accepted step, or false to demand a
// full refit. With moversPass set the tables come from tallyMovers, which
// the caller allows only where it yields tally's.
func (tr *Tracker) warmStart(pts []float64, n, pn, dim int, present []bool, moversPass bool) (mapping []int, ok bool) {
	k := tr.cfg.K
	if !tr.cfg.Incremental || tr.t == 0 || tr.cfg.IncrementalChurn < 0 ||
		pn <= k || len(tr.cents) != k*dim {
		return nil, false
	}
	kmeans.AssignFlat(pts, pn, dim, tr.cents, k, tr.raw)
	if moversPass {
		tr.tallyMovers(pts[:n])
	} else if !tr.tally(n, present) {
		return nil, false
	}
	prev, rawSize := tr.tallies[k*k:2*k*k], tr.tallies[2*k*k:]
	for _, c := range rawSize {
		if c == 0 {
			return nil, false // a cluster emptied by drift needs K-means' repair
		}
	}
	mapping, err := tr.match()
	if err != nil {
		return nil, false
	}
	changed := pn
	for kk, j := range mapping {
		changed -= prev[kk*k+j]
	}
	return mapping, float64(changed) <= tr.cfg.churn()*float64(pn)
}

// fullRefit runs the K-means refit over the present points, the reference
// path every optimization is pinned against, and matches it against history.
func (tr *Tracker) fullRefit(pts []float64, n, pn, dim int, present []bool) (mapping []int, err error) {
	if tr.runner == nil {
		tr.runner = kmeans.NewRunner()
	}
	err = tr.runner.RunFlat(pts, pn, dim, kmeans.Config{K: tr.cfg.K}, tr.rng, tr.raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: kmeans failed: %w", err)
	}
	if tr.t > 0 && !tr.cfg.DisableMatching {
		tr.tally(n, present)
	}
	return tr.match()
}

// tally is the counting half of pass A. It walks the fresh assignment in
// tr.raw once and fills tr.tallies: inter[k][j] = |C'_k ∩ X_j|, the eq. (10)
// intersection of fresh cluster k with the nodes that stayed in stable
// cluster j throughout the last M steps (slot i is in X_j iff its run of j is
// at least min(M, t) long — exactly the historical all-of-the-last-M-rows
// scan, without the O(N·M) walk; a slot absent at any of those steps has no
// core cluster); prev[k][j], the same against the previous step alone, from
// which a warm step's churn follows once the mapping is known; and the
// fresh-cluster sizes. The core-set sizes are the column sums of inter. It
// reports whether exactly the slots present at the last step are present
// now.
func (tr *Tracker) tally(n int, present []bool) (sameMembers bool) {
	k := tr.cfg.K
	tr.tallies = growInts(tr.tallies, 2*k*k+k)
	clear(tr.tallies)
	inter, prev, rawSize := tr.tallies[:k*k], tr.tallies[k*k:2*k*k], tr.tallies[2*k*k:]
	lookback := int32(min(tr.cfg.M, tr.t))
	sameMembers = true
	pi := 0
	for i, r := range tr.runs[:n] {
		if present != nil && !present[i] {
			sameMembers = sameMembers && r.val < 0
			continue
		}
		kk := tr.raw[pi]
		pi++
		if r.val < 0 {
			rawSize[kk]++ // a member new this step
			sameMembers = false
			continue
		}
		prev[kk*k+int(r.val)]++
		if r.n >= lookback {
			inter[kk*k+int(r.val)]++
		}
	}
	for kk := 0; kk < k; kk++ {
		for j := 0; j < k; j++ {
			rawSize[kk] += prev[kk*k+j]
		}
	}
	return sameMembers
}

// tallyMovers is pass A's counting half for a settled all-present scalar
// update at M = 1: one walk sums eq. (1) per fresh cluster in ascending slot
// order, commit's adds in commit's order, counts the movers — the slots
// whose fresh cluster differs from their stable one — into prev, and lists
// them. It fills tr.tallies as tally would. Only movers leave the diagonal
// of prev, so prev[j][j] is the last commit's size of j less the movers out
// of j; every slot was present with a run of length M = 1, so inter equals
// prev. The list holds at most the churn threshold's worth of movers: a step
// with more is accepted only with a mapping other than the identity (its
// churn is then its mover count), which commit writes. Nothing the tracker
// keeps is written.
func (tr *Tracker) tallyMovers(pts []float64) {
	k := tr.cfg.K
	tr.tallies = growInts(tr.tallies, 2*k*k+k)
	clear(tr.tallies)
	inter, prev, rawSize := tr.tallies[:k*k], tr.tallies[k*k:2*k*k], tr.tallies[2*k*k:]
	if cap(tr.sums) < k {
		tr.sums = make([]float64, k)
	}
	sums := tr.sums[:k]
	clear(sums)
	n := len(pts)
	limit := n
	if f := tr.cfg.churn() * float64(n); f < float64(n) {
		limit = int(f)
	}
	if cap(tr.movers) < limit {
		tr.movers = make([]int32, limit)
	}
	movers := tr.movers[:limit]
	raw, runs := tr.raw[:n], tr.runs[:n]
	nm := 0
	for i, kk := range raw {
		sums[kk] += pts[i]
		if v := runs[i].val; int32(kk) != v {
			prev[kk*k+int(v)]++
			if nm < limit {
				movers[nm] = int32(i)
			}
			nm++
		}
	}
	tr.movers = movers[:min(nm, limit)]

	for j, size := range tr.sizes[:k] {
		for kk := 0; kk < k; kk++ {
			size -= prev[kk*k+j]
		}
		prev[j*k+j] = size
	}
	copy(inter, prev)
	for kk := 0; kk < k; kk++ {
		for j := 0; j < k; j++ {
			rawSize[kk] += prev[kk*k+j]
		}
	}
}

// match solves eq. (11) on the tallied similarity by maximum-weight matching
// and returns mapping[k] = stable index j (the identity on the first step
// and with matching disabled).
func (tr *Tracker) match() ([]int, error) {
	k := tr.cfg.K
	if tr.t == 0 || tr.cfg.DisableMatching {
		for len(tr.ident) < k {
			tr.ident = append(tr.ident, len(tr.ident))
		}
		return tr.ident, nil
	}
	if cap(tr.weights) < k*k {
		tr.weights = make([]float64, k*k)
		tr.wRows = make([][]float64, k)
	}
	weights := tr.weights[:k*k]
	inter, rawSize := tr.tallies[:k*k], tr.tallies[2*k*k:]
	for kk := 0; kk < k; kk++ {
		for j := 0; j < k; j++ {
			w := float64(inter[kk*k+j])
			if tr.cfg.Similarity == SimilarityJaccard {
				coreSize := 0 // |X_j|: the column sum of inter
				for f := 0; f < k; f++ {
					coreSize += inter[f*k+j]
				}
				if union := rawSize[kk] + coreSize - inter[kk*k+j]; union > 0 {
					w /= float64(union)
				} else {
					w = 0
				}
			}
			weights[kk*k+j] = w
		}
	}
	w := tr.wRows[:k]
	for kk := range w {
		w[kk] = weights[kk*k : (kk+1)*k : (kk+1)*k]
	}
	mapping, _, err := hungarian.MaxWeightMatch(w)
	if err != nil {
		return nil, fmt.Errorf("cluster: matching failed: %w", err)
	}
	return mapping, nil
}

// commit is pass B: it re-indexes the fresh assignment through the mapping
// straight into the next history row, accumulates eq. (1) over the present
// slots in ascending order — the summation order of CentroidsFor, so the
// means are bitwise those of the historical per-call path — and advances the
// run-length counters. It returns the new history row. The sum has the
// bodies of the K-means update step (kmeans.Runner's recompute): unrolled for
// dim = 1 and 4 with the same adds in the same order, a loop otherwise. An
// all-present dim = 1 update, the warm per-resource step, takes a walk of
// its own with the width switch and the mask test hoisted out of it. The sum
// stays fused into the slot walk: a second pass over the slots costs more at
// dim = 1 than the add it would move.
func (tr *Tracker) commit(pts []float64, n, dim int, present []bool, mapping []int) []int {
	k, m := tr.cfg.K, int32(tr.cfg.M)
	depth := tr.cfg.HistoryDepth
	if tr.hist == nil {
		tr.hist = make([][]int, depth)
		tr.histHead = depth - 1
	}
	tr.histHead = (tr.histHead + 1) % depth
	row := growInts(tr.hist[tr.histHead], n)
	tr.hist[tr.histHead] = row
	if tr.histLen < depth {
		tr.histLen++
	}

	if cap(tr.cents) < k*dim {
		tr.cents = make([]float64, k*dim)
	}
	cents := tr.cents[:k*dim]
	tr.cents = cents
	clear(cents)
	sizes := growInts(tr.sizes, k)
	tr.sizes = sizes
	clear(sizes)
	tr.settled = present == nil

	if present == nil && dim == 1 {
		// The warm per-resource step: every slot present, one scalar each, so
		// slot i is point i and the adds are the loop's below, in its order.
		pts, raw, runs := pts[:len(row)], tr.raw[:len(row)], tr.runs[:len(row)]
		for i, kk := range raw {
			j := mapping[kk]
			row[i] = j
			sizes[j]++
			cents[j] += pts[i]
			if r := &runs[i]; r.val != int32(j) {
				*r = run{val: int32(j), n: 1}
			} else if r.n < m {
				r.n++
			}
		}
		scaleMeans(cents, sizes, dim)
		return row
	}
	pi := 0
	for i := range row {
		r := &tr.runs[i]
		if present != nil && !present[i] {
			row[i] = -1
			*r = run{val: -1}
			continue
		}
		j := mapping[tr.raw[pi]]
		row[i] = j
		sizes[j]++
		switch dim {
		case 1:
			cents[j] += pts[pi]
		case 4:
			c, p := cents[4*j:4*j+4], pts[4*pi:4*pi+4]
			c[0] += p[0]
			c[1] += p[1]
			c[2] += p[2]
			c[3] += p[3]
		default:
			cj := cents[j*dim : (j+1)*dim]
			for t, v := range pts[pi*dim : (pi+1)*dim] {
				cj[t] += v
			}
		}
		pi++
		if r.val != int32(j) {
			*r = run{val: int32(j), n: 1}
		} else if r.n < m {
			r.n++
		}
	}
	scaleMeans(cents, sizes, dim)
	return row
}

// commitMovers is pass B of a step tallyMovers decided and the identity
// mapping accepted: the stable index of a slot is its fresh cluster, so the
// one history row and the run counters change only at the movers, the
// sizes are the fresh-cluster sizes and the centroids the scaled sums. It
// writes what commit would and returns the history row.
func (tr *Tracker) commitMovers() []int {
	k := tr.cfg.K
	row := tr.hist[tr.histHead]
	for _, i := range tr.movers {
		kk := tr.raw[i]
		row[i] = kk
		tr.runs[i] = run{val: int32(kk), n: 1}
	}
	copy(tr.sizes, tr.tallies[2*k*k:])
	copy(tr.cents, tr.sums)
	scaleMeans(tr.cents, tr.sizes, 1)
	tr.moverSteps++
	return row
}

// scaleMeans turns commit's per-cluster sums into means; an empty cluster
// keeps its zero sum.
func scaleMeans(cents []float64, sizes []int, dim int) {
	for j, c := range sizes {
		if c == 0 {
			continue
		}
		inv := 1 / float64(c)
		cj := cents[j*dim : (j+1)*dim]
		for t := range cj {
			cj[t] *= inv
		}
	}
}

// growInts returns buf resized to n, reallocating only when capacity is
// short. Contents are unspecified; callers overwrite.
func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}

// histAt reads the assignment of a slot `ago` steps back (0 = most recent;
// ago must be < histLen), treating vectors that predate the slot (recorded
// before the fleet grew to include it) as absent.
func (tr *Tracker) histAt(ago, slot int) int {
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
func (tr *Tracker) ForgetSlot(slot int) {
	if slot < 0 {
		return
	}
	for m := range tr.hist {
		if slot < len(tr.hist[m]) {
			tr.hist[m][slot] = -1
		}
	}
	if slot < len(tr.runs) {
		tr.runs[slot] = run{val: -1}
		tr.settled = false
	}
}

// RefitStats reports how many steps were warm-started incrementally and how
// many ran a full K-means refit; warm+full is the number of updates. Without
// Config.Incremental every step is a full refit.
func (tr *Tracker) RefitStats() (warm, full int) { return tr.warmSteps, tr.fullSteps }

// CentroidsFor computes eq. (1): the mean of the member points of each of the
// k clusters under the given assignment. Slots assigned -1 (absent members
// of an elastic fleet) are skipped. A cluster with no members gets a zero
// vector (callers using Tracker never observe this because K-means repairs
// empty clusters).
func CentroidsFor(assign []int, k int, points [][]float64) [][]float64 {
	if len(points) == 0 {
		return nil
	}
	d := 0
	for _, p := range points {
		if p != nil {
			d = len(p)
			break
		}
	}
	cents := make([][]float64, k)
	counts := make([]int, k)
	for j := range cents {
		cents[j] = make([]float64, d)
	}
	for i, p := range points {
		j := assign[i]
		if j < 0 {
			continue
		}
		counts[j]++
		for t, v := range p {
			cents[j][t] += v
		}
	}
	for j := range cents {
		if counts[j] == 0 {
			continue
		}
		inv := 1 / float64(counts[j])
		for t := range cents[j] {
			cents[j][t] *= inv
		}
	}
	return cents
}

// Static is the offline baseline: nodes are grouped once using their entire
// time series (known in advance), and the grouping never changes.
type Static struct {
	k      int
	assign []int
}

// NewStatic clusters the per-node whole series (series[i] is node i's full
// scalar time series, all equal length) into k fixed groups.
func NewStatic(series [][]float64, k int, rng *rand.Rand) (*Static, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: K = %d: %w", k, ErrBadConfig)
	}
	if len(series) < k {
		return nil, fmt.Errorf("cluster: %d series < K=%d: %w", len(series), k, ErrBadInput)
	}
	res, err := kmeans.Run(series, kmeans.Config{K: k}, rng)
	if err != nil {
		return nil, fmt.Errorf("cluster: static kmeans failed: %w", err)
	}
	return &Static{k: k, assign: append([]int(nil), res.Assignments...)}, nil
}

// UpdateFlat evaluates the static clustering against the current points,
// under Tracker.UpdateFlat's contract with every one of the n series'
// slots present: the assignment is fixed, and the centroids are the member
// means, summed in slot order and scaled as CentroidsFor does. The
// assignment is a view the caller must not write to.
func (s *Static) UpdateFlat(data []float64, n, dim int, present []bool) (assign []int, cents []float64, err error) {
	if err := checkBaseline(data, n, dim, s.k, present); err != nil {
		return nil, nil, err
	}
	if n != len(s.assign) {
		return nil, nil, fmt.Errorf("cluster: %d points for %d static series: %w", n, len(s.assign), ErrBadInput)
	}
	cents, sizes := make([]float64, s.k*dim), make([]int, s.k)
	for i, j := range s.assign {
		sizes[j]++
		cj := cents[j*dim : (j+1)*dim]
		for t, v := range data[i*dim : (i+1)*dim] {
			cj[t] += v
		}
	}
	scaleMeans(cents, sizes, dim)
	return s.assign, cents, nil
}

// ForgetSlot is a no-op: the grouping is fixed.
func (s *Static) ForgetSlot(int) {}

// MinimumDistance is the baseline representing random-monitor approaches
// [6]–[10]: each step K distinct random nodes become "centroids" and every
// other node maps to the nearest of them (by current measurement distance).
type MinimumDistance struct {
	k   int
	rng *rand.Rand
}

// NewMinimumDistance builds the baseline with k random monitors per step.
func NewMinimumDistance(k int, rng *rand.Rand) (*MinimumDistance, error) {
	if k < 1 {
		return nil, fmt.Errorf("cluster: K = %d: %w", k, ErrBadConfig)
	}
	if rng == nil {
		return nil, fmt.Errorf("cluster: nil rng: %w", ErrBadConfig)
	}
	return &MinimumDistance{k: k, rng: rng}, nil
}

// UpdateFlat draws K fresh random monitor slots (the first K of
// rng.Perm(n)) and assigns every slot to the closest monitor with
// kmeans.AssignFlat, under Tracker.UpdateFlat's contract with every slot
// present. The "centroid" of a cluster is the monitor's measurement itself,
// matching §VI-C2.
func (md *MinimumDistance) UpdateFlat(data []float64, n, dim int, present []bool) (assign []int, cents []float64, err error) {
	if err := checkBaseline(data, n, dim, md.k, present); err != nil {
		return nil, nil, err
	}
	cents, assign = make([]float64, md.k*dim), make([]int, n)
	for j, m := range md.rng.Perm(n)[:md.k] {
		copy(cents[j*dim:(j+1)*dim], data[m*dim:(m+1)*dim])
	}
	kmeans.AssignFlat(data, n, dim, cents, md.k, assign)
	return assign, cents, nil
}

// ForgetSlot is a no-op: the baseline keeps no per-slot history.
func (md *MinimumDistance) ForgetSlot(int) {}

// checkBaseline validates a baseline update's shape: at least K points of
// dim ≥ 1 in data, and no absent slot, since the baselines cluster every
// slot (a nil mask means all are present).
func checkBaseline(data []float64, n, dim, k int, present []bool) error {
	if n < k || dim < 1 || len(data) < n*dim {
		return fmt.Errorf("cluster: %d points of dim %d in %d values for K=%d: %w", n, dim, len(data), k, ErrBadInput)
	}
	if present != nil && (len(present) != n || slices.Contains(present, false)) {
		return fmt.Errorf("cluster: a baseline needs all %d slots present: %w", n, ErrBadInput)
	}
	return nil
}

// WindowBuffer accumulates the last w point-sets and exposes the concatenated
// feature vectors used for temporal-dimension clustering (Fig. 5). With w=1
// the features equal the raw points, which the paper finds optimal.
type WindowBuffer struct {
	w   int
	buf [][][]float64 // buf[age][node][dim], age 0 most recent
}

// NewWindowBuffer creates a buffer of window length w ≥ 1.
func NewWindowBuffer(w int) (*WindowBuffer, error) {
	if w < 1 {
		return nil, fmt.Errorf("cluster: window %d < 1: %w", w, ErrBadConfig)
	}
	return &WindowBuffer{w: w}, nil
}

// Push appends the current point-set (N×d), evicting the oldest when full.
func (b *WindowBuffer) Push(points [][]float64) {
	cp := make([][]float64, len(points))
	for i, p := range points {
		cp[i] = append([]float64(nil), p...)
	}
	b.buf = append([][][]float64{cp}, b.buf...)
	if len(b.buf) > b.w {
		b.buf = b.buf[:b.w]
	}
}

// Ready reports whether a full window has been accumulated.
func (b *WindowBuffer) Ready() bool { return len(b.buf) == b.w }

// Features returns the N×(w·d) concatenated feature matrix, most recent
// measurements first. It returns nil until Ready.
func (b *WindowBuffer) Features() [][]float64 {
	if !b.Ready() {
		return nil
	}
	n := len(b.buf[0])
	d := len(b.buf[0][0])
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		f := make([]float64, 0, b.w*d)
		for age := 0; age < b.w; age++ {
			f = append(f, b.buf[age][i]...)
		}
		out[i] = f
	}
	return out
}
