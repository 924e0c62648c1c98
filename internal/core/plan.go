package core

import (
	"math"

	"orcf/internal/parallel"
)

// ForecastPlan is the horizon-independent half of the §V-C reconstruction
// for a contiguous range of slots: per (slot, tracker) the mode cluster j*
// of the look-back window, and per (slot, resource) the eq. (12) offset.
// Together with the centroid forecasts it makes a per-node forecast a
// lookup and an add (At), so readers that need a few values — one node's
// series, an alert rule's two horizons, a streamed response body — never
// materialise the fleet-wide [h][N][d] tensor.
//
// A plan is immutable once built and safe for concurrent use. Plans come
// from Snapshot.Plan (the whole fleet, built at most once per snapshot) and
// Snapshot.PlanNode (one slot, computed on the spot).
type ForecastPlan struct {
	// centF is indexed [tracker][cluster][dim][hi]; nil before the models
	// finish initial training, in which case every mode entry is -1.
	centF [][][][]float64
	// mode holds j* at [(slot-first)*nTracker + tracker]; -1 in every
	// tracker of a slot whose forecast is undefined (tombstone, or a joiner
	// with no presence in the look-back window yet).
	mode []int32
	// offset holds eq. (12) at [(slot-first)*resources + resource]. Under
	// scalar clustering resource r is tracker r's only dimension, under
	// joint clustering it is dimension r of the one tracker, so
	// tracker*dims + dim == resource either way.
	offset []float64

	first, count        int // the planned slots are [first, first+count)
	nTracker, resources int
	joint, disableClamp bool
}

// plan builds the h-independent half of §V-C for slots [first, first+count)
// of the env's look-back window. Slots fan out on the worker pool; each
// writes only its own entries, so the plan is identical for any worker
// count. A nil centF (models not trained yet) plans every slot as undefined
// without scanning the window.
func (env *reconEnv) plan(centF [][][][]float64, first, count, workers int) *ForecastPlan {
	p := &ForecastPlan{
		centF:        centF,
		mode:         make([]int32, count*env.nTracker),
		offset:       make([]float64, count*env.resources),
		first:        first,
		count:        count,
		nTracker:     env.nTracker,
		resources:    env.resources,
		joint:        env.joint,
		disableClamp: env.disableClamp,
	}
	if centF == nil {
		for i := range p.mode {
			p.mode[i] = -1
		}
		return p
	}
	scratches := make([]fcScratch, min(parallel.Workers(workers), count))
	// The per-slot function cannot fail, so neither can the fan-out.
	_ = parallel.ForEachWorker(workers, count, func(w, k int) error {
		sc := &scratches[w]
		if sc.counts == nil {
			sc.counts = make([]int, env.k)
			sc.offset = make([]float64, env.dims)
			sc.delta = make([]float64, env.dims)
		}
		env.planSlot(sc, first+k,
			p.mode[k*env.nTracker:(k+1)*env.nTracker],
			p.offset[k*env.resources:(k+1)*env.resources])
		return nil
	})
	return p
}

// planSlot computes one slot's mode clusters and eq. (12) offsets into the
// given plan rows (len nTracker and len resources). A dead slot, or one with
// no presence in the window under some tracker, is marked undefined in every
// tracker.
func (env *reconEnv) planSlot(sc *fcScratch, slot int, mode []int32, offset []float64) {
	defined := env.aliveAt(slot)
	for tr := 0; defined && tr < env.nTracker; tr++ {
		jStar := env.modeCluster(sc, tr, slot)
		if jStar < 0 {
			defined = false
			break
		}
		mode[tr] = int32(jStar)
		copy(offset[tr*env.dims:], env.offset(sc, tr, slot, jStar))
	}
	if !defined {
		for tr := range mode {
			mode[tr] = -1
		}
	}
}

// At returns the forecast of one slot's resource at horizon hi+1: the
// forecasted centroid of the slot's mode cluster plus its eq. (12) offset,
// clamped to [0, 1] unless the clamp ablation is on. It is NaN when the
// slot's forecast is undefined. slot must lie in the planned range, resource
// in [0, Resources) and hi in [0, MaxHorizon) of the snapshot the plan came
// from.
func (p *ForecastPlan) At(slot, resource, hi int) float64 {
	k := slot - p.first
	tr, dim := resource, 0
	if p.joint {
		tr, dim = 0, resource
	}
	j := p.mode[k*p.nTracker+tr]
	if j < 0 {
		return math.NaN()
	}
	v := p.centF[tr][j][dim][hi] + p.offset[k*p.resources+resource]
	if !p.disableClamp {
		if v < 0 {
			v = 0
		}
		if v > 1 {
			v = 1
		}
	}
	return v
}

// tensor evaluates the plan at every (horizon ≤ h, planned slot, resource)
// into the result[hIdx][slot][resource] shape of System.Forecast. The
// h×N×d result shares one flat backing and one row-header array instead of
// h·N small slices; slots fan out on the worker pool.
func (p *ForecastPlan) tensor(h, workers int) [][][]float64 {
	n, d := p.count, p.resources
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
	_ = parallel.ForEach(workers, n, func(i int) error {
		for hi := 0; hi < h; hi++ {
			row := out[hi][i]
			for r := range row {
				row[r] = p.At(p.first+i, r, hi)
			}
		}
		return nil
	})
	return out
}

// reconEnv bundles everything the §V-C per-node reconstruction reads: the
// look-back window (newest first) plus the shape and ablation parameters.
// Both the live System (over its mutable ring) and a published Snapshot
// (over its immutable slot window) reconstruct through the same env, which
// is what keeps served forecasts bit-identical to System.Forecast.
type reconEnv struct {
	slotAt            func(ago int) *ringSlot
	aliveAt           func(slot int) bool
	window            int // number of valid look-back slots
	nodes, resources  int
	k, dims, nTracker int
	joint             bool
	disableClamp      bool
	disableAlphaClamp bool
}

func (s *System) reconEnv() *reconEnv {
	return &reconEnv{
		slotAt:            s.snapAt,
		aliveAt:           func(i int) bool { return s.alive[i] },
		window:            s.ringLen,
		nodes:             len(s.ids),
		resources:         s.cfg.Resources,
		k:                 s.cfg.K,
		dims:              s.dims,
		nTracker:          s.nTrackers,
		joint:             s.cfg.JointClustering,
		disableClamp:      s.cfg.DisableClamp,
		disableAlphaClamp: s.cfg.DisableAlphaClamp,
	}
}

// fcScratch is the per-worker scratch of Forecast: reused across the nodes
// one worker processes so the per-node path allocates nothing.
type fcScratch struct {
	counts []int     // membership counts, len K
	offset []float64 // eq. (12) accumulator, len dims
	delta  []float64 // MaxAlphaInCell scratch, len dims
}

// reconstruct applies §V-C over an env's look-back window in its two halves:
// plan the h-independent part (mode cluster and eq. (12) offset per slot, over
// the steps the node was present at), then evaluate it against the centroid
// forecasts at every horizon. Slots that are dead, or whose member has no
// presence in the window yet (a joiner still warming up), forecast as NaN.
// centF is indexed [tracker][cluster][dim][hi] and must cover hi < h. The
// result is identical for any worker count.
func reconstruct(env *reconEnv, centF [][][][]float64, h, workers int) [][][]float64 {
	return env.plan(centF, 0, env.nodes, workers).tensor(h, workers)
}

// modeCluster returns the cluster node i belonged to most often within the
// look-back window [t−M′, t] for tracker tr (§V-C), counting only the steps
// the node was present at. Ties break toward the newest present membership
// when it participates in the tie, and otherwise toward the smaller cluster
// index, keeping the choice deterministic. It returns -1 when the node was
// present at no step of the window.
func (env *reconEnv) modeCluster(sc *fcScratch, tr, node int) int {
	counts := sc.counts
	for j := range counts {
		counts[j] = 0
	}
	newest := -1
	for ago := 0; ago < env.window; ago++ {
		slot := env.slotAt(ago)
		if !slot.presentAt(node) {
			continue
		}
		a := slot.assignments[tr][node]
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

// offset computes eq. (12): the averaged α-scaled deviation of node i from
// the centroid of cluster jStar over the look-back steps the node was
// present at. α is 1 when the node belonged to jStar at that step;
// otherwise it shrinks the deviation just enough that centroid+α·deviation
// still falls in jStar's cell. The returned slice is the scratch
// accumulator, valid until the next call with the same scratch.
func (env *reconEnv) offset(sc *fcScratch, tr, node, jStar int) []float64 {
	out := sc.offset[:env.dims]
	for d := range out {
		out[d] = 0
	}
	seen := 0
	for ago := 0; ago < env.window; ago++ {
		slot := env.slotAt(ago)
		if !slot.presentAt(node) {
			continue
		}
		seen++
		cents := slot.centroids(tr)
		c := cents[jStar*env.dims : (jStar+1)*env.dims]
		zi := slot.z.vec(tr, node)
		alpha := 1.0
		if !env.disableAlphaClamp && slot.assignments[tr][node] != jStar {
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

// MaxAlphaInCell returns the largest α ∈ [0,1] such that c_j + α(z−c_j)
// remains closest to centroid j among all centroids (i.e. stays inside
// cluster j's Voronoi cell). For each other centroid j′ with u = c_j′ − c_j
// and δ = z − c_j, the boundary constraint is α·(2δ·u) ≤ ‖u‖².
func MaxAlphaInCell(z []float64, j int, centroids [][]float64) float64 {
	flat := make([]float64, 0, len(centroids)*len(z))
	for _, c := range centroids {
		flat = append(flat, c...)
	}
	return maxAlphaInCell(z, j, flat, make([]float64, len(z)))
}

// maxAlphaInCell is MaxAlphaInCell over row-major centroids (len(z) values
// each) with a caller-provided δ scratch of length ≥ len(z), so the Forecast
// hot path runs allocation-free.
func maxAlphaInCell(z []float64, j int, cents []float64, delta []float64) float64 {
	dim := len(z)
	cj := cents[j*dim : (j+1)*dim]
	delta = delta[:dim]
	var deltaNorm float64
	for d := range z {
		delta[d] = z[d] - cj[d]
		deltaNorm += delta[d] * delta[d]
	}
	if deltaNorm == 0 {
		return 1
	}
	alpha := 1.0
	for jp := 0; jp*dim < len(cents); jp++ {
		if jp == j {
			continue
		}
		cjp := cents[jp*dim : (jp+1)*dim]
		var dot, uNorm float64
		for d := range z {
			u := cjp[d] - cj[d]
			dot += delta[d] * u
			uNorm += u * u
		}
		if dot <= 0 {
			continue // moving away from this boundary
		}
		if bound := uNorm / (2 * dot); bound < alpha {
			alpha = bound
		}
	}
	if alpha < 0 {
		alpha = 0
	}
	return alpha
}
