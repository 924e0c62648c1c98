package core

import (
	"math"
	"slices"
	"sync"

	"orcf/internal/parallel"
)

// ForecastPlan is the horizon-independent half of the §V-C reconstruction
// for every slot of the fleet: per (slot, tracker) the mode cluster j* of
// the look-back window, and per (slot, resource) the eq. (12) offset.
// Together with the centroid forecasts it makes a per-node forecast a
// lookup and an add (At), so readers that need a few values — one node's
// series, an alert rule's two horizons, a streamed response body — never
// materialise the fleet-wide [h][N][d] tensor.
//
// A plan is immutable once built and safe for concurrent use. Each published
// Snapshot carries the one built when it was published (Snapshot.Plan);
// System.Forecast builds one per call.
type ForecastPlan struct {
	// cent holds the centroid forecasts flat, [hi][tracker][cluster·dims]:
	// cluster j's forecast of dimension dim under tracker tr at horizon hi+1
	// is cent[hi*stride + tr*kd + j*dims + dim]. nil before the models
	// finish initial training, in which case every mode entry is -1.
	cent             []float64
	stride, kd, dims int
	// mode holds j* at [slot*nTracker + tracker]; -1 in every
	// tracker of a slot whose forecast is undefined (tombstone, or a joiner
	// with no presence in the look-back window yet).
	mode []int32
	// offset holds eq. (12) at [slot*resources + resource]. Under
	// scalar clustering resource r is tracker r's only dimension, under
	// joint clustering it is dimension r of the one tracker, so
	// tracker*dims + dim == resource either way.
	offset []float64
	// fill holds, per slot, the number of look-back steps the slot was
	// present at (Snapshot.WindowFill); counted before training too.
	fill []int32

	nTracker, resources int
	joint               bool
}

// planBlock is the number of slots one pass of the plan kernel covers. A
// block's counters and sums — K+1 int32 per slot·tracker and a float64 per
// slot·resource — stay in L1 while the window's presence, membership and z
// rows for those slots stream past.
const planBlock = 128

// planScratch is the plan kernel's per-block working set: one tracker's
// membership counts [slot][cluster], j* per [tracker][slot], one window
// step's list of slots that left j* (sumOffsets), the eq. (12) sums per
// [tracker][slot][dim], and maxAlphaInCell's δ. Blocks take it from
// planScratches and give it back, so a plan build allocates only the plan.
type planScratch struct {
	counts, modes, moved []int32
	sums, delta          []float64
}

var planScratches = sync.Pool{New: func() any { return new(planScratch) }}

// plan builds the h-independent half of §V-C for every slot of the env's
// look-back window around cent, the flat centroid table the plan keeps
// (System.centroidForecasts). Blocks of planBlock slots fan out on the worker
// pool; each writes only its own entries, so the plan is identical for any
// pool width. A nil cent (models not trained yet) plans every slot as
// undefined and only counts the window fill.
func (env *reconEnv) plan(cent []float64) *ForecastPlan {
	n, nT, kd := env.nodes, env.nTracker, env.k*env.dims
	p := &ForecastPlan{
		cent:      cent,
		stride:    nT * kd,
		kd:        kd,
		dims:      env.dims,
		mode:      make([]int32, n*nT),
		offset:    make([]float64, n*env.resources),
		fill:      make([]int32, n),
		nTracker:  nT,
		resources: env.resources,
		joint:     env.joint,
	}
	// The block kernel cannot fail, so neither can the fan-out.
	_ = parallel.ForEach((n+planBlock-1)/planBlock, func(b int) error {
		sc := planScratches.Get().(*planScratch)
		lo := b * planBlock
		env.planSlots(p, sc, lo, min(lo+planBlock, n))
		planScratches.Put(sc)
		return nil
	})
	return p
}

// planSlots plans slots [lo, hi) into p. One pass over the window counts the
// steps each slot was present at into the fill column; before training that
// is all. Per tracker, one more pass counts each slot's memberships at the
// steps it was present at, and the mode rule picks j* (§V-C): the cluster
// the slot belonged to most often, ties broken toward the newest present
// membership when it takes part in the tie and otherwise toward the smaller
// cluster index. A dead slot, or one with no counted membership under some
// tracker, is undefined in every tracker. Then, per tracker, one pass per
// window step sums eq. (12): per present step the α-scaled deviation from
// j*'s centroid — α is 1 when the slot belonged to j*, otherwise the largest
// shrink that keeps centroid + α·deviation in j*'s cell — and the sums,
// averaged over the present steps, become the plan's offset rows. Each
// slot's sum runs newest step first, as the per-slot reconstruction kept in
// reference_test.go does, so the result is the same to the bit.
func (env *reconEnv) planSlots(p *ForecastPlan, sc *planScratch, lo, hi int) {
	n, k, nT, dims, res := hi-lo, env.k, env.nTracker, env.dims, env.resources
	mode := p.mode[lo*nT : hi*nT]
	fill := p.fill[lo:hi]
	for _, slot := range env.slots {
		present := slot.present[lo:hi]
		fill := fill[:len(present)]
		for b, pr := range present {
			if pr {
				fill[b]++
			}
		}
	}
	if p.cent == nil {
		for i := range mode {
			mode[i] = -1
		}
		return
	}

	sc.counts = slices.Grow(sc.counts[:0], n*k)[:n*k]
	sc.modes = slices.Grow(sc.modes[:0], nT*n)[:nT*n]
	sc.moved = slices.Grow(sc.moved[:0], n)[:n]
	sc.sums = slices.Grow(sc.sums[:0], n*res)[:n*res]
	sc.delta = slices.Grow(sc.delta[:0], dims)[:dims]
	modes, sums := sc.modes, sc.sums
	for tr := 0; tr < nT; tr++ {
		env.modeColumn(sc.counts, modes[tr*n:(tr+1)*n], tr, lo)
	}
	for b, alive := range env.alive[lo:hi] {
		defined := alive
		for tr := 0; tr < nT; tr++ {
			defined = defined && modes[tr*n+b] >= 0
		}
		for tr := 0; tr < nT; tr++ {
			if !defined {
				modes[tr*n+b] = -1
			}
			mode[b*nT+tr] = modes[tr*n+b]
		}
	}

	clear(sums)
	for tr := 0; tr < nT; tr++ {
		col, s := modes[tr*n:(tr+1)*n], sums[tr*n*dims:(tr+1)*n*dims]
		for _, slot := range env.slots {
			env.sumOffsets(s, col, sc.moved, slot, tr, lo, sc.delta)
		}
	}
	offset := p.offset[lo*res : hi*res]
	for b, f := range fill {
		if mode[b*nT] < 0 {
			continue
		}
		inv := 1 / float64(f)
		for tr := 0; tr < nT; tr++ {
			s := sums[(tr*n+b)*dims : (tr*n+b+1)*dims]
			out := offset[b*res+tr*dims : b*res+(tr+1)*dims]
			for d := range out {
				out[d] = s[d] * inv
			}
		}
	}
}

// modeColumn writes j* under tracker tr for the len(col) slots from lo into
// col, -1 where a slot has no counted membership, counting the memberships
// into counts [slot][cluster]. The window is walked oldest step first, so the
// membership a slot's entry of col holds when the walk ends is its newest
// present one, the mode rule's tie-break.
func (env *reconEnv) modeColumn(counts, col []int32, tr, lo int) {
	k := env.k
	clear(counts)
	for b := range col {
		col[b] = -1
	}
	for ago := len(env.slots) - 1; ago >= 0; ago-- {
		slot := env.slots[ago]
		present := slot.present[lo : lo+len(col)]
		assign := slot.assignments[tr][lo : lo+len(present)]
		for b, p := range present {
			if a := assign[b]; p && a >= 0 {
				counts[b*k+int(a)]++
				col[b] = a
			}
		}
	}
	for b, best := range col {
		if best < 0 {
			continue
		}
		c := counts[b*k : (b+1)*k]
		bestCount := c[best]
		for j, cj := range c {
			if cj > bestCount {
				best, bestCount = int32(j), cj
			}
		}
		col[b] = best
	}
}

// sumOffsets adds one window step's eq. (12) terms under tracker tr to sums
// ([slot][dim] for the len(col) slots from lo) for every slot present at the
// step whose j* in col is defined: α·(z − c_j*), where α is 1 when the slot
// belonged to j* at the step. Per-resource clustering (width 1) runs in two
// passes: addUnit1 adds the α = 1 terms and lists the other slots in moved,
// then the listed slots get their α-scaled terms; every slot still gets the
// one add per step of the general loop that wider points run.
func (env *reconEnv) sumOffsets(sums []float64, col, moved []int32, slot *ringSlot, tr, lo int, delta []float64) {
	dims, clampAlpha := env.dims, !env.disableAlphaClamp
	present := slot.present[lo : lo+len(col)]
	assign := slot.assignments[tr][lo : lo+len(present)]
	cents := slot.centroids(tr)
	z := slot.z.points(tr)[lo*dims : (lo+len(present))*dims]
	if dims == 1 {
		m := addUnit1(sums, z, cents, col, moved, present, assign, clampAlpha)
		for _, b := range moved[:m] {
			j := int(col[b])
			sums[b] += maxAlphaInCell(z[b:b+1], j, cents, delta) * (z[b] - cents[j])
		}
		return
	}
	for b, p := range present {
		j := int(col[b])
		if !p || j < 0 {
			continue
		}
		c := cents[j*dims : (j+1)*dims]
		zi := z[b*dims : (b+1)*dims]
		alpha := 1.0
		if clampAlpha && int(assign[b]) != j {
			alpha = maxAlphaInCell(zi, j, cents, delta)
		}
		out := sums[b*dims : (b+1)*dims]
		for d := range out {
			out[d] += alpha * (zi[d] - c[d])
		}
	}
}

// addUnit1 is the first pass of sumOffsets at width 1: for every present
// slot with a defined j*, it adds z − c_j* (1·x is x), the term at α = 1, to
// the slot's sum, except that a slot that left j* at the step while the α
// clamp is on goes on the moved list instead. The slices are cut once, so
// only the data-dependent indices are bounds-checked, and the α search
// stays out of the loop. It returns the length of the list.
func addUnit1(sums, z, cents []float64, col, moved []int32, present []bool, assign []int32, clampAlpha bool) int {
	sums, z, col, moved, assign = sums[:len(present)], z[:len(present)], col[:len(present)], moved[:len(present)], assign[:len(present)]
	m := 0
	for b, p := range present {
		if j := col[b]; p && j >= 0 {
			if clampAlpha && assign[b] != j {
				moved[m] = int32(b)
				m++
				continue
			}
			sums[b] += z[b] - cents[j]
		}
	}
	return m
}

// At returns the forecast of one slot's resource at horizon hi+1: the
// forecasted centroid of the slot's mode cluster plus its eq. (12) offset,
// clamped to [0, 1]. It is NaN when the slot's forecast is undefined. slot
// must lie in [0, Nodes), resource in [0, Resources) and hi in
// [0, MaxHorizon) of the snapshot the plan came from.
func (p *ForecastPlan) At(slot, resource, hi int) float64 {
	var j int32
	var i int
	if p.joint {
		j = p.mode[slot]
		i = hi*p.stride + int(j)*p.dims + resource
	} else {
		j = p.mode[slot*p.nTracker+resource]
		i = hi*p.stride + resource*p.kd + int(j)
	}
	if j < 0 {
		return math.NaN()
	}
	return clamp(p.cent[i] + p.offset[slot*p.resources+resource])
}

// Row writes At(slot, r, hi) for every resource r into dst, which must have
// room for Resources values, and returns dst[:Resources]: one slot's row of
// a horizon with the slot's plan entries looked up once.
func (p *ForecastPlan) Row(slot, hi int, dst []float64) []float64 {
	offset := p.offset[slot*p.resources : (slot+1)*p.resources]
	dst = dst[:len(offset)]
	mode := p.mode[slot*p.nTracker : (slot+1)*p.nTracker]
	if mode[0] < 0 {
		for r := range dst {
			dst[r] = math.NaN()
		}
		return dst
	}
	if p.joint {
		cent := p.cent[hi*p.stride+int(mode[0])*p.dims:][:len(dst)]
		for r := range dst {
			dst[r] = clamp(cent[r] + offset[r])
		}
		return dst
	}
	cent := p.cent[hi*p.stride : (hi+1)*p.stride]
	for r, j := range mode[:len(dst)] {
		dst[r] = clamp(cent[r*p.kd+int(j)] + offset[r])
	}
	return dst
}

// RepeatsPrevious reports whether horizon hi's centroid forecasts equal
// horizon hi−1's bit for bit. Row and At read nothing else that depends on
// the horizon, so then Row(slot, hi) equals Row(slot, hi−1) for every slot:
// a family that forecasts one level for every horizon (sample-and-hold,
// ses, historical-mean) repeats horizon 1 at every later one. It is false
// at hi = 0 and before training.
func (p *ForecastPlan) RepeatsPrevious(hi int) bool {
	if p.cent == nil || hi <= 0 {
		return false
	}
	cur, prev := p.cent[hi*p.stride:(hi+1)*p.stride], p.cent[(hi-1)*p.stride:hi*p.stride]
	for i, v := range cur {
		if math.Float64bits(v) != math.Float64bits(prev[i]) {
			return false
		}
	}
	return true
}

// clamp fences a reconstructed value to [0, 1]; NaN and -0 pass unchanged.
func clamp(v float64) float64 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// tensor evaluates the plan at every (horizon ≤ h, slot, resource)
// into the result[hIdx][slot][resource] shape of System.Forecast. The
// h×N×d result shares one flat backing and one row-header array instead of
// h·N small slices; slots fan out on the worker pool.
func (p *ForecastPlan) tensor(h int) [][][]float64 {
	n, d := len(p.fill), p.resources
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
	_ = parallel.ForEach(n, func(i int) error {
		for hi := 0; hi < h; hi++ {
			p.Row(i, hi, out[hi][i])
		}
		return nil
	})
	return out
}

// reconEnv bundles everything the §V-C per-node reconstruction reads: the
// look-back ring (newest first), which slots are live, and the shape and
// ablation parameters. System.Forecast and the snapshot publish both plan
// through the System's env, which is what keeps served forecasts
// bit-identical to System.Forecast.
type reconEnv struct {
	slots             []*ringSlot // the valid look-back slots, newest first
	alive             []bool
	nodes, resources  int
	k, dims, nTracker int
	joint             bool
	disableAlphaClamp bool
}

func (s *System) reconEnv() *reconEnv {
	slots := make([]*ringSlot, s.ringLen)
	for ago := range slots {
		slots[ago] = s.snapAt(ago)
	}
	return &reconEnv{
		slots:             slots,
		alive:             s.alive,
		nodes:             len(s.ids),
		resources:         s.cfg.Resources,
		k:                 s.cfg.K,
		dims:              s.dims,
		nTracker:          s.nTrackers,
		joint:             s.cfg.JointClustering,
		disableAlphaClamp: s.cfg.DisableAlphaClamp,
	}
}

// maxAlphaInCell returns the largest α ∈ [0,1] such that c_j + α(z−c_j)
// remains closest to centroid j among all centroids (i.e. stays inside
// cluster j's Voronoi cell). For each other centroid j′ with u = c_j′ − c_j
// and δ = z − c_j, the boundary constraint is α·(2δ·u) ≤ ‖u‖². The
// centroids are row-major (len(z) values each) and delta is a caller's δ
// scratch of length ≥ len(z), so the Forecast hot path runs
// allocation-free.
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
