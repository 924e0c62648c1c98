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
	// centF is indexed [tracker][cluster][dim][hi]; nil before the models
	// finish initial training, in which case every mode entry is -1.
	centF [][][][]float64
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
	joint, disableClamp bool
}

// planBlock is the number of slots one pass of the plan kernel covers. A
// block's counters — K+2 int32 per slot — stay in L1 while the window's
// presence, membership and z rows for those slots stream past.
const planBlock = 128

// planScratch is the plan kernel's per-block working set: membership counts
// [slot][cluster], the newest present membership per slot, and
// maxAlphaInCell's δ. Blocks take it from planScratches and give it back, so
// a plan build allocates only the plan.
type planScratch struct {
	counts, newest []int32
	delta          []float64
}

var planScratches = sync.Pool{New: func() any { return new(planScratch) }}

// plan builds the h-independent half of §V-C for every slot of the env's
// look-back window. Blocks of planBlock slots fan out on the worker pool;
// each writes only its own entries, so the plan is identical for any worker
// count. A nil centF (models not trained yet) plans every slot as undefined
// and only counts the window fill.
func (env *reconEnv) plan(centF [][][][]float64, workers int) *ForecastPlan {
	n := env.nodes
	p := &ForecastPlan{
		centF:        centF,
		mode:         make([]int32, n*env.nTracker),
		offset:       make([]float64, n*env.resources),
		fill:         make([]int32, n),
		nTracker:     env.nTracker,
		resources:    env.resources,
		joint:        env.joint,
		disableClamp: env.disableClamp,
	}
	// The block kernel cannot fail, so neither can the fan-out.
	_ = parallel.ForEach(workers, (n+planBlock-1)/planBlock, func(b int) error {
		sc := planScratches.Get().(*planScratch)
		lo := b * planBlock
		env.planSlots(p, sc, lo, min(lo+planBlock, n))
		planScratches.Put(sc)
		return nil
	})
	return p
}

// planSlots plans slots [lo, hi) into p, slot-major. One pass over the
// window counts the steps each slot was present at into the fill column;
// before training that is all. Per tracker, one more pass counts each slot's
// memberships at the steps it was present at, and the mode rule picks j*
// (§V-C): the cluster the slot belonged to most often, ties broken toward
// the newest present membership when it takes part in the tie and otherwise
// toward the smaller cluster index. A dead slot, or one with no counted
// membership under some tracker, is undefined in every tracker. Then one
// more pass per tracker sums eq. (12) straight into the plan's offset rows:
// per present step the α-scaled deviation from j*'s centroid — α is 1 when
// the slot belonged to j*, otherwise the largest shrink that keeps
// centroid + α·deviation in j*'s cell — averaged over the present steps. Each slot's sum runs newest step first, as the per-slot
// reconstruction kept in reference_test.go does, so the result is the same to
// the bit.
func (env *reconEnv) planSlots(p *ForecastPlan, sc *planScratch, lo, hi int) {
	n, k, nT, dims, res := hi-lo, env.k, env.nTracker, env.dims, env.resources
	mode := p.mode[lo*nT : hi*nT]
	offset := p.offset[lo*res : hi*res]
	fill := p.fill[lo:hi]
	for _, slot := range env.slots {
		for b, present := range slot.present[lo:hi] {
			if present {
				fill[b]++
			}
		}
	}
	if p.centF == nil {
		for i := range mode {
			mode[i] = -1
		}
		return
	}

	sc.counts = slices.Grow(sc.counts[:0], n*k)[:n*k]
	sc.newest = slices.Grow(sc.newest[:0], n)[:n]
	sc.delta = slices.Grow(sc.delta[:0], dims)[:dims]
	counts, newest := sc.counts, sc.newest
	for tr := 0; tr < nT; tr++ {
		clear(counts)
		for b := range newest {
			newest[b] = -1
		}
		for _, slot := range env.slots {
			present, assign := slot.present[lo:hi], slot.assignments[tr][lo:hi]
			assign = assign[:len(present)]
			for b, p := range present {
				if !p {
					continue
				}
				if a := assign[b]; a >= 0 {
					counts[b*k+a]++
					if newest[b] < 0 {
						newest[b] = int32(a)
					}
				}
			}
		}
		for b, best := range newest {
			if best >= 0 {
				c := counts[b*k : (b+1)*k]
				bestCount := c[best]
				for j, cj := range c {
					if cj > bestCount {
						best, bestCount = int32(j), cj
					}
				}
			}
			mode[b*nT+tr] = best
		}
	}
	for b := 0; b < n; b++ {
		m := mode[b*nT : (b+1)*nT]
		if !env.alive[lo+b] || slices.Contains(m, -1) {
			for tr := range m {
				m[tr] = -1
			}
		}
	}

	for tr := 0; tr < nT; tr++ {
		for _, slot := range env.slots {
			present, assign := slot.present[lo:hi], slot.assignments[tr][lo:hi]
			assign = assign[:len(present)]
			cents := slot.centroids(tr)
			z := slot.z.points(tr)
			for b, p := range present {
				j := int(mode[b*nT+tr])
				if !p || j < 0 {
					continue
				}
				i := lo + b
				c := cents[j*dims : (j+1)*dims]
				zi := z[i*dims : (i+1)*dims]
				alpha := 1.0
				if !env.disableAlphaClamp && assign[b] != j {
					alpha = maxAlphaInCell(zi, j, cents, sc.delta)
				}
				out := offset[b*res+tr*dims : b*res+(tr+1)*dims]
				for d := range out {
					out[d] += alpha * (zi[d] - c[d])
				}
			}
		}
	}
	for b, f := range fill {
		if mode[b*nT] < 0 {
			continue
		}
		inv := 1 / float64(f)
		out := offset[b*res : (b+1)*res]
		for d := range out {
			out[d] *= inv
		}
	}
}

// At returns the forecast of one slot's resource at horizon hi+1: the
// forecasted centroid of the slot's mode cluster plus its eq. (12) offset,
// clamped to [0, 1] unless the clamp ablation is on. It is NaN when the
// slot's forecast is undefined. slot must lie in [0, Nodes), resource in
// [0, Resources) and hi in [0, MaxHorizon) of the snapshot the plan came
// from.
func (p *ForecastPlan) At(slot, resource, hi int) float64 {
	tr, dim := resource, 0
	if p.joint {
		tr, dim = 0, resource
	}
	j := p.mode[slot*p.nTracker+tr]
	if j < 0 {
		return math.NaN()
	}
	return p.clamp(p.centF[tr][j][dim][hi] + p.offset[slot*p.resources+resource])
}

// Row writes At(slot, r, hi) for every resource r into dst, which must have
// room for Resources values, and returns dst[:Resources]: one slot's row of
// a horizon with the slot's plan entries looked up once.
func (p *ForecastPlan) Row(slot, hi int, dst []float64) []float64 {
	mode := p.mode[slot*p.nTracker : (slot+1)*p.nTracker]
	offset := p.offset[slot*p.resources : (slot+1)*p.resources]
	dst = dst[:p.resources]
	if mode[0] < 0 {
		for r := range dst {
			dst[r] = math.NaN()
		}
		return dst
	}
	if p.joint {
		cf := p.centF[0][mode[0]]
		for r := range dst {
			dst[r] = p.clamp(cf[r][hi] + offset[r])
		}
		return dst
	}
	for r := range dst {
		dst[r] = p.clamp(p.centF[r][mode[r]][0][hi] + offset[r])
	}
	return dst
}

// clamp fences a reconstructed value to [0, 1] unless the clamp ablation is
// on.
func (p *ForecastPlan) clamp(v float64) float64 {
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

// tensor evaluates the plan at every (horizon ≤ h, slot, resource)
// into the result[hIdx][slot][resource] shape of System.Forecast. The
// h×N×d result shares one flat backing and one row-header array instead of
// h·N small slices; slots fan out on the worker pool.
func (p *ForecastPlan) tensor(h, workers int) [][][]float64 {
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
	_ = parallel.ForEach(workers, n, func(i int) error {
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
	disableClamp      bool
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
		disableClamp:      s.cfg.DisableClamp,
		disableAlphaClamp: s.cfg.DisableAlphaClamp,
	}
}

// reconstruct applies §V-C over an env's look-back window in its two halves:
// plan the h-independent part (mode cluster and eq. (12) offset per slot, over
// the steps the node was present at), then evaluate it against the centroid
// forecasts at every horizon. Slots that are dead, or whose member has no
// presence in the window yet (a joiner still warming up), forecast as NaN.
// centF is indexed [tracker][cluster][dim][hi] and must cover hi < h. The
// result is identical for any worker count.
func reconstruct(env *reconEnv, centF [][][][]float64, h, workers int) [][][]float64 {
	return env.plan(centF, workers).tensor(h, workers)
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
