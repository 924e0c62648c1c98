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
			sc.zi = make([]float64, env.dims)
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
