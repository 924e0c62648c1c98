package core

import "orcf/internal/mat"

// zFrame is the fleet's measurement matrix z — one d-vector per slot — held
// in one mat.Frame in tracker-major order: tracker tr's points (the scalars
// of resource tr under per-resource clustering, the whole d-vectors under
// joint clustering) are the contiguous rows [tr·n, (tr+1)·n) of width dims.
// A tracker therefore clusters its block in place, without a projection
// pass, and a whole matrix copies with one memmove. Resource r of a slot is
// dimension r%dims of tracker r/dims; one of the two is always trivial
// (dims == 1, or a single tracker).
type zFrame struct {
	f        *mat.Frame // (trackers·n) × dims
	n        int        // slots
	trackers int
}

func newZFrame(n, trackers, dims int) zFrame {
	return zFrame{f: mat.NewFrame(trackers*n, dims), n: n, trackers: trackers}
}

// points returns tracker tr's n points, row-major n×dims.
func (z *zFrame) points(tr int) []float64 {
	block := z.n * z.f.Cols()
	return z.f.Data()[tr*block : (tr+1)*block]
}

// vec returns slot i's point under tracker tr as a view.
func (z *zFrame) vec(tr, i int) []float64 {
	dims := z.f.Cols()
	off := (tr*z.n + i) * dims
	return z.f.Data()[off : off+dims : off+dims]
}

// strided returns the backing array with the index steps of a slot and of a
// resource: resource r of slot i is data[i*slot+r*res] — column r of the
// per-resource layout, row i of the joint one.
func (z *zFrame) strided() (data []float64, slot, res int) {
	if dims := z.f.Cols(); dims > 1 {
		return z.f.Data(), dims, 1
	}
	return z.f.Data(), 1, z.n
}

// set stores slot i's measurement x (len trackers·dims).
func (z *zFrame) set(i int, x []float64) {
	data, slot, res := z.strided()
	for r, v := range x {
		data[i*slot+r*res] = v
	}
}

// row gathers slot i's measurement into dst (len trackers·dims) and returns
// dst.
func (z *zFrame) row(i int, dst []float64) []float64 {
	data, slot, res := z.strided()
	for r := range dst {
		dst[r] = data[i*slot+r*res]
	}
	return dst
}

// clearRow zeroes slot i's measurement.
func (z *zFrame) clearRow(i int) {
	for tr := 0; tr < z.trackers; tr++ {
		clear(z.vec(tr, i))
	}
}

// grow extends the matrix to n slots in place; new rows are zero.
func (z *zFrame) grow(n int) {
	if n <= z.n {
		return
	}
	if z.trackers == 1 {
		z.f.Grow(n)
		z.n = n
		return
	}
	old := *z
	*z = newZFrame(n, z.trackers, z.f.Cols())
	for tr := 0; tr < z.trackers; tr++ {
		copy(z.points(tr), old.points(tr))
	}
}

// copyFrom overwrites z with src, which must have the same shape.
func (z *zFrame) copyFrom(src *zFrame) { copy(z.f.Data(), src.f.Data()) }

// rowViews cuts row-major flat into its rows of d values each.
func rowViews(flat []float64, d int) [][]float64 {
	rows := make([][]float64, len(flat)/d)
	for j := range rows {
		rows[j] = flat[j*d : (j+1)*d : (j+1)*d]
	}
	return rows
}

// ringSlot is one slot of the look-back ring used by eq. (12), and the
// System's stage, which is also the central store. All backing arrays are
// allocated in NewSystem and overwritten in place; they grow in place when
// the fleet grows, so every ring slot spans the whole fleet. (The immutable
// copy of the newest slot a Snapshot carries, a slotCopy, has the same z
// layout at the fleet size of its publication.)
type ringSlot struct {
	z           zFrame    // stored measurements of the step
	assignments [][]int32 // [tracker][slot]; -1 = absent; cluster indices are below K
	cents       []float64 // [tracker][cluster][dim], flat
	kd          int       // K·dims: one tracker's share of cents
	present     []bool    // slots clustered at this step: those holding a stored measurement
}

// centroids returns tracker tr's K centroids of the step, K×dims row-major.
func (slot *ringSlot) centroids(tr int) []float64 {
	return slot.cents[tr*slot.kd : (tr+1)*slot.kd]
}

// newRingSlot allocates one empty look-back slot shaped for the current
// fleet size.
func (s *System) newRingSlot() ringSlot {
	n := len(s.ids)
	slot := ringSlot{
		z:           newZFrame(n, s.nTrackers, s.dims),
		assignments: make([][]int32, s.nTrackers),
		cents:       make([]float64, s.nTrackers*s.cfg.K*s.dims),
		kd:          s.cfg.K * s.dims,
		present:     make([]bool, n),
	}
	for tr := range slot.assignments {
		slot.assignments[tr] = make([]int32, n)
		for i := range slot.assignments[tr] {
			slot.assignments[tr][i] = -1
		}
	}
	return slot
}

// maskSlot erases one node's trace from a live look-back slot: absent
// presence and -1 assignments (its z values are unreachable once masked).
// Never called on published snapshot slots, which stay immutable.
func maskSlot(slot *ringSlot, i int) {
	slot.present[i] = false
	for tr := range slot.assignments {
		slot.assignments[tr][i] = -1
	}
}

// growSlot extends a slot's per-node arrays to n entries in place (new
// entries are absent). Never called on a snapshot's copy, which stays
// immutable at the size it was written.
func growSlot(slot *ringSlot, n int) {
	slot.z.grow(n)
	for len(slot.present) < n {
		slot.present = append(slot.present, false)
	}
	for tr := range slot.assignments {
		for len(slot.assignments[tr]) < n {
			slot.assignments[tr] = append(slot.assignments[tr], -1)
		}
	}
}
