package cluster

import "fmt"

// State is the serializable state of a Tracker (everything that evolves
// across Update calls) but two things the caller keeps anyway: the K-means
// RNG, which the Tracker borrows from the caller, and the last returned
// centroids, the warm start of the next update, which the caller stores as
// that step's result. A caller that wants deterministic resumption captures
// both alongside this State and hands them back to RestoreState (core.System
// keeps the RNG source and the newest look-back slot's centroids).
type State struct {
	// T is the number of processed updates.
	T int
	// Dim pins the point dimensionality seen at the first update and N the
	// current slot count (0 until then; N may have grown across updates).
	Dim, N int
	// Hist is the assignment ring, most recent first. -1 marks a slot that
	// was absent at that step; vectors recorded before the fleet grew may be
	// shorter than N, with missing entries reading as absent.
	Hist [][]int
	// CentroidSeries is the centroid history, indexed [cluster][dim][t],
	// that trackers kept before the forecasting ensemble's series became the
	// only one. ExportState leaves it nil; RestoreState ignores it in
	// checkpoints written by earlier builds.
	CentroidSeries [][][]float64
}

// ExportState deep-copies the tracker's mutable state. The returned State
// shares no memory with the tracker, so it may be serialized concurrently
// with further updates to the live tracker.
func (tr *Tracker) ExportState() *State {
	st := &State{T: tr.t, Dim: tr.dim, N: tr.n}
	st.Hist = make([][]int, tr.histLen)
	for i := 0; i < tr.histLen; i++ {
		h := tr.hist[(tr.histHead-i+len(tr.hist))%len(tr.hist)]
		st.Hist[i] = append([]int(nil), h...)
	}
	return st
}

// RestoreState replaces a freshly constructed tracker's state with an
// exported one. cents are the K stable centroids (K×Dim row-major) the
// exporting tracker returned from its last update, the seed of the next warm
// start; a zero-step state takes none. The tracker must not have processed
// any update yet, and the state must match the tracker's configuration (K,
// assignment ranges); of a history deeper than HistoryDepth only the newest
// HistoryDepth rows are kept. The State and cents are copied; the caller
// keeps ownership.
func (tr *Tracker) RestoreState(st *State, cents []float64) error {
	if tr.t != 0 {
		return fmt.Errorf("cluster: restore into tracker with %d steps: %w", tr.t, ErrBadInput)
	}
	if st == nil {
		return fmt.Errorf("cluster: nil state: %w", ErrBadInput)
	}
	if st.T < 0 || st.Dim < 0 || st.N < 0 {
		return fmt.Errorf("cluster: negative state counters: %w", ErrBadInput)
	}
	if st.T == 0 {
		if len(st.Hist) != 0 || len(cents) != 0 {
			return fmt.Errorf("cluster: zero-step state carries history: %w", ErrBadInput)
		}
		return nil
	}
	if len(st.Hist) == 0 || len(st.Hist) > st.T {
		return fmt.Errorf("cluster: history length %d (%d steps): %w", len(st.Hist), st.T, ErrBadInput)
	}
	for _, h := range st.Hist {
		// Vectors recorded before the fleet grew are shorter than the current
		// slot count; missing entries read as absent (-1).
		if len(h) > st.N {
			return fmt.Errorf("cluster: assignment vector length %d > %d slots: %w", len(h), st.N, ErrBadInput)
		}
		for _, j := range h {
			if j < -1 || j >= tr.cfg.K {
				return fmt.Errorf("cluster: assignment %d outside [-1,%d): %w", j, tr.cfg.K, ErrBadInput)
			}
		}
	}
	if st.Dim < 1 || len(cents) != tr.cfg.K*st.Dim {
		return fmt.Errorf("cluster: %d seed centroid values for K=%d, dim %d: %w",
			len(cents), tr.cfg.K, st.Dim, ErrBadInput)
	}

	tr.t = st.T
	tr.dim = st.Dim
	tr.n = st.N
	// The wire format stores history most-recent-first; rebuild the ring so
	// hist[histHead] is the newest row. A history recorded deeper than this
	// tracker keeps (by a configuration that retained more rows) loses its
	// oldest rows: the eq. (10) counters read only the newest M.
	tr.hist = make([][]int, tr.cfg.HistoryDepth)
	tr.histLen = min(len(st.Hist), tr.cfg.HistoryDepth)
	tr.histHead = tr.histLen - 1
	for i, h := range st.Hist[:tr.histLen] {
		tr.hist[tr.histLen-1-i] = append([]int(nil), h...)
	}
	tr.rebuildStreaks()
	tr.cents = append([]float64(nil), cents...)
	return nil
}

// rebuildStreaks recomputes the eq. (10) run-length counters from the
// restored history ring. Scanning min(M, histLen) rows reproduces exactly
// the counters the tracker would have maintained online: a run can never
// exceed t, histLen ≥ min(M, t), and both paths cap runs at M.
func (tr *Tracker) rebuildStreaks() {
	tr.runs = make([]run, tr.n)
	limit := min(tr.cfg.M, tr.histLen)
	for i := range tr.runs {
		j := tr.histAt(0, i)
		if j < 0 {
			tr.runs[i] = run{val: -1}
			continue
		}
		length := 1
		for m := 1; m < limit && tr.histAt(m, i) == j; m++ {
			length++
		}
		tr.runs[i] = run{val: int32(j), n: int32(length)}
	}
}
