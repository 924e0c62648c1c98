package cluster

import "fmt"

// State is the complete serializable state of a Tracker (everything that
// evolves across Update calls). It does not include the K-means RNG: the
// Tracker borrows its *rand.Rand from the caller, so the caller that wants
// deterministic resumption must capture and restore the underlying source
// alongside this State (core.System does exactly that for its trackers).
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
	// CentroidSeries is the full centroid history, indexed [cluster][dim][t].
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
	if tr.centroidSeries != nil {
		st.CentroidSeries = make([][][]float64, len(tr.centroidSeries))
		for j, byDim := range tr.centroidSeries {
			st.CentroidSeries[j] = make([][]float64, len(byDim))
			for d, series := range byDim {
				st.CentroidSeries[j][d] = append([]float64(nil), series...)
			}
		}
	}
	return st
}

// RestoreState replaces a freshly constructed tracker's state with an
// exported one. The tracker must not have processed any update yet, and the
// state must match the tracker's configuration (K, assignment ranges); of a
// history deeper than HistoryDepth only the newest HistoryDepth rows are
// kept. The State is deep-copied; the caller keeps ownership.
func (tr *Tracker) RestoreState(st *State) error {
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
		if len(st.Hist) != 0 || st.CentroidSeries != nil {
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
	if len(st.CentroidSeries) != tr.cfg.K {
		return fmt.Errorf("cluster: %d centroid series, want K=%d: %w",
			len(st.CentroidSeries), tr.cfg.K, ErrBadInput)
	}
	for j, byDim := range st.CentroidSeries {
		if len(byDim) != st.Dim {
			return fmt.Errorf("cluster: cluster %d has %d dims, want %d: %w", j, len(byDim), st.Dim, ErrBadInput)
		}
		for d, series := range byDim {
			if len(series) != st.T {
				return fmt.Errorf("cluster: series (%d,%d) has %d values, want %d: %w",
					j, d, len(series), st.T, ErrBadInput)
			}
		}
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
	tr.centroidSeries = make([][][]float64, len(st.CentroidSeries))
	for j, byDim := range st.CentroidSeries {
		tr.centroidSeries[j] = make([][]float64, len(byDim))
		for d, series := range byDim {
			tr.centroidSeries[j][d] = append([]float64(nil), series...)
		}
	}
	// Re-seed warm incremental refits from the last recorded centroids.
	tr.cents = make([]float64, tr.cfg.K*tr.dim)
	for j, byDim := range st.CentroidSeries {
		for d, series := range byDim {
			tr.cents[j*tr.dim+d] = series[st.T-1]
		}
	}
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
