package forecast

import (
	"fmt"
	"slices"
	"time"
)

// EnsembleState is the serializable state of an Ensemble. It deliberately
// carries no model weights: every Model's Fit is a pure function of the
// series it is given (the LSTM rebuilds its network from its seed on each
// Fit), so the models are reconstructed bit-identically on restore by
// refitting on the history up to the last (re)training step and replaying
// the per-step Updates that followed it. That keeps the format independent
// of which model family is configured — persisting an ARIMA ensemble and an
// LSTM ensemble takes the same bytes-per-step, and a zoo of two or more
// families adds only the compact selection bookkeeping below.
type EnsembleState struct {
	// T is the number of observed steps.
	T int
	// Ready records whether initial training had completed.
	Ready bool
	// LastRefit is the step index of the most recent (re)training.
	LastRefit int
	// Series is the retained centroid history, indexed
	// [cluster][dim][t − SeriesStart].
	Series [][][]float64
	// TrainTime and TrainRuns carry the cumulative training accounting.
	TrainTime time.Duration
	// TrainRuns is the number of completed (re)training rounds.
	TrainRuns int
	// SeriesStart is the logical step index of Series[j][d][0]: with a
	// FitWindow the ensemble trims the prefix no future fit can read, so the
	// retained series covers steps [SeriesStart, T). Zero in states exported
	// before trimming existed, which restores the old full-history behavior.
	SeriesStart int

	// Selection state; all empty/zero with fewer than two candidates.

	// Families lists the candidate family names in zoo order; restore
	// requires an exact match with the restoring ensemble's candidates. A
	// one-candidate ensemble accepts an empty list or its own family's name
	// (a one-family zoo exported before one-candidate ensembles stopped
	// selecting) and ignores the selection fields below.
	Families []string
	// Champions holds the per-(cluster, dim) champion candidate index,
	// flattened [cluster·Dims + dim].
	Champions []int
	// Streaks holds the per-cell, per-candidate consecutive-win counters,
	// flattened [(cluster·Dims + dim)·len(Families) + candidate].
	Streaks []int
	// Switches holds the per-cell champion promotion counts.
	Switches []int
	// SwitchTotal is the lifetime promotion count across all cells.
	SwitchTotal int
	// AccErrs holds each (cell, candidate) triple's windowed one-step errors
	// in chronological (oldest-first) order, indexed like Streaks.
	AccErrs [][]float64
	// AccEvals holds the matching lifetime evaluation counts.
	AccEvals []int64
}

// ExportState deep-copies the ensemble's mutable state; the result shares no
// memory with the live ensemble. The cached 1-step scoring forecasts are not
// exported — they are recomputed from the restored models, which Forecast
// purity makes bit-identical.
func (e *Ensemble) ExportState() *EnsembleState {
	st := &EnsembleState{
		T:           e.t,
		Ready:       e.ready,
		LastRefit:   e.lastrefits,
		TrainTime:   e.trainTime,
		TrainRuns:   e.trainRuns,
		SeriesStart: e.start,
	}
	st.Series = make([][][]float64, len(e.series))
	for j, byDim := range e.series {
		st.Series[j] = make([][]float64, len(byDim))
		for d, series := range byDim {
			st.Series[j][d] = append([]float64(nil), series...)
		}
	}
	if e.sel != nil {
		st.Families = append([]string(nil), e.names...)
		st.Champions = append([]int(nil), e.sel.champ...)
		st.Streaks = append([]int(nil), e.sel.streak...)
		st.Switches = append([]int(nil), e.sel.switches...)
		st.SwitchTotal = e.sel.total
		nc := len(e.names)
		cells := e.cfg.Clusters * e.cfg.Dims
		st.AccErrs = make([][]float64, cells*nc)
		st.AccEvals = make([]int64, cells*nc)
		for j := 0; j < e.cfg.Clusters; j++ {
			for d := 0; d < e.cfg.Dims; d++ {
				for c := 0; c < nc; c++ {
					i := (j*e.cfg.Dims+d)*nc + c
					st.AccErrs[i] = e.acc.Window(j, d, c)
					st.AccEvals[i] = e.acc.Evals(j, d, c)
				}
			}
		}
	}
	return st
}

// RestoreState replaces a freshly constructed ensemble's state with an
// exported one and reconstructs every model deterministically: each model is
// refit on its series truncated to the last training step (honoring
// FitWindow exactly as the live refit did), then fed the observations that
// arrived after it via Update. With two or more candidates the selection
// state (champions, streaks, switch counts, accuracy windows) is restored
// verbatim and the 1-step scoring forecasts are recomputed, so selection
// resumes bit-identically mid-streak. The ensemble must not have observed
// any step yet. It is RestoreAll for this ensemble alone, fitting on the
// calling goroutine; the refit does not count toward the restored
// TrainTime/TrainRuns accounting.
func (e *Ensemble) RestoreState(st *EnsembleState) error {
	return RestoreAll(1, []*Ensemble{e}, []*EnsembleState{st})
}

// validateState checks an exported state against the ensemble before any
// mutation.
func (e *Ensemble) validateState(st *EnsembleState) error {
	if e.t != 0 {
		return fmt.Errorf("forecast: restore into ensemble with %d steps: %w", e.t, ErrBadInput)
	}
	if st == nil {
		return fmt.Errorf("forecast: nil ensemble state: %w", ErrBadInput)
	}
	if st.T < 0 || st.LastRefit < 0 || st.LastRefit > st.T || st.TrainRuns < 0 {
		return fmt.Errorf("forecast: state counters T=%d lastRefit=%d runs=%d: %w",
			st.T, st.LastRefit, st.TrainRuns, ErrBadInput)
	}
	if st.Ready && st.LastRefit == 0 {
		return fmt.Errorf("forecast: ready state without a training step: %w", ErrBadInput)
	}
	if st.SeriesStart < 0 {
		return fmt.Errorf("forecast: negative series start %d: %w", st.SeriesStart, ErrBadInput)
	}
	if st.SeriesStart > 0 {
		if !st.Ready || e.cfg.FitWindow <= 0 {
			return fmt.Errorf("forecast: trimmed series (start %d) without ready state and fit window: %w",
				st.SeriesStart, ErrBadInput)
		}
		if keep := st.LastRefit - e.cfg.FitWindow; st.SeriesStart > keep {
			return fmt.Errorf("forecast: series start %d past last-refit fit window start %d: %w",
				st.SeriesStart, keep, ErrBadInput)
		}
	}
	if len(st.Series) != e.cfg.Clusters {
		return fmt.Errorf("forecast: %d series, want %d clusters: %w",
			len(st.Series), e.cfg.Clusters, ErrBadInput)
	}
	retained := st.T - st.SeriesStart
	for j, byDim := range st.Series {
		if len(byDim) != e.cfg.Dims {
			return fmt.Errorf("forecast: cluster %d has %d dims, want %d: %w",
				j, len(byDim), e.cfg.Dims, ErrBadInput)
		}
		for d, series := range byDim {
			if len(series) != retained {
				return fmt.Errorf("forecast: series (%d,%d) has %d values, want %d: %w",
					j, d, len(series), retained, ErrBadInput)
			}
		}
	}
	return e.validateSelectionState(st)
}

// adopt copies a validated state into the ensemble and, for a trained one,
// sets fitN to the series prefix its models are rebuilt on.
func (e *Ensemble) adopt(st *EnsembleState) error {
	for j, byDim := range st.Series {
		for d, series := range byDim {
			e.series[j][d] = append([]float64(nil), series...)
		}
	}
	e.t = st.T
	e.ready = st.Ready
	e.lastrefits = st.LastRefit
	e.trainTime = st.TrainTime
	e.trainRuns = st.TrainRuns
	e.start = st.SeriesStart
	if e.sel != nil {
		copy(e.sel.champ, st.Champions)
		copy(e.sel.streak, st.Streaks)
		copy(e.sel.switches, st.Switches)
		e.sel.total = st.SwitchTotal
		nc := len(e.names)
		for j := 0; j < e.cfg.Clusters; j++ {
			for d := 0; d < e.cfg.Dims; d++ {
				for c := 0; c < nc; c++ {
					i := (j*e.cfg.Dims+d)*nc + c
					if err := e.acc.restoreCell(j, d, c, st.AccErrs[i], st.AccEvals[i]); err != nil {
						return err
					}
				}
			}
		}
	}

	if st.Ready {
		e.fitN = st.LastRefit - st.SeriesStart
	}
	return nil
}

// validateSelectionState checks the candidate-roster agreement and the shape
// of the selection fields before any mutation. A one-candidate ensemble also
// takes a state that names no family, and ignores its selection fields.
func (e *Ensemble) validateSelectionState(st *EnsembleState) error {
	if !slices.Equal(st.Families, e.names) && (e.sel != nil || len(st.Families) > 0) {
		return fmt.Errorf("forecast: state families %q, ensemble has %q: %w",
			st.Families, e.names, ErrBadInput)
	}
	if e.sel == nil {
		return nil
	}
	nc := len(e.names)
	cells := e.cfg.Clusters * e.cfg.Dims
	if len(st.Champions) != cells || len(st.Switches) != cells {
		return fmt.Errorf("forecast: selection state for %d/%d cells, want %d: %w",
			len(st.Champions), len(st.Switches), cells, ErrBadInput)
	}
	if len(st.Streaks) != cells*nc || len(st.AccErrs) != cells*nc || len(st.AccEvals) != cells*nc {
		return fmt.Errorf("forecast: per-candidate selection state %d/%d/%d entries, want %d: %w",
			len(st.Streaks), len(st.AccErrs), len(st.AccEvals), cells*nc, ErrBadInput)
	}
	if st.SwitchTotal < 0 {
		return fmt.Errorf("forecast: negative switch total %d: %w", st.SwitchTotal, ErrBadInput)
	}
	for i, champ := range st.Champions {
		if champ < 0 || champ >= nc {
			return fmt.Errorf("forecast: cell %d champion index %d outside [0,%d): %w",
				i, champ, nc, ErrBadInput)
		}
	}
	for i, s := range st.Streaks {
		if s < 0 {
			return fmt.Errorf("forecast: negative streak %d at %d: %w", s, i, ErrBadInput)
		}
	}
	for i, s := range st.Switches {
		if s < 0 {
			return fmt.Errorf("forecast: negative switch count %d at cell %d: %w", s, i, ErrBadInput)
		}
	}
	return nil
}
