package forecast

import (
	"fmt"
	"time"

	"orcf/internal/parallel"
)

// ObserveAll is one step of several ensembles, each observing its own
// centroids (centroids[i] for ens[i], shaped as Observe's argument). The
// per-step bookkeeping — scoring, series append, Update — runs ensemble by
// ensemble on the calling goroutine. When a (re)training is due, every due
// model fit of every ensemble goes on one list that runs on the GOMAXPROCS
// pool, and each ensemble that took part records the list's wall time as its
// round's duration. Every model owns its state and reads only its own series,
// so the result is identical for any pool width. Observe is the one-ensemble
// case.
func ObserveAll(ens []*Ensemble, centroids [][][]float64) error {
	if len(centroids) != len(ens) {
		return fmt.Errorf("forecast: centroids for %d ensembles, want %d: %w",
			len(centroids), len(ens), ErrBadInput)
	}
	for i, e := range ens {
		if err := e.check(centroids[i]); err != nil {
			return at(i, err)
		}
	}
	due := false
	for i, e := range ens {
		if e.advance(centroids[i]) {
			due = true
		}
	}
	if due {
		start := time.Now()
		if err := fitAll(ens, "fitting"); err != nil {
			return err
		}
		took := time.Since(start)
		for _, e := range ens {
			if e.fitN > 0 {
				e.finishRound(took)
			}
		}
	}
	return refreshAll(ens)
}

// RestoreAll replaces the state of freshly constructed ensembles with
// exported ones (states[i] into ens[i]) and reconstructs every model
// deterministically: each model is refit on its series truncated to the last
// training step (honoring FitWindow exactly as the live refit did), then fed
// the observations that arrived after it via Update. With two or more
// candidates the selection state (champions, streaks, switch counts, accuracy
// windows) is restored verbatim and the 1-step scoring forecasts are
// recomputed, so selection resumes bit-identically mid-streak. No ensemble
// may have observed any step yet.
//
// It validates every state, then copies every state, then rebuilds the
// models of every trained ensemble on one list, as ObserveAll's round does,
// and finally recomputes the selection forecasts. The rebuild does not count
// toward the restored TrainTime/TrainRuns accounting.
func RestoreAll(ens []*Ensemble, states []*EnsembleState) error {
	if len(states) != len(ens) {
		return fmt.Errorf("forecast: %d ensemble states, want %d: %w", len(states), len(ens), ErrBadInput)
	}
	for i, e := range ens {
		if err := e.validateState(states[i]); err != nil {
			return at(i, err)
		}
	}
	for i, e := range ens {
		if err := e.adopt(states[i]); err != nil {
			return at(i, err)
		}
	}
	if err := fitAll(ens, "restoring"); err != nil {
		return err
	}
	for _, e := range ens {
		e.fitN = 0
	}
	return refreshAll(ens)
}

// fitAll fits every model of every ensemble with a pending fit (fitN > 0) as
// one list: a cell per (ensemble, candidate, cluster, dim) model, in ensemble
// and zoo order. A cell writes only its own model, and ForEach reports the
// lowest-index error — the first in ensemble and zoo order — so the pool
// width cannot change the outcome.
func fitAll(ens []*Ensemble, verb string) error {
	type cell struct{ ens, model int }
	var cells []cell
	for ei, e := range ens {
		if e.fitN > 0 {
			for i := range len(e.models) * e.cfg.Clusters * e.cfg.Dims {
				cells = append(cells, cell{ei, i})
			}
		}
	}
	return parallel.ForEach(len(cells), func(k int) error {
		c := cells[k]
		if err := ens[c.ens].fitCell(c.model, verb); err != nil {
			return at(c.ens, err)
		}
		return nil
	})
}

// refreshAll recomputes the cached 1-step forecasts of every trained
// ensemble that selects between candidates.
func refreshAll(ens []*Ensemble) error {
	for i, e := range ens {
		if e.sel != nil && e.ready {
			if err := e.refreshPred(); err != nil {
				return at(i, err)
			}
		}
	}
	return nil
}

// at names the ensemble an error came from.
func at(i int, err error) error {
	return fmt.Errorf("ensemble %d: %w", i, err)
}
