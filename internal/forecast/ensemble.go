package forecast

import (
	"fmt"
	"time"
)

// EnsembleConfig controls the per-cluster model management of §VI-A3.
type EnsembleConfig struct {
	// Clusters is K, the number of models (one per cluster). Required.
	Clusters int
	// Dims is the number of resource dimensions per centroid (models are
	// univariate; one model per (cluster, dim)). Zero means 1.
	Dims int
	// InitialCollection is the warm-up length before the first training.
	// Zero means the paper's 1000.
	InitialCollection int
	// RetrainEvery is the retraining period in steps. Zero means the
	// paper's 288 (one day of 5-minute samples).
	RetrainEvery int
	// FitWindow caps the history length used per fit (most recent portion);
	// zero means all history. The paper permits "all (or a subset of) the
	// historical cluster centroids". When set, the ensemble also trims the
	// retained series after each refit to the portion future refits and
	// restores can still need, bounding memory in long-running deployments.
	FitWindow int
	// Candidates are the model families: one instance per candidate per
	// (cluster, dim), all trained and updated on the same series. At least
	// one is required; names must be non-empty and unique. With two or more,
	// the champion per (cluster, dim) is selected online by rolling accuracy
	// (see Selection); with one there is nothing to select, so the ensemble
	// neither scores forecasts nor keeps selection state.
	Candidates []Candidate
	// Selection tunes the champion/challenger selector; ignored with fewer
	// than two Candidates. Zero values select the defaults (window 64,
	// margin 0, streak 3, metric "mae").
	Selection SelectionConfig
}

func (c EnsembleConfig) withDefaults() EnsembleConfig {
	if c.Dims == 0 {
		c.Dims = 1
	}
	if c.InitialCollection == 0 {
		c.InitialCollection = 1000
	}
	if c.RetrainEvery == 0 {
		c.RetrainEvery = 288
	}
	c.Selection = c.Selection.WithDefaults()
	return c
}

// Ensemble manages the forecasting models over the evolving centroid series:
// it buffers the initial collection phase, trains models at the end of it,
// feeds every new centroid to the transient state, and retrains periodically
// — exactly the schedule in §VI-A3. It runs every candidate family in
// lockstep; with two or more it scores each candidate's previous 1-step
// forecast against the newly observed centroid and serves Forecast from the
// per-(cluster, dim) champion chosen by the hysteresis selector.
type Ensemble struct {
	cfg    EnsembleConfig
	names  []string      // candidate names, in Candidates order
	models [][][]Model   // [candidate][cluster][dim]
	series [][][]float64 // [cluster][dim][t − start]
	start  int           // logical step index of series[j][d][0] (trimming)
	t      int
	ready  bool

	// Selection state, present iff there are at least two candidates.
	acc    *Accuracy
	sel    *selector
	pred   []float64 // cached 1-step forecasts [(c·Clusters+j)·Dims+d]
	predOK bool

	trainTime  time.Duration
	trainRuns  int
	lastrefits int

	// fitN is the series prefix the pending fit reads (0 when none is
	// pending).
	fitN int
}

// minObserver is a Model that cannot fit a series shorter than
// MinObservations values.
type minObserver interface{ MinObservations() int }

// NewEnsemble validates the configuration and returns an empty ensemble. A
// candidate whose models declare a minimum (a MinObservations() int method)
// longer than the first fit's series — InitialCollection, cut to FitWindow
// when that is set — is rejected here rather than failing that fit.
func NewEnsemble(cfg EnsembleConfig) (*Ensemble, error) {
	cfg = cfg.withDefaults()
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("forecast: %d clusters: %w", cfg.Clusters, ErrBadInput)
	}
	if len(cfg.Candidates) == 0 {
		return nil, fmt.Errorf("forecast: no model candidates: %w", ErrBadInput)
	}
	if cfg.InitialCollection < 0 || cfg.RetrainEvery < 0 || cfg.FitWindow < 0 {
		return nil, fmt.Errorf("forecast: schedule %d/%d, fit window %d: %w",
			cfg.InitialCollection, cfg.RetrainEvery, cfg.FitWindow, ErrBadInput)
	}
	e := &Ensemble{cfg: cfg, models: make([][][]Model, len(cfg.Candidates))}
	// The first fit sees the warm-up's series, cut to FitWindow; every later
	// one is at least as long.
	first := cfg.InitialCollection
	if cfg.FitWindow > 0 {
		first = min(first, cfg.FitWindow)
	}
	seen := make(map[string]bool, len(cfg.Candidates))
	for c, cand := range cfg.Candidates {
		if cand.Name == "" || cand.Builder == nil {
			return nil, fmt.Errorf("forecast: candidate %q with nil builder or empty name: %w",
				cand.Name, ErrBadInput)
		}
		if seen[cand.Name] {
			return nil, fmt.Errorf("forecast: duplicate candidate %q: %w", cand.Name, ErrBadInput)
		}
		seen[cand.Name] = true
		e.names = append(e.names, cand.Name)
		e.models[c] = make([][]Model, cfg.Clusters)
		for j := range e.models[c] {
			e.models[c][j] = make([]Model, cfg.Dims)
			for d := range e.models[c][j] {
				e.models[c][j][d] = cand.Builder()
			}
		}
		if mo, ok := e.models[c][0][0].(minObserver); ok && mo.MinObservations() > first {
			return nil, fmt.Errorf("forecast: candidate %q needs ≥ %d observations, the first fit has %d: %w",
				cand.Name, mo.MinObservations(), first, ErrBadInput)
		}
	}
	if len(e.names) > 1 {
		if err := cfg.Selection.Validate(); err != nil {
			return nil, err
		}
		acc, err := NewAccuracy(cfg.Clusters, cfg.Dims, len(e.names), cfg.Selection.Window)
		if err != nil {
			return nil, err
		}
		e.acc = acc
		e.sel = newSelector(cfg.Clusters*cfg.Dims, len(e.names), cfg.Selection.Streak, cfg.Selection.Margin)
	}
	e.series = make([][][]float64, cfg.Clusters)
	for j := range e.series {
		e.series[j] = make([][]float64, cfg.Dims)
	}
	return e, nil
}

// Observe ingests this step's centroids (Clusters × Dims). It triggers the
// initial training at the end of the collection phase and retraining every
// RetrainEvery steps thereafter. With two or more candidates it first scores
// every candidate's cached 1-step forecast against the new centroids and runs
// one champion/challenger evaluation per (cluster, dim), then recomputes the
// 1-step forecasts for the next scoring round; Forecast is pure for every
// model family, so the scoring never perturbs the models themselves. With one
// candidate it makes no Forecast call. It is ObserveAll for this ensemble
// alone.
func (e *Ensemble) Observe(centroids [][]float64) error {
	return ObserveAll([]*Ensemble{e}, [][][]float64{centroids})
}

// check rejects centroids that are not Clusters × Dims.
func (e *Ensemble) check(centroids [][]float64) error {
	if len(centroids) != e.cfg.Clusters {
		return fmt.Errorf("forecast: %d centroids, want %d: %w",
			len(centroids), e.cfg.Clusters, ErrBadInput)
	}
	for j, c := range centroids {
		if len(c) != e.cfg.Dims {
			return fmt.Errorf("forecast: centroid %d has dim %d, want %d: %w",
				j, len(c), e.cfg.Dims, ErrBadInput)
		}
	}
	return nil
}

// advance is the bookkeeping of one step: it scores the cached forecasts,
// appends the checked centroids to the series and feeds them to trained
// models, and reports whether a (re)training is due, setting fitN for it.
func (e *Ensemble) advance(centroids [][]float64) bool {
	if e.predOK {
		e.score(centroids)
	}
	for j, c := range centroids {
		for d, v := range c {
			e.series[j][d] = append(e.series[j][d], v)
			if e.ready {
				for _, models := range e.models {
					models[j][d].Update(v)
				}
			}
		}
	}
	e.t++
	e.fitN = 0
	if e.ready && e.t-e.lastrefits >= e.cfg.RetrainEvery || !e.ready && e.t >= e.cfg.InitialCollection {
		e.fitN = e.t - e.start
	}
	return e.fitN > 0
}

// score records each candidate's signed 1-step forecast error against the
// newly observed centroids and runs one selector evaluation per
// (cluster, dim) cell.
func (e *Ensemble) score(centroids [][]float64) {
	dims := e.cfg.Dims
	cells := e.cfg.Clusters * dims
	rmse := e.cfg.Selection.Metric == "rmse"
	for j, c := range centroids {
		for d, v := range c {
			for cand := range e.models {
				e.acc.Record(j, d, cand, e.pred[cand*cells+j*dims+d]-v)
			}
			e.sel.evaluate(j*dims+d, func(cand int) (float64, bool) {
				var s float64
				var n int
				if rmse {
					s, n = e.acc.RMSE(j, d, cand)
				} else {
					s, n = e.acc.MAE(j, d, cand)
				}
				return s, n > 0
			})
		}
	}
}

// refreshPred caches every candidate's 1-step forecast for the next scoring
// round. Forecast is pure, so this neither mutates models nor consumes RNG.
func (e *Ensemble) refreshPred() error {
	dims := e.cfg.Dims
	cells := e.cfg.Clusters * dims
	if e.pred == nil {
		e.pred = make([]float64, len(e.models)*cells)
	}
	for i := range e.pred {
		c, r := i/cells, i%cells
		j, d := r/dims, r%dims
		f, err := e.models[c][j][d].Forecast(1)
		if err != nil {
			return fmt.Errorf("forecast: scoring %s cluster %d dim %d: %w", e.names[c], j, d, err)
		}
		e.pred[i] = f[0]
	}
	e.predOK = true
	return nil
}

// finishRound closes a (re)training round whose fit list took the given wall
// time: the models are trained on the series up to this step.
func (e *Ensemble) finishRound(took time.Duration) {
	e.trainTime += took
	e.trainRuns++
	e.lastrefits = e.t
	e.ready = true
	e.fitN = 0
	e.trim()
}

// fitCell fits model i (indexed like pred) on the FitWindow-suffix of the
// first fitN retained values of its series, then Updates it with the values
// after them. A round fits on the whole retained series, so nothing follows;
// a restore fits on the series up to the last training step and replays the
// rest.
func (e *Ensemble) fitCell(i int, verb string) error {
	dims := e.cfg.Dims
	cells := e.cfg.Clusters * dims
	c, r := i/cells, i%cells
	j, d := r/dims, r%dims
	m, s := e.models[c][j][d], e.series[j][d]
	fit := s[:e.fitN]
	if e.cfg.FitWindow > 0 && len(fit) > e.cfg.FitWindow {
		fit = fit[len(fit)-e.cfg.FitWindow:]
	}
	if err := m.Fit(fit); err != nil {
		return fmt.Errorf("forecast: %s %s cluster %d dim %d: %w", verb, e.names[c], j, d, err)
	}
	for _, v := range s[e.fitN:] {
		m.Update(v)
	}
	return nil
}

// trim drops the series prefix no future fit can read: after a refit at step
// t, live refits and restore-refits only ever see the FitWindow-suffix ending
// at or after lastrefits, so everything before lastrefits − FitWindow is
// dead weight. The copy is in place (no allocation) and the freed capacity is
// reused by subsequent appends, bounding steady-state memory at roughly
// FitWindow + RetrainEvery values per (cluster, dim) instead of growing
// forever. No-op without a FitWindow, where restores refit on full history.
func (e *Ensemble) trim() {
	if e.cfg.FitWindow <= 0 {
		return
	}
	keepFrom := e.lastrefits - e.cfg.FitWindow
	if keepFrom <= e.start {
		return
	}
	cut := keepFrom - e.start
	for j := range e.series {
		for d := range e.series[j] {
			s := e.series[j][d]
			n := copy(s, s[cut:])
			e.series[j][d] = s[:n]
		}
	}
	e.start = keepFrom
}

// Ready reports whether the initial collection phase has completed and
// models are trained.
func (e *Ensemble) Ready() bool { return e.ready }

// championIdx returns the candidate index serving (cluster j, dim d).
func (e *Ensemble) championIdx(j, d int) int {
	if e.sel == nil {
		return 0
	}
	return e.sel.champ[j*e.cfg.Dims+d]
}

// Forecast returns h-step-ahead centroid forecasts, indexed
// [cluster][dim][step], produced by each (cluster, dim) cell's champion
// model. It fails with ErrNotFitted during the initial collection phase.
func (e *Ensemble) Forecast(h int) ([][][]float64, error) {
	if !e.ready {
		return nil, ErrNotFitted
	}
	dims := e.cfg.Dims
	out := make([][][]float64, e.cfg.Clusters)
	for j := range out {
		out[j] = make([][]float64, dims)
		for d := range out[j] {
			f, err := e.models[e.championIdx(j, d)][j][d].Forecast(h)
			if err != nil {
				return nil, fmt.Errorf("forecast: cluster %d dim %d: %w", j, d, err)
			}
			out[j][d] = f
		}
	}
	return out, nil
}

// TrainingTime returns the cumulative wall-clock time of the (re)training
// rounds and their count. A round's time is the wall time of the fit list it
// ran on (see ObserveAll) — shared with the ensembles fitted beside it — not
// summed per-model CPU time (for a single model's fitting cost, see e.g. the
// ARIMA/LSTM FitDuration accessors).
func (e *Ensemble) TrainingTime() (time.Duration, int) { return e.trainTime, e.trainRuns }

// CandidateAccuracy is one candidate's rolling accuracy inside a
// (cluster, dim) selection cell.
type CandidateAccuracy struct {
	// Name is the candidate's registered family name.
	Name string
	// MAE and RMSE are the rolling errors over the selection window (0 until
	// the first evaluation; see Evals).
	MAE, RMSE float64
	// Evals counts the candidate's lifetime evaluations in this cell.
	Evals int64
	// Streak is the candidate's current consecutive-win count against the
	// cell's champion.
	Streak int
}

// CellSelection is the champion/challenger state of one (cluster, dim) cell.
type CellSelection struct {
	// Champion is the serving candidate's family name.
	Champion string
	// ChampionIdx is the serving candidate's index into Candidates.
	ChampionIdx int
	// Switches counts champion promotions in this cell so far.
	Switches int
	// Candidates holds the per-candidate rolling accuracy, in zoo order.
	Candidates []CandidateAccuracy
}

// SelectionInfo is an immutable deep-copied view of an ensemble's zoo
// selection state, safe to publish in snapshots and serve concurrently.
type SelectionInfo struct {
	// Families lists the candidate family names in zoo order.
	Families []string
	// Window, Margin, Streak, and Metric echo the resolved SelectionConfig.
	Window int
	Margin float64
	Streak int
	Metric string
	// SwitchTotal counts champion promotions across all cells.
	SwitchTotal int
	// Evaluations counts lifetime scored forecasts summed over cells and
	// candidates.
	Evaluations int64
	// Cells holds the per-(cluster, dim) selection state.
	Cells [][]CellSelection
}

// Selection returns a deep-copied view of the selection state, or nil with
// fewer than two candidates. The result shares no memory with the ensemble.
func (e *Ensemble) Selection() *SelectionInfo {
	if e.sel == nil {
		return nil
	}
	dims := e.cfg.Dims
	info := &SelectionInfo{
		Families:    append([]string(nil), e.names...),
		Window:      e.cfg.Selection.Window,
		Margin:      e.cfg.Selection.Margin,
		Streak:      e.cfg.Selection.Streak,
		Metric:      e.cfg.Selection.Metric,
		SwitchTotal: e.sel.total,
		Cells:       make([][]CellSelection, e.cfg.Clusters),
	}
	for j := range info.Cells {
		info.Cells[j] = make([]CellSelection, dims)
		for d := range info.Cells[j] {
			cell := j*dims + d
			cs := CellSelection{
				ChampionIdx: e.sel.champ[cell],
				Champion:    e.names[e.sel.champ[cell]],
				Switches:    e.sel.switches[cell],
				Candidates:  make([]CandidateAccuracy, len(e.names)),
			}
			for c := range e.names {
				mae, _ := e.acc.MAE(j, d, c)
				rmse, _ := e.acc.RMSE(j, d, c)
				evals := e.acc.Evals(j, d, c)
				cs.Candidates[c] = CandidateAccuracy{
					Name:   e.names[c],
					MAE:    mae,
					RMSE:   rmse,
					Evals:  evals,
					Streak: e.sel.streak[cell*len(e.names)+c],
				}
				info.Evaluations += evals
			}
			info.Cells[j][d] = cs
		}
	}
	return info
}
