package forecast

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync/atomic"
	"testing"
)

var sahBuilder = func() Model { return NewSampleAndHold() }

// only is the Candidates of a one-candidate ensemble running b.
func only(b Builder) []Candidate { return []Candidate{{Name: b().Name(), Builder: b}} }

// restoreOne restores a single ensemble through RestoreAll.
func restoreOne(e *Ensemble, st *EnsembleState) error {
	return RestoreAll([]*Ensemble{e}, []*EnsembleState{st})
}

// --- registry ---

func TestRegistryFamilies(t *testing.T) {
	fams := Families()
	if !sort.StringsAreSorted(fams) {
		t.Fatalf("Families() not sorted: %v", fams)
	}
	want := []string{"ar", "arima", "historical-mean", "holt", "holt-winters",
		"lagged-ridge", "lstm", "sample-and-hold", "seasonal-trend", "ses"}
	if !reflect.DeepEqual(fams, want) {
		t.Fatalf("Families() = %v, want %v", fams, want)
	}
	for _, name := range fams {
		b := registry[name]
		if b == nil {
			t.Fatalf("family %q has no builder", name)
		}
		if m := b(); m == nil {
			t.Fatalf("builder %q returned nil model", name)
		}
	}
	if _, ok := registry["no-such-family"]; ok {
		t.Fatal("unknown family registered")
	}
}

func TestRegistryRegisterRejects(t *testing.T) {
	if err := Register("", sahBuilder); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := Register("x-nil", nil); err == nil {
		t.Fatal("nil builder accepted")
	}
	if err := Register("ses", sahBuilder); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestZooBuildsCandidates(t *testing.T) {
	cands, err := Zoo("sample-and-hold", "historical-mean")
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) != 2 || cands[0].Name != "sample-and-hold" || cands[1].Name != "historical-mean" {
		t.Fatalf("Zoo() = %+v", cands)
	}
	for _, bad := range [][]string{nil, {}, {"nope"}, {"ses", "ses"}} {
		if _, err := Zoo(bad...); err == nil {
			t.Fatalf("Zoo(%v) accepted", bad)
		}
	}
}

// --- new model families ---

func TestSeasonalTrendRecoversSeasonality(t *testing.T) {
	m := &SeasonalTrend{maxPeriod: 12, alpha: 0.3}
	// Pure period-6 seasonal signal on a gentle trend.
	season := []float64{0.3, 0.1, -0.2, -0.3, -0.1, 0.2}
	series := make([]float64, 120)
	for i := range series {
		series[i] = 5 + 0.01*float64(i) + season[i%6]
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	if m.period != 6 {
		t.Fatalf("detected period %d, want 6", m.period)
	}
	f, err := m.Forecast(6)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		want := 5 + 0.01*float64(120+i) + season[(120+i)%6]
		if math.Abs(v-want) > 0.05 {
			t.Fatalf("forecast[%d] = %v, want ≈ %v", i, v, want)
		}
	}
}

func TestSeasonalTrendNonSeasonalFallback(t *testing.T) {
	m := NewSeasonalTrend()
	series := make([]float64, 40)
	for i := range series {
		series[i] = 2 + 0.5*float64(i)
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	if m.period != 0 {
		t.Fatalf("linear series detected period %d", m.period)
	}
	f, err := m.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range f {
		want := 2 + 0.5*float64(40+i)
		if math.Abs(v-want) > 1e-6 {
			t.Fatalf("forecast[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestLaggedRidgeTracksAR1(t *testing.T) {
	m := &lagRegressor{name: "lagged-ridge", lags: 2, win: 4, lambda: 1e-6}
	// Deterministic AR(1): y_t = 0.8 y_{t-1} + 1.
	series := make([]float64, 60)
	series[0] = 10
	for i := 1; i < len(series); i++ {
		series[i] = 0.8*series[i-1] + 1
	}
	if err := m.Fit(series); err != nil {
		t.Fatal(err)
	}
	f, err := m.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	prev := series[len(series)-1]
	for i, v := range f {
		want := 0.8*prev + 1
		if math.Abs(v-want) > 0.05 {
			t.Fatalf("forecast[%d] = %v, want ≈ %v", i, v, want)
		}
		prev = want
	}
	if got := len(m.coef); got != 4 {
		t.Fatalf("coefficient count %d, want 4", got)
	}
}

func TestNewModelErrors(t *testing.T) {
	st := NewSeasonalTrend()
	if err := st.Fit(make([]float64, 5)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short seasonal fit: %v", err)
	}
	if _, err := st.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted seasonal forecast: %v", err)
	}
	lr := NewLaggedRidge()
	if err := lr.Fit(make([]float64, 10)); !errors.Is(err, ErrBadInput) {
		t.Fatalf("short ridge fit: %v", err)
	}
	if _, err := lr.Forecast(1); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("unfitted ridge forecast: %v", err)
	}
}

// --- accuracy plane ---

// TestAccuracyMatchesBruteForce is the rolling-window property test: after
// every Record, MAE and RMSE must equal a brute-force recompute over the
// last `window` errors of the full history, bit-for-bit (the window folds
// chronologically, so the sums accumulate in the same order).
func TestAccuracyMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, window := range []int{1, 2, 3, 7, 16} {
		acc, err := NewAccuracy(2, 2, 2, window)
		if err != nil {
			t.Fatal(err)
		}
		type key struct{ j, d, c int }
		hist := map[key][]float64{}
		for step := 0; step < 400; step++ {
			k := key{rng.Intn(2), rng.Intn(2), rng.Intn(2)}
			e := rng.NormFloat64()
			acc.Record(k.j, k.d, k.c, e)
			hist[k] = append(hist[k], e)

			for j := 0; j < 2; j++ {
				for d := 0; d < 2; d++ {
					for c := 0; c < 2; c++ {
						full := hist[key{j, d, c}]
						tail := full
						if len(tail) > window {
							tail = tail[len(tail)-window:]
						}
						var sumAbs, sumSq float64
						for _, v := range tail {
							sumAbs += math.Abs(v)
							sumSq += v * v
						}
						var wantMAE, wantRMSE float64
						if len(tail) > 0 {
							wantMAE = sumAbs / float64(len(tail))
							wantRMSE = math.Sqrt(sumSq / float64(len(tail)))
						}
						gotMAE, n1 := acc.MAE(j, d, c)
						gotRMSE, n2 := acc.RMSE(j, d, c)
						if n1 != len(tail) || n2 != len(tail) {
							t.Fatalf("window %d step %d (%d,%d,%d): n = %d/%d, want %d",
								window, step, j, d, c, n1, n2, len(tail))
						}
						if gotMAE != wantMAE || gotRMSE != wantRMSE {
							t.Fatalf("window %d step %d (%d,%d,%d): MAE %v want %v, RMSE %v want %v",
								window, step, j, d, c, gotMAE, wantMAE, gotRMSE, wantRMSE)
						}
						if got := acc.Window(j, d, c); !reflect.DeepEqual(got, tail) &&
							!(len(got) == 0 && len(tail) == 0) {
							t.Fatalf("window %d step %d (%d,%d,%d): Window %v, want %v",
								window, step, j, d, c, got, tail)
						}
						if acc.Evals(j, d, c) != int64(len(full)) {
							t.Fatalf("evals %d, want %d", acc.Evals(j, d, c), len(full))
						}
					}
				}
			}
		}
	}
}

func TestAccuracyRestoreRoundTrip(t *testing.T) {
	acc, _ := NewAccuracy(1, 1, 1, 4)
	for i := 0; i < 11; i++ { // rotate the ring past a full wrap
		acc.Record(0, 0, 0, float64(i))
	}
	errs := acc.Window(0, 0, 0)
	restored, _ := NewAccuracy(1, 1, 1, 4)
	if err := restored.restoreCell(0, 0, 0, errs, acc.Evals(0, 0, 0)); err != nil {
		t.Fatal(err)
	}
	// Same reads now, and identical evolution after further records.
	for i := 11; i < 20; i++ {
		acc.Record(0, 0, 0, float64(i)*1.5)
		restored.Record(0, 0, 0, float64(i)*1.5)
		m1, _ := acc.MAE(0, 0, 0)
		m2, _ := restored.MAE(0, 0, 0)
		r1, _ := acc.RMSE(0, 0, 0)
		r2, _ := restored.RMSE(0, 0, 0)
		if m1 != m2 || r1 != r2 {
			t.Fatalf("post-restore divergence at %d: %v/%v vs %v/%v", i, m1, r1, m2, r2)
		}
	}
	if err := restored.restoreCell(0, 0, 0, make([]float64, 5), 5); !errors.Is(err, ErrBadInput) {
		t.Fatalf("oversized window accepted: %v", err)
	}
	if err := restored.restoreCell(0, 0, 0, make([]float64, 3), 2); !errors.Is(err, ErrBadInput) {
		t.Fatalf("evals < window len accepted: %v", err)
	}
}

// --- selector hysteresis ---

// scoreTable drives selector.evaluate from fixed per-candidate errors.
func scoreTable(errs []float64) func(int) (float64, bool) {
	return func(c int) (float64, bool) {
		if math.IsNaN(errs[c]) {
			return 0, false
		}
		return errs[c], true
	}
}

func TestSelectorPromotesAfterStreak(t *testing.T) {
	s := newSelector(1, 2, 3, 0.1)
	for i := 0; i < 2; i++ {
		if s.evaluate(0, scoreTable([]float64{1.0, 0.5})) {
			t.Fatalf("switched after %d wins, streak is 3", i+1)
		}
	}
	if !s.evaluate(0, scoreTable([]float64{1.0, 0.5})) {
		t.Fatal("no switch after 3 consecutive wins")
	}
	if s.champ[0] != 1 || s.switches[0] != 1 || s.total != 1 {
		t.Fatalf("champ %d switches %d total %d", s.champ[0], s.switches[0], s.total)
	}
	// All streaks reset on promotion: the old champion needs a full new streak.
	if s.streak[0] != 0 || s.streak[1] != 0 {
		t.Fatalf("streaks not reset: %v", s.streak)
	}
}

func TestSelectorTieAtMarginIsNotAWin(t *testing.T) {
	s := newSelector(1, 2, 1, 0.1)
	// champErr − chalErr == margin exactly: not a win even with streak 1.
	if s.evaluate(0, scoreTable([]float64{0.6, 0.5})) {
		t.Fatal("tie at exactly the margin promoted")
	}
	if s.streak[1] != 0 {
		t.Fatalf("tie extended the streak: %v", s.streak)
	}
	// Strictly beyond the margin wins immediately at streak 1.
	if !s.evaluate(0, scoreTable([]float64{0.7, 0.5})) {
		t.Fatal("clear win at streak 1 did not promote")
	}
}

func TestSelectorRegressionMidStreakResets(t *testing.T) {
	s := newSelector(1, 2, 3, 0)
	s.evaluate(0, scoreTable([]float64{1.0, 0.5}))
	s.evaluate(0, scoreTable([]float64{1.0, 0.5}))
	if s.streak[1] != 2 {
		t.Fatalf("streak %d, want 2", s.streak[1])
	}
	// Challenger regresses on the third evaluation: streak resets to zero.
	if s.evaluate(0, scoreTable([]float64{0.5, 1.0})) {
		t.Fatal("regressed challenger promoted")
	}
	if s.streak[1] != 0 {
		t.Fatalf("streak %d after regression, want 0", s.streak[1])
	}
	// Three fresh wins are needed again.
	s.evaluate(0, scoreTable([]float64{1.0, 0.5}))
	s.evaluate(0, scoreTable([]float64{1.0, 0.5}))
	if !s.evaluate(0, scoreTable([]float64{1.0, 0.5})) {
		t.Fatal("no promotion after fresh streak")
	}
}

func TestSelectorUnscoredChampionResets(t *testing.T) {
	s := newSelector(1, 2, 2, 0)
	s.evaluate(0, scoreTable([]float64{1.0, 0.5}))
	// Champion has no score (e.g. the window was rebuilt after churn): every
	// streak in the cell resets rather than promoting blindly.
	if s.evaluate(0, scoreTable([]float64{math.NaN(), 0.5})) {
		t.Fatal("promoted against unscored champion")
	}
	if s.streak[1] != 0 {
		t.Fatalf("streak %d, want 0", s.streak[1])
	}
}

func TestSelectorLowestIndexWinsSimultaneousTie(t *testing.T) {
	s := newSelector(1, 3, 1, 0)
	if !s.evaluate(0, scoreTable([]float64{1.0, 0.5, 0.5})) {
		t.Fatal("no promotion")
	}
	if s.champ[0] != 1 {
		t.Fatalf("champ %d, want lowest-indexed challenger 1", s.champ[0])
	}
}

// --- zoo ensemble behavior ---

func zooEnsemble(t *testing.T, names []string, sel SelectionConfig, clusters, dims, initial, retrain int) *Ensemble {
	t.Helper()
	cands, err := Zoo(names...)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEnsemble(EnsembleConfig{
		Clusters: clusters, Dims: dims,
		InitialCollection: initial, RetrainEvery: retrain,
		Candidates: cands, Selection: sel,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestZooConfigValidation(t *testing.T) {
	cands, _ := Zoo("ses", "ar")
	bad := []EnsembleConfig{
		{Clusters: 1}, // no candidates
		{Clusters: 1, Candidates: []Candidate{{Name: "", Builder: sahBuilder}}}, // empty name
		{Clusters: 1, Candidates: []Candidate{{Name: "x", Builder: nil}}},       // nil builder
		{Clusters: 1, Candidates: []Candidate{
			{Name: "x", Builder: sahBuilder}, {Name: "x", Builder: func() Model { return NewHistoricalMean() }}}}, // dup
		{Clusters: 1, Candidates: cands, Selection: SelectionConfig{Margin: -1}},
		{Clusters: 1, Candidates: cands, Selection: SelectionConfig{Metric: "mape"}},
		{Clusters: 1, Candidates: cands, InitialCollection: 5},                // AR(4) fits ≥ 6 values
		{Clusters: 1, Candidates: cands, InitialCollection: 50, FitWindow: 5}, // the window cuts the first fit
	}
	for i, cfg := range bad {
		if _, err := NewEnsemble(cfg); !errors.Is(err, ErrBadInput) {
			t.Fatalf("bad config %d accepted: %v", i, err)
		}
	}
}

// TestZooRegimeChangeSwitchesChampion drives a stationary→trending regime
// change: historical-mean wins while the series is flat, then sample-and-hold
// takes over once the ramp starts and the hysteresis streak completes.
func TestZooRegimeChangeSwitchesChampion(t *testing.T) {
	e := zooEnsemble(t, []string{"historical-mean", "sample-and-hold"},
		SelectionConfig{Window: 8, Streak: 3, Margin: 1e-9}, 1, 1, 20, 100000)
	obs := func(v float64) {
		t.Helper()
		if err := e.Observe([][]float64{{v}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // stationary phase: constant 0.5
		obs(0.5)
	}
	if got := e.Selection().Cells[0][0].Champion; got != "historical-mean" {
		t.Fatalf("stationary champion %q, want historical-mean", got)
	}
	if e.Selection().SwitchTotal != 0 {
		t.Fatalf("switches during stationary phase: %d", e.Selection().SwitchTotal)
	}
	for i := 1; i <= 60; i++ { // trending phase: steady ramp
		obs(0.5 + 0.003*float64(i))
	}
	info := e.Selection()
	if got := info.Cells[0][0].Champion; got != "sample-and-hold" {
		t.Fatalf("trending champion %q, want sample-and-hold", got)
	}
	if info.SwitchTotal < 1 {
		t.Fatal("no switch recorded")
	}
	if info.Cells[0][0].Switches != info.SwitchTotal {
		t.Fatalf("cell switches %d != total %d (single cell)",
			info.Cells[0][0].Switches, info.SwitchTotal)
	}
	// The champion serves Forecast: it equals the champion family's own
	// forecast, which differs from the deposed family's.
	champ := info.Cells[0][0].ChampionIdx
	served, err := e.Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	own, err := e.models[champ][0][0].Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	deposed, err := e.models[1-champ][0][0].Forecast(3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(served[0][0], own) || reflect.DeepEqual(own, deposed) {
		t.Fatalf("served %v, champion's own %v, deposed %v", served[0][0], own, deposed)
	}
}

// TestZooSingleCandidateMatchesLegacy pins the one-candidate ensemble to the
// §VI-A3 schedule driven by hand: one bare Model per (cluster, dim) is fit on
// the FitWindow suffix at InitialCollection and every RetrainEvery steps
// after it, and fed every observation in between through Update. Forecasts
// must agree bit for bit at every ready step, as must the retained series
// and the number of training rounds; the ensemble keeps no selection state.
func TestZooSingleCandidateMatchesLegacy(t *testing.T) {
	const (
		clusters, dims = 2, 2
		initial        = 30
		retrain        = 7
		fitWindow      = 24
	)
	for _, name := range []string{"ses", "ar", "lagged-ridge"} {
		builder, ok := registry[name]
		if !ok {
			t.Fatalf("missing family %q", name)
		}
		e, err := NewEnsemble(EnsembleConfig{
			Clusters: clusters, Dims: dims, InitialCollection: initial,
			RetrainEvery: retrain, FitWindow: fitWindow,
			Candidates: []Candidate{{Name: name, Builder: builder}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if e.Selection() != nil {
			t.Fatalf("%s: one-candidate ensemble exposes selection state", name)
		}
		oracle := make([][]Model, clusters)
		series := make([][][]float64, clusters)
		for j := range oracle {
			oracle[j] = make([]Model, dims)
			series[j] = make([][]float64, dims)
			for d := range oracle[j] {
				oracle[j][d] = builder()
			}
		}
		ready, lastFit, fits := false, 0, 0
		rng := rand.New(rand.NewSource(42))
		for step := 1; step <= 90; step++ {
			cent := [][]float64{
				{math.Sin(float64(step) / 5), rng.Float64()},
				{0.2 + 0.01*float64(step), rng.NormFloat64() * 0.1},
			}
			if err := e.Observe(cent); err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			fit := (!ready && step >= initial) || (ready && step-lastFit >= retrain)
			for j := range oracle {
				for d, v := range cent[j] {
					series[j][d] = append(series[j][d], v)
					switch {
					case fit:
						s := series[j][d]
						if err := oracle[j][d].Fit(s[max(0, len(s)-fitWindow):]); err != nil {
							t.Fatalf("%s step %d: oracle fit: %v", name, step, err)
						}
					case ready:
						oracle[j][d].Update(v)
					}
				}
			}
			if fit {
				ready, lastFit = true, step
				fits++
			}
			if e.Ready() != ready {
				t.Fatalf("%s step %d: ready %t, oracle %t", name, step, e.Ready(), ready)
			}
			if !ready {
				continue
			}
			got, err := e.Forecast(5)
			if err != nil {
				t.Fatalf("%s step %d: %v", name, step, err)
			}
			for j := range oracle {
				for d := range oracle[j] {
					want, err := oracle[j][d].Forecast(5)
					if err != nil {
						t.Fatalf("%s step %d: oracle forecast: %v", name, step, err)
					}
					for h := range want {
						if math.Float64bits(got[j][d][h]) != math.Float64bits(want[h]) {
							t.Fatalf("%s step %d cell (%d,%d) h=%d: %v, oracle %v",
								name, step, j, d, h+1, got[j][d][h], want[h])
						}
					}
				}
			}
		}
		if _, runs := e.TrainingTime(); runs != fits {
			t.Fatalf("%s: %d training rounds, oracle %d", name, runs, fits)
		}
		for j := range series {
			for d, s := range series[j] {
				if !reflect.DeepEqual(e.series[j][d], s[e.start:]) {
					t.Fatalf("%s: series (%d,%d) diverge", name, j, d)
				}
			}
		}
	}
}

// countingModel is sample-and-hold that counts its Forecast calls.
type countingModel struct {
	SampleAndHold
	calls *atomic.Int64
}

func (m *countingModel) Forecast(h int) ([]float64, error) {
	m.calls.Add(1)
	return m.SampleAndHold.Forecast(h)
}

// TestObserveForecastCalls pins what selection costs per step: with one
// candidate Observe makes no Forecast call at all, with c ≥ 2 it refreshes
// every candidate's 1-step forecast in every (cluster, dim) cell — K·d·c
// calls per ready step, the training steps included.
func TestObserveForecastCalls(t *testing.T) {
	const clusters, dims, initial, retrain = 3, 2, 5, 4
	for _, c := range []int{1, 2, 3} {
		var calls atomic.Int64
		cands := make([]Candidate, c)
		for i := range cands {
			cands[i] = Candidate{Name: string(rune('a' + i)),
				Builder: func() Model { return &countingModel{calls: &calls} }}
		}
		e, err := NewEnsemble(EnsembleConfig{
			Clusters: clusters, Dims: dims, InitialCollection: initial,
			RetrainEvery: retrain, Candidates: cands,
		})
		if err != nil {
			t.Fatal(err)
		}
		want := int64(clusters * dims * c)
		if c == 1 {
			want = 0
		}
		cent := [][]float64{{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}}
		for step := 1; step <= 20; step++ {
			before := calls.Load()
			if err := e.Observe(cent); err != nil {
				t.Fatal(err)
			}
			wantStep := want
			if !e.Ready() {
				wantStep = 0
			}
			if got := calls.Load() - before; got != wantStep {
				t.Fatalf("c=%d step %d (ready %t): %d Forecast calls, want %d",
					c, step, e.Ready(), got, wantStep)
			}
		}
	}
}

// TestZooExportRestoreMidSelection freezes a zoo mid-streak and verifies the
// restored ensemble evolves bit-identically: same champions, streaks,
// accuracy windows, forecasts, and switch counts at every subsequent step.
func TestZooExportRestoreMidSelection(t *testing.T) {
	sel := SelectionConfig{Window: 6, Streak: 4, Margin: 1e-9}
	mk := func() *Ensemble {
		return zooEnsemble(t, []string{"historical-mean", "sample-and-hold", "ses"}, sel, 2, 1, 15, 40)
	}
	live := mk()
	signal := func(step int, j int) float64 {
		if step < 40 {
			return 0.4 + 0.05*float64(j)
		}
		return 0.4 + 0.05*float64(j) + 0.004*float64(step-40) // regime change
	}
	// Run to a point mid-trending-phase where streaks are likely nonzero.
	for step := 0; step < 47; step++ {
		if err := live.Observe([][]float64{{signal(step, 0)}, {signal(step, 1)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := live.ExportState()
	if len(st.Families) != 3 || len(st.AccErrs) != 2*3 {
		t.Fatalf("export shape: families %d, accErrs %d", len(st.Families), len(st.AccErrs))
	}
	restored := mk()
	if err := restoreOne(restored, st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live.Selection(), restored.Selection()) {
		t.Fatalf("selection state diverges immediately after restore:\n%+v\nvs\n%+v",
			live.Selection(), restored.Selection())
	}
	for step := 47; step < 90; step++ {
		cent := [][]float64{{signal(step, 0)}, {signal(step, 1)}}
		if err := live.Observe(cent); err != nil {
			t.Fatal(err)
		}
		if err := restored.Observe(cent); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.Selection(), restored.Selection()) {
			t.Fatalf("selection diverges at step %d", step)
		}
		lf, _ := live.Forecast(3)
		rf, _ := restored.Forecast(3)
		if !reflect.DeepEqual(lf, rf) {
			t.Fatalf("forecasts diverge at step %d", step)
		}
	}
	if live.Selection().SwitchTotal == 0 {
		t.Fatal("scenario never exercised a switch; tighten the regime change")
	}
}

func TestZooRestoreRejectsFamilyMismatch(t *testing.T) {
	// A warm-up of 6 values is the shortest AR(4)'s first fit accepts.
	st := zooEnsemble(t, []string{"ses", "ar"}, SelectionConfig{}, 1, 1, 6, 10).ExportState()
	wrongOrder := zooEnsemble(t, []string{"ar", "ses"}, SelectionConfig{}, 1, 1, 6, 10)
	if err := restoreOne(wrongOrder, st); !errors.Is(err, ErrBadInput) {
		t.Fatalf("family order mismatch accepted: %v", err)
	}
	// A one-candidate ensemble takes a state naming no family or its own
	// one, and rejects a two-family state or one naming another family.
	ses := func() *Ensemble { return zooEnsemble(t, []string{"ses"}, SelectionConfig{}, 1, 1, 5, 10) }
	for _, fams := range [][]string{{"ar"}, {"ses", "ses"}, nil, {"ses"}} {
		one := ses().ExportState()
		one.Families = fams
		err := restoreOne(ses(), one)
		if ok := len(fams) == 0 || slices.Equal(fams, []string{"ses"}); ok != (err == nil) {
			t.Fatalf("families %q into a one-candidate ses ensemble: %v", fams, err)
		}
		if err != nil && !errors.Is(err, ErrBadInput) {
			t.Fatalf("families %q: %v, want ErrBadInput", fams, err)
		}
	}
	if err := restoreOne(ses(), st); !errors.Is(err, ErrBadInput) {
		t.Fatalf("two-family zoo state accepted by one-candidate ensemble: %v", err)
	}
}

// --- series trimming (satellite: bounded retention with FitWindow) ---

func TestTrimBoundsRetainedSeries(t *testing.T) {
	e, err := NewEnsemble(EnsembleConfig{
		Clusters: 1, InitialCollection: 10, RetrainEvery: 5, FitWindow: 8,
		Candidates: only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := e.Observe([][]float64{{float64(i)}}); err != nil {
			t.Fatal(err)
		}
		if got := len(e.series[0][0]); got > 8+5 {
			t.Fatalf("step %d: retained %d values, bound is FitWindow+RetrainEvery = 13", i, got)
		}
		if e.start+len(e.series[0][0]) != e.t {
			t.Fatalf("step %d: start %d + len %d != t %d",
				i, e.start, len(e.series[0][0]), e.t)
		}
		// The retained suffix must hold the true latest values.
		s := e.series[0][0]
		for k, v := range s {
			if v != float64(e.start+k) {
				t.Fatalf("step %d: series[%d] = %v, want %v", i, k, v, float64(e.start+k))
			}
		}
	}
}

// TestTrimSteadyStateAllocs verifies the trim reuses capacity: once trimming
// has engaged, the per-step Observe path stops growing the series backing
// arrays.
func TestTrimSteadyStateAllocs(t *testing.T) {
	e, err := NewEnsemble(EnsembleConfig{
		Clusters: 2, Dims: 2, InitialCollection: 10, RetrainEvery: 4, FitWindow: 16,
		Candidates: only(sahBuilder),
	})
	if err != nil {
		t.Fatal(err)
	}
	cent := [][]float64{{1, 2}, {3, 4}}
	for i := 0; i < 100; i++ { // reach steady state
		if err := e.Observe(cent); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if err := e.Observe(cent); err != nil {
			t.Fatal(err)
		}
	})
	// Fit on the sample-and-hold path allocates nothing per model; the only
	// tolerated allocations are the parallel.ForEach closure bookkeeping on
	// refit steps. Series appends must not allocate at steady state.
	if allocs > 8 {
		t.Fatalf("steady-state Observe allocates %v/op", allocs)
	}
}

// TestTrimExportRestoreBitIdentical pins that a trimmed ensemble exports a
// restartable state: the restored ensemble refits on the same retained
// prefix and evolves bit-identically.
func TestTrimExportRestoreBitIdentical(t *testing.T) {
	mk := func() *Ensemble {
		m, err := NewEnsemble(EnsembleConfig{
			Clusters: 1, InitialCollection: 12, RetrainEvery: 6, FitWindow: 10,
			Candidates: only(func() Model { m, _ := NewSES(0.4); return m }),
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	live := mk()
	for i := 0; i < 50; i++ {
		if err := live.Observe([][]float64{{math.Sin(float64(i) / 3)}}); err != nil {
			t.Fatal(err)
		}
	}
	st := live.ExportState()
	if st.SeriesStart == 0 {
		t.Fatal("trim never engaged; test is vacuous")
	}
	if len(st.Series[0][0]) != st.T-st.SeriesStart {
		t.Fatalf("exported %d values, want %d", len(st.Series[0][0]), st.T-st.SeriesStart)
	}
	restored := mk()
	if err := restoreOne(restored, st); err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 90; i++ {
		cent := [][]float64{{math.Sin(float64(i) / 3)}}
		if err := live.Observe(cent); err != nil {
			t.Fatal(err)
		}
		if err := restored.Observe(cent); err != nil {
			t.Fatal(err)
		}
		lf, _ := live.Forecast(4)
		rf, _ := restored.Forecast(4)
		if !reflect.DeepEqual(lf, rf) {
			t.Fatalf("forecasts diverge at step %d", i)
		}
	}
	// A state claiming a deeper trim than the fit window allows is rejected.
	bad := live.ExportState()
	bad.SeriesStart = bad.LastRefit - 2
	bad.Series[0][0] = bad.Series[0][0][:bad.T-bad.SeriesStart]
	if err := restoreOne(mk(), bad); !errors.Is(err, ErrBadInput) {
		t.Fatalf("over-trimmed state accepted: %v", err)
	}
}

// TestZooARIMAFlatClusterRefitAndRestore is the ensemble-level regression for
// flat centroid series: an idle cluster (all zeros) and a cluster clamped at
// 1.0 sit beside a moving one in a zoo containing the arima family. Every
// ARIMA order fits a flat window perfectly, which used to fail the refit —
// and with it the whole step — as "empty grid". The run crosses the initial
// fit and a refit, then a restore (which refits) must resume bit-identically.
func TestZooARIMAFlatClusterRefitAndRestore(t *testing.T) {
	mk := func() *Ensemble {
		return zooEnsemble(t, []string{"sample-and-hold", "arima"}, SelectionConfig{}, 3, 1, 60, 25)
	}
	cents := func(step int) [][]float64 {
		return [][]float64{{0}, {1}, {0.5 + 0.1*math.Sin(float64(step)/7)}}
	}
	live := mk()
	for step := 0; step < 95; step++ {
		if err := live.Observe(cents(step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if _, runs := live.TrainingTime(); runs != 2 {
		t.Fatalf("%d training rounds, want the initial fit and one refit", runs)
	}
	f, err := live.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range []float64{0, 1} {
		for s, v := range f[j][0] {
			if math.Abs(v-want) > 1e-9 {
				t.Fatalf("flat cluster %d forecast step %d = %v, want %v", j, s, v, want)
			}
		}
	}
	restored := mk()
	if err := restoreOne(restored, live.ExportState()); err != nil {
		t.Fatal(err)
	}
	for step := 95; step < 130; step++ {
		if err := live.Observe(cents(step)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := restored.Observe(cents(step)); err != nil {
			t.Fatalf("restored, step %d: %v", step, err)
		}
		lf, _ := live.Forecast(3)
		rf, _ := restored.Forecast(3)
		if !reflect.DeepEqual(lf, rf) || !reflect.DeepEqual(live.Selection(), restored.Selection()) {
			t.Fatalf("restored ensemble diverges at step %d", step)
		}
	}
}
