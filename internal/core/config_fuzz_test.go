package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"orcf/internal/forecast"
)

// configFamilies are the registered model families FuzzConfig draws zoos
// from: all but lstm, whose fits at the registered budget are too slow for a
// fuzz iteration. FuzzConfig draws lstm as tinyLSTM instead.
var configFamilies = slices.DeleteFunc(forecast.Families(), func(name string) bool { return name == "lstm" })

// tinyLSTM is the lstm family at a budget a fuzz iteration affords: one
// layer of two cells over a window of 4, one epoch a fit. Its
// MinObservations is 6.
var tinyLSTM = forecast.Candidate{Name: "lstm", Builder: func() forecast.Model {
	return forecast.NewLSTM(forecast.LSTMConfig{Window: 4, Hidden: 2, Layers: 1, Epochs: 1})
}}

// configSelections are the selector tunings FuzzConfig draws: none, a valid
// one, and two that a zoo's selector rejects — NewSystem must also reject
// every non-zero one without a zoo of two or more families.
var configSelections = []forecast.SelectionConfig{
	{},
	{Window: 8, Margin: 0.01, Streak: 2, Metric: "rmse"},
	{Metric: "mape"},
	{Margin: -1},
}

// decodeConfig reads a Config from data, one byte per field, each folded into
// the field's range; a byte past the end reads as 0. It returns a
// description of the decoded fields for failure messages.
func decodeConfig(data []byte) (Config, string) {
	next := func(lo, hi int) int {
		var b byte
		if len(data) > 0 {
			b, data = data[0], data[1:]
		}
		return lo + int(b)%(hi-lo+1)
	}
	cfg := Config{
		Nodes:             next(1, 12),
		Resources:         next(-1, 4),
		K:                 next(-1, 5),
		M:                 next(-1, 3),
		MPrime:            next(-2, 6),
		InitialCollection: next(-1, 30),
		RetrainEvery:      next(-1, 15),
		FitWindow:         next(-1, 40),
		AbsenceTimeout:    next(-1, 5),
		SnapshotHorizon:   next(-1, 4),
		JointClustering:   next(0, 1) == 1,
		Seed:              uint64(next(0, 255)),
	}
	if next(0, 1) == 1 {
		cfg.IncrementalRefit = true
		cfg.IncrementalChurn = []float64{-1, 0, 0.1, math.NaN()}[next(0, 3)]
	}
	var names []string
	for range next(0, 3) {
		names = append(names, configFamilies[next(0, len(configFamilies)-1)])
	}
	cfg.Selection = configSelections[next(0, len(configSelections)-1)]
	lstm := next(0, 1) == 1
	desc := fmt.Sprintf("%+v zoo %v lstm %v", cfg, names, lstm)
	for _, name := range names {
		zoo, err := forecast.Zoo(name)
		if err != nil {
			panic(err)
		}
		cfg.Zoo = append(cfg.Zoo, zoo[0]) // duplicates kept: NewSystem must reject them
	}
	if lstm {
		cfg.Zoo = append(cfg.Zoo, tinyLSTM)
	}
	return cfg, desc
}

// FuzzConfig is the configuration validator's contract: NewSystem either
// rejects a Config with an error wrapping ErrBadConfig (no panic, no other
// error), or the System it builds steps through its first fit and two
// retraining rounds — InitialCollection + 2·RetrainEvery steps of in-range
// rows, every member reporting, the schedule's defaults applied — and then
// forecasts max(1, SnapshotHorizon) steps ahead. A fit round is what a step
// can fail on, and a third costs as much as the second without reaching
// new state: at the default warm-up of 1000 an arima zoo runs thousands of
// fits per input.
// Bytes decode one field each: Nodes 1…12, Resources −1…4, K −1…5, M −1…3,
// MPrime −2…6, InitialCollection −1…30, RetrainEvery −1…15, FitWindow
// −1…40, AbsenceTimeout −1…5, SnapshotHorizon −1…4, joint or scalar
// clustering, the seed, IncrementalRefit with a churn of −1, 0, 0.1 or NaN,
// a zoo of up to three registered families other than lstm (duplicates
// included), one of configSelections, and whether tinyLSTM joins the zoo.
func FuzzConfig(f *testing.F) {
	f.Add([]byte{})
	// N 4, d 2, K 2, M 1, M′ 4, warm-up 10, retrain every 4, default fit
	// window, horizon 3, churn 0.1, zoo ses and ar.
	f.Add([]byte{3, 3, 3, 2, 6, 11, 5, 1, 1, 4, 0, 7, 1, 2, 2, 8, 0})
	// The same with a valid selector tuning, and with metric "mape".
	f.Add([]byte{3, 3, 3, 2, 6, 11, 5, 1, 1, 4, 0, 7, 1, 2, 2, 8, 0, 1})
	f.Add([]byte{3, 3, 3, 2, 6, 11, 5, 1, 1, 4, 0, 7, 1, 2, 2, 8, 0, 2})
	// A selector tuning without a zoo.
	f.Add([]byte{3, 3, 3, 2, 6, 11, 5, 1, 1, 4, 0, 7, 0, 0, 1})
	// N 6, d 4, K 5, M′ current step only, the default warm-up of 1000,
	// retrain every 13, fit window 37, horizon 3, zoo arima: 1026 steps.
	f.Add([]byte{5, 5, 6, 2, 0, 1, 14, 38, 1, 4, 0, 0, 0, 1, 1})
	// The ses-and-ar zoo with tinyLSTM: three candidates, 18 steps.
	f.Add([]byte{3, 3, 3, 2, 6, 11, 5, 1, 1, 4, 0, 7, 1, 2, 2, 8, 0, 0, 1})
	// tinyLSTM alone, under a warm-up of 4 < its MinObservations: rejected.
	f.Add([]byte{3, 3, 3, 2, 6, 5, 5, 1, 1, 4, 0, 7, 0, 0, 0, 1})
	// tinyLSTM alone at N 2, K 1, d 1, the default warm-up of 1000 and
	// retrain every 3: 1006 steps, three rounds of fits on long series.
	f.Add([]byte{1, 2, 2, 2, 2, 1, 4, 1, 1, 2, 0, 3, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, desc := decodeConfig(data)
		sys, err := NewSystem(cfg)
		if err != nil {
			if !errors.Is(err, ErrBadConfig) {
				t.Fatalf("%s: NewSystem: %v, want an ErrBadConfig", desc, err)
			}
			return
		}
		resolved := cfg.withDefaults()
		steps := resolved.InitialCollection + 2*resolved.RetrainEvery
		x := make([][]float64, cfg.Nodes)
		for i := range x {
			x[i] = make([]float64, resolved.Resources)
		}
		for step := 1; step <= steps; step++ {
			for i, row := range x {
				for r := range row {
					row[r] = 0.1 + 0.8*float64((i*7+r*3+step)%11)/10
				}
			}
			if _, err := sys.Step(x); err != nil {
				t.Fatalf("%s: step %d of %d: %v", desc, step, steps, err)
			}
		}
		if _, err := sys.Forecast(max(1, cfg.SnapshotHorizon)); err != nil {
			t.Fatalf("%s: Forecast after %d steps: %v", desc, steps, err)
		}
	})
}
