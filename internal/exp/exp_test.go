package exp

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"orcf/internal/gaussian"
	"orcf/internal/trace"
)

// tinyOptions keeps every experiment fast enough for the regular test suite
// while still exercising the full code paths.
func tinyOptions() Options {
	return Options{
		Nodes: 24, Steps: 320, Warmup: 120, Seed: 3,
		ForecastEvery: 25, LSTMEpochs: 2, FitWindow: 150,
	}
}

// cell parses a table cell as float.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func TestTableRendering(t *testing.T) {
	t.Parallel()
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	out := tab.String()
	if !strings.Contains(out, "T\n") || !strings.Contains(out, "a") || !strings.Contains(out, "--") {
		t.Fatalf("rendering broken:\n%s", out)
	}
}

func TestFig1Shape(t *testing.T) {
	t.Parallel()
	tab, err := Fig1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 9 { // x from -1 to 1 step 0.25
		t.Fatalf("rows = %d, want 9", len(tab.Rows))
	}
	// At x=0.5 (row 6): sensor CDFs must be far below cluster CDFs, i.e.
	// sensor correlations concentrate above 0.5 while cluster correlations
	// mostly sit below it.
	tempCDF := cell(t, tab, 6, 1)
	cpuCDF := cell(t, tab, 6, 3)
	if !(tempCDF < 0.3 && cpuCDF > 0.6) {
		t.Fatalf("Fig1 contrast broken: F_temp(0.5)=%v F_cpu(0.5)=%v", tempCDF, cpuCDF)
	}
	// CDFs are monotone in x.
	for c := 1; c <= 4; c++ {
		prev := -1.0
		for r := range tab.Rows {
			v := cell(t, tab, r, c)
			if v < prev {
				t.Fatalf("CDF column %d not monotone at row %d", c, r)
			}
			prev = v
		}
	}
}

func TestFig3ActualTracksRequested(t *testing.T) {
	t.Parallel()
	tab, err := Fig3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	for r := range tab.Rows {
		req := cell(t, tab, r, 1)
		act := cell(t, tab, r, 2)
		if act > req*1.25+0.02 || act < req*0.5 {
			t.Fatalf("row %v: actual %v drifts from requested %v", tab.Rows[r], act, req)
		}
	}
}

func TestFig4AdaptiveBeatsUniform(t *testing.T) {
	t.Parallel()
	tab, err := Fig4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 0
	for r := range tab.Rows {
		b := cell(t, tab, r, 2)
		prop := cell(t, tab, r, 3)
		unif := cell(t, tab, r, 4)
		if b == 1.0 {
			if prop != 0 || unif != 0 {
				t.Fatalf("row %v: B=1 must be exact", tab.Rows[r])
			}
			continue
		}
		total++
		if prop <= unif {
			wins++
		}
	}
	if wins*10 < total*8 { // ≥80% of budget points
		t.Fatalf("adaptive won only %d/%d rows", wins, total)
	}
}

func TestFig5WindowOneBest(t *testing.T) {
	t.Parallel()
	o := tinyOptions()
	tab, err := Fig5(o)
	if err != nil {
		t.Fatal(err)
	}
	// Per (dataset, resource) block of 5 windows, w=1 should be the minimum
	// (allow near-ties within 5%).
	for start := 0; start < len(tab.Rows); start += 5 {
		w1 := cell(t, tab, start, 3)
		for i := 1; i < 5; i++ {
			if cell(t, tab, start+i, 3) < w1*0.95 {
				t.Fatalf("window %s beats w=1 at block %d: %v < %v",
					tab.Rows[start+i][2], start, cell(t, tab, start+i, 3), w1)
			}
		}
	}
}

func TestTable1ScalarBeatsFull(t *testing.T) {
	t.Parallel()
	tab, err := Table1(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	wins := 0
	for r := range tab.Rows {
		if cell(t, tab, r, 1) <= cell(t, tab, r, 2)*1.02 {
			wins++
		}
	}
	if wins < 5 {
		t.Fatalf("scalar clustering won only %d/6 rows", wins)
	}
}

func TestFig6ProposedBeatsMinDistance(t *testing.T) {
	t.Parallel()
	tab, err := Fig6(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 0
	for r := range tab.Rows {
		total++
		if cell(t, tab, r, 3) <= cell(t, tab, r, 4)*1.05 {
			wins++
		}
	}
	if wins*10 < total*8 {
		t.Fatalf("proposed beat min-distance in only %d/%d rows", wins, total)
	}
}

func TestFig7ErrorDecreasesWithK(t *testing.T) {
	t.Parallel()
	tab, err := Fig7(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// For each (dataset,resource) the proposed error at the largest K must
	// be below the error at K=1.
	type key struct{ ds, res string }
	first := map[key]float64{}
	last := map[key]float64{}
	for r := range tab.Rows {
		k := key{tab.Rows[r][0], tab.Rows[r][1]}
		v := cell(t, tab, r, 3)
		if _, ok := first[k]; !ok {
			first[k] = v
		}
		last[k] = v
	}
	for k, f := range first {
		if last[k] >= f {
			t.Fatalf("%v: error did not shrink from K=1 (%v) to K=N (%v)", k, f, last[k])
		}
	}
}

func TestFig8ModelsTrackCentroids(t *testing.T) {
	t.Parallel()
	tab, err := Fig8(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 models", len(tab.Rows))
	}
	for r := range tab.Rows {
		for c := 1; c <= 3; c++ {
			v := cell(t, tab, r, c)
			// Tracking error of a [0,1] series must stay well below the
			// trivial predict-nothing level; at this tiny training scale the
			// models are deliberately under-trained, so the bound is loose.
			if !(v >= 0 && v < 0.4) {
				t.Fatalf("%s centroid %d tracking RMSE %v implausible", tab.Rows[r][0], c, v)
			}
		}
	}
}

func TestFig9CentroidForecastBeatsPerNode(t *testing.T) {
	if testing.Short() {
		t.Skip("minutes-long under -race; the -short race pass skips it")
	}
	t.Parallel()
	// This shape needs enough nodes that one spiking machine cannot drag a
	// whole centroid, so it runs near the quick scale.
	o := Options{
		Nodes: 80, Steps: 1200, Warmup: 400, Seed: 1,
		ForecastEvery: 25, LSTMEpochs: 4, FitWindow: 300,
	}
	tab, err := Fig9(o)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: per-node sample-and-hold (K=N) wins at h=1 (freshest own
	// value) but loses to the K=3 centroid+offset forecast as h grows; all
	// models stay in the vicinity of the stddev bound rather than above it.
	wins, total := 0, 0
	for r := range tab.Rows {
		h, _ := strconv.Atoi(tab.Rows[r][2])
		sh3 := cell(t, tab, r, 5)
		shN := cell(t, tab, r, 6)
		std := cell(t, tab, r, 7)
		for c := 3; c <= 6; c++ {
			if cell(t, tab, r, c) > 2*std+0.05 {
				t.Fatalf("row %v: column %d error wildly above stddev", tab.Rows[r], c)
			}
		}
		if h < 5 {
			continue
		}
		total++
		if sh3 <= shN*1.03 {
			wins++
		}
	}
	if wins*10 < total*6 {
		t.Fatalf("S&H K=3 beat K=N in only %d/%d rows with h ≥ 5", wins, total)
	}
}

func TestTable2LSTMSlowerThanARIMA(t *testing.T) {
	t.Parallel()
	tab, err := Table2(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(tab.Rows))
	}
	for r := range tab.Rows {
		arima := cell(t, tab, r, 2)
		lstm := cell(t, tab, r, 3)
		if arima < 0 || lstm < 0 {
			t.Fatalf("negative durations: %v", tab.Rows[r])
		}
	}
}

func TestFig10ProposedCompetitive(t *testing.T) {
	t.Parallel()
	tab, err := Fig10(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 0
	for r := range tab.Rows {
		prop := cell(t, tab, r, 3)
		md := cell(t, tab, r, 4)
		total++
		if prop <= md*1.05 {
			wins++
		}
	}
	if wins*10 < total*7 {
		t.Fatalf("proposed beat min-distance in only %d/%d rows", wins, total)
	}
}

func TestTable3Shape(t *testing.T) {
	t.Parallel()
	tab, err := Table3(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	// 3 horizons × 4 M values.
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	for r := range tab.Rows {
		for c := 2; c <= 5; c++ {
			v := cell(t, tab, r, c)
			if !(v > 0 && v < 1) {
				t.Fatalf("row %v col %d: RMSE %v out of range", tab.Rows[r], c, v)
			}
		}
	}
}

func TestFig11ProposedNotWorseThanJaccard(t *testing.T) {
	t.Parallel()
	tab, err := Fig11(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	wins, total := 0, 0
	for r := range tab.Rows {
		total++
		if cell(t, tab, r, 3) <= cell(t, tab, r, 4)*1.1 {
			wins++
		}
	}
	if wins*10 < total*7 {
		t.Fatalf("proposed similarity competitive in only %d/%d rows", wins, total)
	}
}

func TestFig12ProposedWinsAndZeroAtKN(t *testing.T) {
	t.Parallel()
	o := tinyOptions()
	o.Steps = 1100 // full 500+500 train/test phases
	tab, err := Fig12(o)
	if err != nil {
		t.Fatal(err)
	}
	mdWins, total := 0, 0
	for r := range tab.Rows {
		k, _ := strconv.Atoi(tab.Rows[r][2])
		prop := cell(t, tab, r, 3)
		md := cell(t, tab, r, 4)
		if k == o.Nodes { // K=N endpoint: proposed error must vanish
			if prop > 1e-9 {
				t.Fatalf("K=N proposed RMSE %v, want 0", prop)
			}
			continue
		}
		total++
		if prop <= md*1.15 {
			mdWins++
		}
	}
	if mdWins*10 < total*6 {
		t.Fatalf("proposed competitive with min-distance in only %d/%d rows", mdWins, total)
	}
}

// TestTable4TopWUpdateSlowest pins Table IV's two orderings on the parts
// that make them, each timed as the fastest of five runs: host load only
// ever adds time, so it cannot invert an ordering of minima whose gap is
// the whole cost of the larger side. Top-W and Top-W-Update share the
// training and test-phase inference their totals include and differ only
// in monitor selection, so their selections are compared (≈ 70 µs against
// ≈ 20 ms at 100 nodes, K = 50); the Min-distance total (≈ 3 ms) is
// compared with Top-W-Update's selection alone, a part of its total.
func TestTable4TopWUpdateSlowest(t *testing.T) {
	t.Parallel()
	tab, err := Table4(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 || len(tab.Rows[0]) != 4 {
		t.Fatalf("table IV is %d rows of %d cells, want 5 of 4", len(tab.Rows), len(tab.Rows[0]))
	}
	if testing.Short() {
		t.Skip("the timing orderings need the paper's 100-node scale; the -short race pass skips them")
	}
	// The orderings need the paper's 100-node setting; smaller instances
	// drown in timer noise.
	o := Options{Nodes: 100, Steps: 1100, Seed: 3}
	ds, err := o.dataset(trace.AlibabaLike())
	if err != nil {
		t.Fatal(err)
	}
	setup, err := newGaussianSetup(ds, 0, 100, 500, o.Seed)
	if err != nil {
		t.Fatal(err)
	}
	model, err := gaussian.Train(setup.train)
	if err != nil {
		t.Fatal(err)
	}
	const k = 50
	fastest := func(run func() error) time.Duration {
		best := time.Duration(math.MaxInt64)
		for range 5 {
			start := time.Now()
			if err := run(); err != nil {
				t.Fatal(err)
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	selection := func(strat gaussian.Strategy) func() error {
		return func() error { _, err := model.SelectMonitors(k, strat); return err }
	}
	topW, update := fastest(selection(gaussian.TopW)), fastest(selection(gaussian.TopWUpdate))
	minDistance := fastest(func() error { _, err := setup.runMinDistanceMonitors(k, o.Seed); return err })
	t.Logf("fastest of five: Top-W selection %v, Top-W-Update selection %v, Min-distance total %v", topW, update, minDistance)
	if update < topW {
		t.Fatalf("Top-W-Update selects monitors in %v, faster than Top-W's %v", update, topW)
	}
	if minDistance > update {
		t.Fatalf("Min-distance takes %v in all, more than Top-W-Update's selection alone (%v)", minDistance, update)
	}
}
