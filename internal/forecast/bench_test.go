package forecast

import (
	"testing"

	"orcf/internal/stat"
)

// The ARIMA fitting benchmarks run on trace-generated centroid series (see
// centroidSeries), the data the ensemble refits on. Every case has a
// BenchmarkReference… twin running the in-test oracle — the fitting path as
// it was before the fit workspace — so before/after can be re-measured on
// any machine:
//
//	go test -run '^$' -bench 'ARIMAFit|CSSResiduals' -benchmem ./internal/forecast
//
// `make bench` runs the production side only. The two-lane pair cases of
// BenchmarkCSSResiduals have no reference twin: their solo side is the
// before.

var benchSink float64

type autoFitCase struct {
	name string
	grid Grid
	n    int
}

// paper-s12-n400 is the §VI-A3 grid at a short seasonal period: 1943 orders,
// seconds per search.
var autoFitCases = []autoFitCase{
	{"default-n200", DefaultGrid(), 200},
	{"paper-s12-n400", PaperGrid(12), 400},
}

// BenchmarkAutoARIMAFit also reports the objective evaluations one search
// spends (evals/op, fixed by the series and the grid: a change that moves
// it changed the fits) and the time per evaluation (ns/eval).
func BenchmarkAutoARIMAFit(b *testing.B) {
	for _, tc := range autoFitCases {
		series := centroidSeries(b, 5, tc.n)[1]
		b.Run(tc.name, func(b *testing.B) {
			grid := tc.grid.effective()
			evals := 0
			for _, fit := range newFitWorkspace(series, grid, fitLanes).fitAll(grid.orders()) {
				evals += fit.evals
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := AutoARIMA(series, tc.grid)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m.rss
			}
			b.ReportMetric(float64(evals), "evals/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*evals), "ns/eval")
		})
	}
}

func BenchmarkReferenceAutoARIMAFit(b *testing.B) {
	for _, tc := range autoFitCases {
		series := centroidSeries(b, 5, tc.n)[1]
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := refAutoARIMA(series, tc.grid)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m.rss
			}
		})
	}
}

type cssCase struct {
	name   string
	ar, ma []float64
}

// cssCases are one objective evaluation on a 200-point window: the largest
// pure-AR and ARMA orders of DefaultGrid, and ARIMA(1,0,1)(1,0,1)[12]
// expanded to 13 dense lags a side.
func cssCases() []cssCase {
	ws := newFitWorkspace(nil, Grid{MaxP: 1, MaxQ: 1, MaxSP: 1, MaxSQ: 1, Season: 12}, 1)
	ar, ma := ws.lanes[0].expand([]float64{0, 0.4, 0.3, 0.2, 0.1}, Order{P: 1, Q: 1, SP: 1, SQ: 1, Season: 12})
	return []cssCase{
		{"p3q0", []float64{0.4, 0.2, 0.1}, nil},
		{"p3q2", []float64{0.4, 0.2, 0.1}, []float64{0.3, 0.1}},
		{"seasonal", ar, ma},
	}
}

// cssPairCases are two objective evaluations of different orders, on the
// window and on its first difference (lengths 200 and 199), as two lanes of
// the grid search evaluate them: the largest ARMA order twice, and a small
// ARMA order beside a pure AR one.
var cssPairCases = []struct {
	name     string
	arA, maA []float64
	arB, maB []float64
}{
	{"pair-p3q2+p3q2", []float64{0.4, 0.2, 0.1}, []float64{0.3, 0.1}, []float64{0.3, -0.2, 0.05}, []float64{-0.25, 0.2}},
	{"pair-p1q1+p3q0", []float64{0.5}, []float64{0.3}, []float64{0.4, 0.2, 0.1}, nil},
}

// BenchmarkCSSResiduals times one objective evaluation per case, and each
// pair case both ways: through the two-lane kernel (two-lane) and as the
// two cssSmall calls it replaces (solo).
func BenchmarkCSSResiduals(b *testing.B) {
	w := centroidSeries(b, 5, 200)[1]
	resid := make([]float64, len(w))
	for _, tc := range cssCases() {
		arWin, maWin := reversed(tc.ar), reversed(tc.ma)
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if len(tc.ar) <= 3 && len(tc.ma) <= 2 {
					benchSink = cssSmall(w, 0.01, tc.ar, tc.ma)
				} else {
					benchSink = cssResiduals(w, 0.01, arWin, maWin, resid)
				}
			}
		})
	}
	wd := stat.Diff(w, 1)
	for _, tc := range cssPairCases {
		b.Run(tc.name+"/two-lane", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ra, rb := cssSmall2(w, 0.01, tc.arA, tc.maA, wd, -0.01, tc.arB, tc.maB)
				benchSink = ra + rb
			}
		})
		b.Run(tc.name+"/solo", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchSink = cssSmall(w, 0.01, tc.arA, tc.maA) + cssSmall(wd, -0.01, tc.arB, tc.maB)
			}
		})
	}
}

// The reference allocated its residual buffer per evaluation while
// optimizing (residOut nil), which is what this measures.
func BenchmarkReferenceCSSResiduals(b *testing.B) {
	w := centroidSeries(b, 5, 200)[1]
	for _, tc := range cssCases() {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink, _ = refCssResiduals(w, 0.01, tc.ar, tc.ma, nil)
			}
		})
	}
}
