package forecast

import (
	"testing"
)

// The ARIMA fitting benchmarks run on trace-generated centroid series (see
// centroidSeries), the data the ensemble refits on. Every case has a
// BenchmarkReference… twin running the in-test oracle — the fitting path as
// it was before the fit workspace — so before/after can be re-measured on
// any machine:
//
//	go test -run '^$' -bench 'ARIMAFit|CSSResiduals' -benchmem ./internal/forecast
//
// `make bench` runs the production side only.

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

func BenchmarkAutoARIMAFit(b *testing.B) {
	for _, tc := range autoFitCases {
		series := centroidSeries(b, 5, tc.n)[1]
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := AutoARIMA(series, tc.grid)
				if err != nil {
					b.Fatal(err)
				}
				benchSink = m.rss
			}
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
	ws := newFitWorkspace(nil, Grid{MaxP: 1, MaxQ: 1, MaxSP: 1, MaxSQ: 1, Season: 12})
	ar, ma := ws.expand([]float64{0, 0.4, 0.3, 0.2, 0.1}, Order{P: 1, Q: 1, SP: 1, SQ: 1, Season: 12})
	return []cssCase{
		{"p3q0", []float64{0.4, 0.2, 0.1}, nil},
		{"p3q2", []float64{0.4, 0.2, 0.1}, []float64{0.3, 0.1}},
		{"seasonal", ar, ma},
	}
}

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
