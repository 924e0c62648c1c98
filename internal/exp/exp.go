// Package exp regenerates every table and figure of the paper's evaluation
// (§VI) on the synthetic datasets: one function per experiment, each
// returning printable Tables with the same rows/series the paper reports.
//
// Runs default to a scaled-down configuration (fewer nodes/steps than the
// paper's clusters) so the whole suite completes on a laptop; Options.Full
// restores paper scale. Scaled runs preserve the qualitative shapes the
// paper reports — who wins, where curves flatten, which method is slowest —
// which is what EXPERIMENTS.md records.
package exp

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"orcf/internal/forecast"
	"orcf/internal/trace"
)

// Options scales an experiment run. The zero value selects the quick
// configuration used by the benchmarks.
type Options struct {
	// Nodes per dataset (0 → 80; Full → paper scale).
	Nodes int
	// Steps per dataset (0 → 1500; Full → paper scale).
	Steps int
	// Warmup is the initial collection phase (0 → 500; Full → 1000).
	Warmup int
	// Seed for trace generation and clustering.
	Seed uint64
	// Full selects paper-scale nodes/steps and the paper's parameters.
	// Paper-scale runs take hours; the default is minutes.
	Full bool
	// ForecastEvery throttles forecast scoring (0 → 10; Full → 1).
	ForecastEvery int
	// LSTMEpochs per fit (0 → 10; Full → 40).
	LSTMEpochs int
	// FitWindow caps per-fit history (0 → 400; Full → 0 = all).
	FitWindow int
}

// lstmRuns is how many seeds the LSTM pipeline is averaged over: the
// paper's 10 simulation runs at paper scale, one otherwise.
func (o Options) lstmRuns() int {
	if o.Full {
		return 10
	}
	return 1
}

// grid is the ARIMA search space: the paper's full grid at paper scale, a
// reduced one otherwise.
func (o Options) grid() forecast.Grid {
	if o.Full {
		return forecast.PaperGrid(0)
	}
	return forecast.Grid{MaxP: 2, MaxD: 1, MaxQ: 1}
}

func (o Options) withDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Full {
		if o.Warmup == 0 {
			o.Warmup = 1000
		}
		if o.ForecastEvery == 0 {
			o.ForecastEvery = 1
		}
		if o.LSTMEpochs == 0 {
			o.LSTMEpochs = 40
		}
		return o
	}
	if o.Nodes == 0 {
		o.Nodes = 80
	}
	if o.Steps == 0 {
		o.Steps = 1500
	}
	if o.Warmup == 0 {
		o.Warmup = 500
	}
	if o.ForecastEvery == 0 {
		o.ForecastEvery = 10
	}
	if o.LSTMEpochs == 0 {
		o.LSTMEpochs = 10
	}
	if o.FitWindow == 0 {
		o.FitWindow = 400
	}
	return o
}

// retrainEvery is the paper's retraining period.
const retrainEvery = 288

// dataset materializes a preset at the option scale.
func (o Options) dataset(p trace.Preset) (*trace.Dataset, error) {
	nodes, steps := o.Nodes, o.Steps
	if o.Full {
		nodes, steps = 0, 0 // paper scale
	}
	return p.Generate(nodes, steps, o.Seed)
}

// clusterPresets returns the three computing-cluster presets in paper order.
func clusterPresets() []trace.Preset {
	return []trace.Preset{trace.AlibabaLike(), trace.BitbrainsLike(), trace.GoogleLike()}
}

// Table is a printable experiment result.
type Table struct {
	// Title echoes the paper's table/figure identifier.
	Title string
	// Header names the columns.
	Header []string
	// Rows holds the data cells.
	Rows [][]string
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns (rune-width aware).
func (t *Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title)
	sb.WriteByte('\n')
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if w := utf8.RuneCountInString(c); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			if i < len(widths) {
				for p := utf8.RuneCountInString(c); p < widths[i]; p++ {
					sb.WriteByte(' ')
				}
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return sb.String()
}

// f4 formats a float with 4 decimal places.
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// f3 formats a float with 3 decimal places.
func f3(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }

// f2 formats a float with 2 decimal places.
func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }

// itoa converts an int.
func itoa(v int) string { return strconv.Itoa(v) }

// resourceLabel maps resource index to the paper's naming.
func resourceLabel(ds *trace.Dataset, r int) string {
	if r < len(ds.Resources) {
		switch ds.Resources[r] {
		case "cpu":
			return "CPU"
		case "mem":
			return "Memory"
		}
		return ds.Resources[r]
	}
	return fmt.Sprintf("res%d", r)
}
