// Command benchjson runs the repository's benchmark families with -benchmem
// and writes a machine-readable JSON summary — the committed BENCH_*.json
// perf trajectory. Each growth PR regenerates the file (make bench-json), so
// the history of committed baselines shows every change's perf delta.
//
// Usage:
//
//	go run ./cmd/benchjson -out BENCH_0008.json     # full run, write baseline
//	go run ./cmd/benchjson -short                   # CI smoke: 1 iteration,
//	                                                # verify all families parse
//	go run ./cmd/benchjson -compare old.json new.json
//	                                                # per-benchmark delta table
//	go run ./cmd/benchjson -compare -threshold 25 old.json new.json
//	                                                # fail on >25% ns/op regression
//
// The six families cover the pipeline hot paths: PipelineStep,
// EnsembleRetrain, and EnsembleSelect (ingest/refit/model-zoo scoring),
// ForecastQuery (eq. 12 reconstruction), ServeForecast (query plane: one
// node, first and repeat fleet request of a generation), and TransportIngest
// (the wire protocol, by batch size).
// Output is deterministic modulo the measurements themselves: results are
// sorted by package and benchmark name, and no timestamp is recorded.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
)

// family is one benchmark family: the go test package it lives in and the
// -bench pattern selecting it.
type family struct {
	Name    string
	Pkg     string
	Pattern string
}

// families are the benchmark families the perf trajectory tracks. The
// patterns are anchored so e.g. PipelineStepSerial stays out of the
// PipelineStep family's numbers.
var families = []family{
	{"PipelineStep", ".", "^BenchmarkPipelineStep$"},
	{"ForecastQuery", ".", "^BenchmarkForecastQuery$"},
	{"EnsembleRetrain", ".", "^BenchmarkEnsembleRetrain$"},
	{"EnsembleSelect", ".", "^BenchmarkEnsembleSelect$"},
	{"ServeForecast", "./internal/serve", "^BenchmarkServeForecast$"},
	{"TransportIngest", "./internal/transport", "^BenchmarkTransportIngest$"},
}

// result is one parsed benchmark line.
type result struct {
	Family     string `json:"family"`
	Package    string `json:"package"`
	Name       string `json:"name"`
	Iterations int64  `json:"iterations"`
	// Metrics maps unit → value (ns/op, B/op, allocs/op, plus custom units
	// like msgs/s).
	Metrics map[string]float64 `json:"metrics"`
}

// report is the BENCH_*.json payload.
type report struct {
	Go        string   `json:"go"`
	Benchtime string   `json:"benchtime"`
	Results   []result `json:"results"`
}

// finite64 fences non-finite parsed values out of the JSON payload
// (encoding/json rejects NaN and ±Inf).
func finite64(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// parseBenchLines extracts benchmark result lines from go test -bench output.
func parseBenchLines(fam family, out string) []result {
	var results []result
	for _, line := range strings.Split(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := result{
			Family:     fam.Name,
			Package:    fam.Pkg,
			Name:       fields[0],
			Iterations: iters,
			Metrics:    make(map[string]float64),
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = finite64(v)
		}
		if len(r.Metrics) > 0 {
			results = append(results, r)
		}
	}
	return results
}

// runFamily executes one family's benchmarks and returns the parsed results.
func runFamily(fam family, benchtime string) ([]result, error) {
	args := []string{"test", "-run", "^$", "-bench", fam.Pattern, "-benchmem"}
	if benchtime != "" {
		args = append(args, "-benchtime", benchtime)
	}
	args = append(args, fam.Pkg)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("benchjson: %s: go %s: %w\n%s",
			fam.Name, strings.Join(args, " "), err, out)
	}
	return parseBenchLines(fam, string(out)), nil
}

// benchKey identifies one benchmark across two reports.
type benchKey struct {
	Family string
	Name   string
}

// loadReport reads and decodes one BENCH_*.json file.
func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("benchjson: %s: %w", path, err)
	}
	return &rep, nil
}

// indexResults maps (family, name) → result, so compare matches benchmarks
// across reports regardless of ordering.
func indexResults(rep *report) map[benchKey]result {
	idx := make(map[benchKey]result, len(rep.Results))
	for _, r := range rep.Results {
		idx[benchKey{r.Family, r.Name}] = r
	}
	return idx
}

// compareUnits are the metrics the delta table reports, in column order.
var compareUnits = []string{"ns/op", "B/op", "allocs/op"}

// deltaPct returns the relative change new vs old in percent, or NaN when the
// old value is zero (no meaningful ratio).
func deltaPct(oldV, newV float64) float64 {
	if oldV == 0 {
		return math.NaN()
	}
	return (newV - oldV) / oldV * 100
}

// fmtDelta renders one ±x.x% cell; NaN (zero baseline) renders as "-".
func fmtDelta(pct float64) string {
	if math.IsNaN(pct) {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", pct)
}

// compareReports prints a per-benchmark delta table of oldPath vs newPath and
// returns the process exit code. With threshold > 0, any benchmark present in
// both reports whose ns/op regressed by more than threshold percent fails the
// comparison; threshold 0 means informational only (the CI smoke comparison
// runs 1-iteration measurements, far too noisy to gate on).
func compareReports(oldPath, newPath string, threshold float64) int {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	oldIdx, newIdx := indexResults(oldRep), indexResults(newRep)

	keys := make([]benchKey, 0, len(oldIdx))
	for k := range oldIdx {
		keys = append(keys, k)
	}
	for k := range newIdx {
		if _, ok := oldIdx[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Family != keys[j].Family {
			return keys[i].Family < keys[j].Family
		}
		return keys[i].Name < keys[j].Name
	})

	w := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintf(w, "benchmark\tns/op old\tns/op new\tΔ\tB/op old\tB/op new\tΔ\tallocs old\tallocs new\tΔ\n")
	var regressions []string
	for _, k := range keys {
		oldR, haveOld := oldIdx[k]
		newR, haveNew := newIdx[k]
		switch {
		case !haveOld:
			fmt.Fprintf(w, "%s\t(new)\t%.0f\t-\t-\t%.0f\t-\t-\t%.0f\t-\n", k.Name,
				newR.Metrics["ns/op"], newR.Metrics["B/op"], newR.Metrics["allocs/op"])
			continue
		case !haveNew:
			fmt.Fprintf(w, "%s\t%.0f\t(gone)\t-\t%.0f\t-\t-\t%.0f\t-\t-\n", k.Name,
				oldR.Metrics["ns/op"], oldR.Metrics["B/op"], oldR.Metrics["allocs/op"])
			continue
		}
		cells := make([]string, 0, 9)
		for _, unit := range compareUnits {
			o, n := oldR.Metrics[unit], newR.Metrics[unit]
			cells = append(cells, fmt.Sprintf("%.0f", o), fmt.Sprintf("%.0f", n), fmtDelta(deltaPct(o, n)))
		}
		fmt.Fprintf(w, "%s\t%s\n", k.Name, strings.Join(cells, "\t"))
		if pct := deltaPct(oldR.Metrics["ns/op"], newR.Metrics["ns/op"]); threshold > 0 && pct > threshold {
			regressions = append(regressions, fmt.Sprintf("%s: ns/op %+.1f%% (limit %+.1f%%)", k.Name, pct, threshold))
		}
	}
	w.Flush()
	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) past threshold:\n", len(regressions))
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		return 1
	}
	return 0
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		out       = flag.String("out", "", "file to write the JSON report to (empty = stdout)")
		short     = flag.Bool("short", false, "smoke mode: one iteration per benchmark, verify every family parses")
		benchtime = flag.String("benchtime", "", "go test -benchtime override (empty = go default; -short forces 1x)")
		compare   = flag.Bool("compare", false, "compare two BENCH_*.json files (args: old.json new.json) instead of running benchmarks")
		threshold = flag.Float64("threshold", 0, "with -compare: fail when any ns/op regresses by more than this percent (0 = report only)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two files: old.json new.json")
			return 1
		}
		return compareReports(flag.Arg(0), flag.Arg(1), *threshold)
	}
	bt := *benchtime
	if *short {
		bt = "1x"
	}

	rep := report{Go: runtime.Version(), Benchtime: bt}
	missing := []string{}
	for _, fam := range families {
		results, err := runFamily(fam, bt)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if len(results) == 0 {
			missing = append(missing, fam.Name)
			continue
		}
		rep.Results = append(rep.Results, results...)
		fmt.Fprintf(os.Stderr, "benchjson: %s: %d result(s)\n", fam.Name, len(results))
	}
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "benchjson: no results parsed for: %s\n", strings.Join(missing, ", "))
		return 1
	}
	sort.Slice(rep.Results, func(i, j int) bool {
		if rep.Results[i].Package != rep.Results[j].Package {
			return rep.Results[i].Package < rep.Results[j].Package
		}
		return rep.Results[i].Name < rep.Results[j].Name
	})

	payload, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	payload = append(payload, '\n')
	if *out == "" {
		os.Stdout.Write(payload)
		return 0
	}
	if err := os.WriteFile(*out, payload, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "benchjson: wrote %s (%d results)\n", *out, len(rep.Results))
	return 0
}
