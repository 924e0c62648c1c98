package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The expected values are what Python's statistics.quantiles(v, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 3, 7, 1, 9, 2}, [3]float64{1.75, 5, 9.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{4, 4, 4, 4, 4}, [3]float64{4, 4, 4}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeSubtractsWhatChildrenCover(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},  // plain child
		{Name: "b", Parent: 0, Start: 30, End: 60},  // overlaps a: 10..60 is covered once
		{Name: "c", Parent: 0, Start: 90, End: 120}, // runs past the parent: clipped to 90..100
		{Name: "d", Parent: 1, Start: 15, End: 20},  // grandchild: only a's self time drops
		{Name: "probe", Parent: -1, Start: 200, End: 230},
	}
	want := []int64{100 - 50 - 10, 30 - 5, 30, 30, 5, 30}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	totals := totalsByName(spans)
	if !totals["op"].inOp || !totals["a"].inOp || totals["probe"].inOp {
		t.Errorf("inOp flags wrong: %+v", totals)
	}
	if got := totals["a"].meanMs(); got != 30e-6 {
		t.Errorf("mean of a = %v ms, want 30e-6", got)
	}
}

func TestTracerNestsAndNilTracerIsInert(t *testing.T) {
	var none *tracer
	none.end(none.begin("x")) // must not panic
	tr := newTracer()
	op := tr.begin("op")
	in := tr.begin("in")
	tr.end(in)
	tr.end(op)
	next := tr.begin("op")
	tr.end(next)
	if len(tr.spans) != 3 || tr.spans[1].Parent != 0 || tr.spans[0].Parent != -1 || tr.spans[2].Parent != -1 {
		t.Fatalf("bad nesting: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
}

func TestFillRejectsNaNAndUnknownNames(t *testing.T) {
	if _, err := fill(endToEnd, map[string]float64{"rmse": math.NaN()}); err == nil {
		t.Error("NaN metric accepted")
	}
	if _, err := fill(endToEnd, map[string]float64{"no_such_metric": 1}); err == nil {
		t.Error("undefined metric accepted")
	}
	m, err := fill(endToEnd, map[string]float64{"rmse": 0.1})
	if err != nil || len(m) != len(endToEnd) || m["rmse"].Unit != "util" {
		t.Errorf("fill = %v, %v", m, err)
	}
}

// BENCHMARK.json repeats the tables of metrics.go and bench.go; this keeps
// them from drifting apart.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, code says %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(specs) {
		t.Fatalf("%d workloads, code has %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d = %q (why: %d chars), code has %q", i, w.Name, len(w.Why), specs[i].name)
		}
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from metrics.go:\n%v\n%v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from metrics.go")
	}
}

// TestSmokeAllWorkloads runs every workload at a hundredth of its scale, with
// tracing off and on: every named metric must be there and finite, nothing
// may fail, and a seed must reproduce its output digest.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, sp := range specs {
		t.Run(sp.name, func(t *testing.T) {
			o := options{workload: sp.name, seed: 7, seconds: 0.2, scale: 0.01, dir: t.TempDir()}
			plain := smoke(t, o, endToEnd)
			for name, mv := range plain.Metrics {
				if mv.Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, mv.Value)
				}
			}
			if again := smoke(t, o, endToEnd); again.digest != plain.digest {
				t.Errorf("digest %016x then %016x for one seed", plain.digest, again.digest)
			}
			o.trace = true
			traced := smoke(t, o, perLayer)
			if traced.Metrics["bench.spans"].Value == 0 || traced.Metrics["core.step_ms"].Value == 0 {
				t.Errorf("traced run recorded nothing: %v", traced.Metrics)
			}
			if _, err := os.Stat(o.dir + "/spans-" + sp.name + ".json"); err != nil {
				t.Errorf("no span dump: %v", err)
			}
		})
	}
}

func smoke(t *testing.T, o options, defs []metricDef) *result {
	t.Helper()
	res, err := run(o, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
		t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
	if len(res.Metrics) != len(defs) {
		t.Fatalf("%d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := res.Metrics[d.Name]
		if !ok || mv.Unit != d.Unit || math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
			t.Errorf("metric %s = %+v (present %v)", d.Name, mv, ok)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", keys)
	}
	return res
}
