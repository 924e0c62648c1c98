package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"testing"
)

// referenceWritePrometheus is the fmt-based exposition writer that
// WritePrometheus replaced, kept as the oracle: one Fprintf per line.
func referenceWritePrometheus(r *Registry, w io.Writer) error {
	for _, e := range r.collect() {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", e.name, e.help, e.name, e.kind); err != nil {
			return err
		}
		if e.kind == KindHistogram {
			counts, sum, count := e.hist.snapshot()
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(e.hist.upper) {
					le = formatValue(e.hist.upper[i])
				}
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", e.name, le, cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n", e.name, formatValue(sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count %d\n", e.name, count); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", e.name, e.labels, formatValue(e.value())); err != nil {
			return err
		}
	}
	return nil
}

// TestWritePrometheusMatchesReference renders a registry with every kind of
// series — counters, gauges, func series returning non-finite, signed-zero,
// tiny and huge values, a labeled gauge, histograms on the default, step and
// odd bucket bounds with a non-finite sum — through WritePrometheus and
// through the fmt writer it replaced: the bytes must be equal, on an empty
// registry too, and again after more observations.
func TestWritePrometheusMatchesReference(t *testing.T) {
	t.Parallel()
	r := NewRegistry()
	same := func(when string) {
		t.Helper()
		var got, want bytes.Buffer
		if err := r.WritePrometheus(&got); err != nil {
			t.Fatal(err)
		}
		if err := referenceWritePrometheus(r, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s: exposition differs from the fmt writer\n--- got ---\n%s--- want ---\n%s", when, got.Bytes(), want.Bytes())
		}
	}
	same("empty registry")

	var c Counter
	c.Add(1 << 40)
	var g Gauge
	g.Add(-2.5e-9)
	r.Counter("orcf_c_total", "A counter.", &c)
	r.Gauge("orcf_g", "A gauge with \"quotes\" and a \\ in its help.", &g)
	for i, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324,
		1e-7, 123456789, 1e21, 0.1 + 0.2, -1, math.MaxFloat64} {
		r.GaugeFunc(fmt.Sprintf("orcf_f%02d", i), "A func series.", func() float64 { return v })
	}
	r.LabeledGaugeFunc("orcf_labeled", `{a="x",b="y"}`, "A labeled gauge.", func() float64 { return 1 })
	def := r.NewHistogram("orcf_h_def_seconds", "Default buckets.", DefBuckets)
	step := r.NewHistogram("orcf_h_step_seconds", "Step buckets.", StepBuckets)
	odd := r.NewHistogram("orcf_h_odd", "Odd bounds.", []float64{-1e21, -0.5, 1e-7, 0.1 + 0.2, 123456789, 1e21})
	same("no observations")

	for i, v := range []float64{0, 1e-6, 3e-4, 0.004, 0.07, 0.3, 2, 9, 50, -3, 1e22, math.NaN(), math.Inf(1)} {
		def.Observe(v)
		step.Observe(v * float64(i))
		odd.Observe(-v)
	}
	same("after observations")
	odd.Observe(math.MaxFloat64)
	odd.Observe(math.MaxFloat64) // the sum overflows to +Inf, which renders as 0
	c.Inc()
	same("after more observations")
}

// TestWritePrometheusSteadyStateAllocs pins a scrape of a registry whose
// series read plain values at zero allocations once the pooled buffer has
// grown: one buffer, strconv appends, one Write.
func TestWritePrometheusSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	r := NewRegistry()
	var c Counter
	var g Gauge
	r.Counter("orcf_c_total", "A counter.", &c)
	r.Gauge("orcf_g", "A gauge.", &g)
	h := r.NewHistogram("orcf_h_seconds", "A histogram.", DefBuckets)
	h.Observe(0.3)
	if n := testing.AllocsPerRun(100, func() { _ = r.WritePrometheus(io.Discard) }); n != 0 {
		t.Fatalf("a scrape allocates %v times, want 0", n)
	}
}
