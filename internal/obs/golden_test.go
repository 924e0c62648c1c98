package obs_test

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"orcf/internal/obs"
	"orcf/internal/serve"
)

// TestExpositionGolden pins the exposition format byte-for-byte: # HELP
// before # TYPE before samples, series sorted by name, floats in the same
// 'g' formatting the pre-registry /metrics writer used, histogram lines in
// bucket/sum/count order with an +Inf terminal bucket.
func TestExpositionGolden(t *testing.T) {
	r := obs.NewRegistry()
	var c obs.Counter
	c.Add(42)
	var g obs.Gauge
	g.Add(0.25)
	r.Counter("orcf_z_total", "last by name", &c)
	r.Gauge("orcf_a_ratio", "first by name", &g)
	h := r.NewHistogram("orcf_m_seconds", "middle by name", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP orcf_a_ratio first by name
# TYPE orcf_a_ratio gauge
orcf_a_ratio 0.25
# HELP orcf_m_seconds middle by name
# TYPE orcf_m_seconds histogram
orcf_m_seconds_bucket{le="0.1"} 1
orcf_m_seconds_bucket{le="1"} 2
orcf_m_seconds_bucket{le="+Inf"} 3
orcf_m_seconds_sum 5.55
orcf_m_seconds_count 3
# HELP orcf_z_total last by name
# TYPE orcf_z_total counter
orcf_z_total 42
`
	if sb.String() != want {
		t.Fatalf("exposition drifted:\n--- got ---\n%s--- want ---\n%s", sb.String(), want)
	}
}

// TestExpositionNoNaNLeakage feeds deliberately poisoned func series and
// checks the rendered values are exactly what the serving plane's Finite*
// fence would produce — the registry and serve.Finite64 must agree on how a
// non-finite value is neutralized (to 0), so a scrape can never carry NaN.
func TestExpositionNoNaNLeakage(t *testing.T) {
	r := obs.NewRegistry()
	poisoned := map[string]float64{
		"orcf_bad_inf":     math.Inf(1),
		"orcf_bad_nan":     math.NaN(),
		"orcf_bad_neg_inf": math.Inf(-1),
		"orcf_good":        1.5,
	}
	for name, v := range poisoned {
		v := v
		r.GaugeFunc(name, "poisoned input", func() float64 { return v })
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("non-finite value leaked into exposition:\n%s", out)
	}
	for name, v := range poisoned {
		wantLine := name + " " + strconv.FormatFloat(serve.Finite64(v), 'g', -1, 64) + "\n"
		if !strings.Contains(out, wantLine) {
			t.Fatalf("series %s does not match the Finite64 fence (want %q):\n%s",
				name, wantLine, out)
		}
	}

	// The JSON dump applies the same fence.
	for _, p := range r.Snapshot() {
		if p.Value != serve.Finite64(poisoned[p.Name]) {
			t.Fatalf("snapshot %s = %v, want %v", p.Name, p.Value, serve.Finite64(poisoned[p.Name]))
		}
	}
}
