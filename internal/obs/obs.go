// Package obs is the pipeline's instrumentation plane: a dependency-free
// metrics registry with atomic counters, gauges, and fixed-bucket histograms,
// exposed in the Prometheus text format (with # HELP / # TYPE headers) and as
// a JSON dump for the opt-in debug server.
//
// Instruments are freestanding values — a zero Counter or Gauge is ready to
// use, and a Histogram needs only its buckets — so packages can count and
// time without knowing whether anything is watching. Registration attaches a
// series name and help text after the fact; the transport, persist, and core
// layers each expose a Register method that binds their internal instruments
// to a Registry owned by the process (the serving plane or a daemon).
//
// All instruments are safe for concurrent use. Exposition reads every series
// at a single collection pass: OnCollect hooks run first (letting a producer
// stage one consistent snapshot that several func series then read), then
// each instrument's value is loaded atomically. Output is sorted by series
// name so scrapes are byte-stable for equal values.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use and safe for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increases the counter by n; negative n is ignored (counters never go
// down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float value that may go up and down. The zero value is ready to
// use and safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Add increases the gauge by delta (negative delta decreases it).
func (g *Gauge) Add(delta float64) {
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Kind labels a series for the # TYPE exposition header.
type Kind string

// The exposition kinds emitted by this registry.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Point is one series' value at a collection pass, as rendered by Snapshot
// for the /debug/obs JSON dump. Value carries counters and gauges; Count,
// Sum, and Buckets carry histograms.
type Point struct {
	Name   string  `json:"name"`
	Kind   Kind    `json:"kind"`
	Labels string  `json:"labels,omitempty"`
	Help   string  `json:"help"`
	Value  float64 `json:"value"`
	Count  uint64  `json:"count,omitempty"`
	Sum    float64 `json:"sum,omitempty"`
	// Buckets holds cumulative counts per upper bound, +Inf last.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// BucketCount is one cumulative histogram bucket: the number of observations
// at or below the upper bound. Le is the rendered bound ("+Inf" on the last
// bucket), a string for the same reason Prometheus makes it a label —
// infinity has no JSON encoding.
type BucketCount struct {
	Le    string `json:"le"`
	Count uint64 `json:"count"`
}

// entry is one registered series.
type entry struct {
	name   string
	labels string // rendered label set, e.g. `{version="abc",go="go1.24"}`
	help   string
	kind   Kind
	value  func() float64 // counter/gauge sources; nil for histograms
	hist   *Histogram
}

// Registry holds registered series and renders them. Create one per process
// with NewRegistry; register instruments at startup and serve WritePrometheus
// from a /metrics handler. Registration is typically done during wiring, but
// is safe at any time.
type Registry struct {
	mu      sync.Mutex
	names   map[string]struct{}
	entries []entry
	hooks   []func()
	start   time.Time
}

// NewRegistry returns an empty registry. Its creation time anchors the
// orcf_uptime_seconds series added by RegisterBuildInfo.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]struct{}), start: time.Now()}
}

// register appends a series, panicking on a duplicate name: two layers
// claiming one series is a wiring bug best caught at startup.
func (r *Registry) register(e entry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.names[e.name]; dup {
		panic(fmt.Sprintf("obs: duplicate series %q", e.name))
	}
	r.names[e.name] = struct{}{}
	// Copy on write: a collection pass reads the list it loaded without the
	// lock, so a registration builds a new one.
	entries := append(r.entries[:len(r.entries):len(r.entries)], e)
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })
	r.entries = entries
}

// Counter registers an existing Counter under name.
func (r *Registry) Counter(name, help string, c *Counter) {
	r.register(entry{name: name, help: help, kind: KindCounter,
		value: func() float64 { return float64(c.Value()) }})
}

// CounterFunc registers a counter whose value is read from f at each
// collection pass. Use for totals another layer already tracks.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	r.register(entry{name: name, help: help, kind: KindCounter, value: f})
}

// Gauge registers an existing Gauge under name.
func (r *Registry) Gauge(name, help string, g *Gauge) {
	r.register(entry{name: name, help: help, kind: KindGauge, value: g.Value})
}

// GaugeFunc registers a gauge whose value is read from f at each collection
// pass.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	r.register(entry{name: name, help: help, kind: KindGauge, value: f})
}

// LabeledGaugeFunc registers a gauge with a constant, pre-rendered label set
// (e.g. `{version="v7",go="go1.24.0"}`). The registry is deliberately
// label-free elsewhere; this exists for info-style series like
// orcf_build_info.
func (r *Registry) LabeledGaugeFunc(name, labels, help string, f func() float64) {
	r.register(entry{name: name, labels: labels, help: help, kind: KindGauge, value: f})
}

// Histogram registers an existing Histogram under name.
func (r *Registry) Histogram(name, help string, h *Histogram) {
	r.register(entry{name: name, help: help, kind: KindHistogram, hist: h})
}

// NewHistogram creates a Histogram with the given bucket upper bounds (see
// NewHistogramBuckets) and registers it in one call.
func (r *Registry) NewHistogram(name, help string, buckets []float64) *Histogram {
	h := NewHistogramBuckets(buckets)
	r.Histogram(name, help, h)
	return h
}

// OnCollect adds a hook run at the start of every collection pass
// (WritePrometheus and Snapshot), before any series value is read. A
// producer with several interdependent series stages one consistent snapshot
// here and lets its func series read from it, so a scrape never mixes values
// from two different pipeline states.
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hooks = append(r.hooks[:len(r.hooks):len(r.hooks)], f) // copy on write, as in register
}

// collect loads the entry and hook lists, which registration never writes
// in place, and runs the hooks outside the registry lock (hooks may take
// arbitrary producer locks).
func (r *Registry) collect() []entry {
	r.mu.Lock()
	entries, hooks := r.entries, r.hooks
	r.mu.Unlock()
	for _, f := range hooks {
		f()
	}
	return entries
}

// finiteOrZero fences non-finite values out of the exposition: a NaN or Inf
// series value renders as 0 rather than poisoning scrapers.
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// formatValue renders a float the same way the pre-registry /metrics writer
// did, so migrated series are byte-identical.
func formatValue(v float64) string {
	return string(appendValue(nil, v))
}

// appendValue appends formatValue(v) to b.
func appendValue(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, finiteOrZero(v), 'g', -1, 64)
}

// expositionBufs recycles WritePrometheus' output buffers, one per scrape
// in flight.
var expositionBufs = sync.Pool{New: func() any { return new([]byte) }}

// WritePrometheus renders every registered series in the Prometheus text
// format, sorted by series name, each preceded by its # HELP and # TYPE
// headers. Histograms render cumulative _bucket{le="..."} lines plus _sum
// and _count. The exposition is built in one pooled buffer and written with
// one Write.
func (r *Registry) WritePrometheus(w io.Writer) error {
	buf := expositionBufs.Get().(*[]byte)
	b := (*buf)[:0]
	for _, e := range r.collect() {
		b = append(b, "# HELP "...)
		b = append(b, e.name...)
		b = append(b, ' ')
		b = append(b, e.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, e.name...)
		b = append(b, ' ')
		b = append(b, e.kind...)
		b = append(b, '\n')
		if e.kind == KindHistogram {
			b = e.hist.appendProm(b, e.name)
			continue
		}
		b = append(b, e.name...)
		b = append(b, e.labels...)
		b = append(b, ' ')
		b = appendValue(b, e.value())
		b = append(b, '\n')
	}
	_, err := w.Write(b)
	*buf = b
	expositionBufs.Put(buf)
	return err
}

// Snapshot returns every registered series as a Point slice sorted by name —
// the payload behind /debug/obs. All values are fenced finite.
func (r *Registry) Snapshot() []Point {
	entries := r.collect()
	out := make([]Point, 0, len(entries))
	for _, e := range entries {
		p := Point{Name: e.name, Kind: e.kind, Labels: e.labels, Help: e.help}
		if e.kind == KindHistogram {
			counts, sum, count := e.hist.snapshot()
			p.Count = count
			p.Sum = finiteOrZero(sum)
			p.Buckets = make([]BucketCount, len(counts))
			cum := uint64(0)
			for i, c := range counts {
				cum += c
				le := "+Inf"
				if i < len(e.hist.upper) {
					le = formatValue(e.hist.upper[i])
				}
				p.Buckets[i] = BucketCount{Le: le, Count: cum}
			}
		} else {
			p.Value = finiteOrZero(e.value())
		}
		out = append(out, p)
	}
	return out
}
