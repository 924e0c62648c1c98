package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"orcf/internal/core"
	"orcf/internal/serve"
	"orcf/internal/transport"
)

// link is an in-process collector on a loopback port with mux batch clients
// dialled to it. The clients' batch size and linger are out of reach of a
// round, so a round's records leave only on the explicit Flush: one batch
// per connection per round, the same on every run.
type link struct {
	store   *transport.Store
	srv     *transport.Server
	clients []*transport.BatchClient

	sent    int64        // records handed to the clients so far
	target  atomic.Int64 // value of sent that the current round ends on
	arrived atomic.Int64 // records the server has applied so far
	drained chan struct{}
}

// record is one pre-decided transmission.
type record struct {
	node   int
	values []float64
}

func newLink(conns, fleet int, compress bool) (*link, error) {
	l := &link{store: transport.NewStore(), drained: make(chan struct{}, 1)}
	var err error
	l.srv, err = transport.NewServer(l.store, func(transport.Measurement) {
		if l.arrived.Add(1) == l.target.Load() {
			l.drained <- struct{}{}
		}
	})
	if err != nil {
		return nil, err
	}
	addr, err := l.srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	for c := 0; c < conns; c++ {
		cl, err := transport.DialBatch(addr, c, transport.BatchOptions{
			BatchSize: fleet + 1, MaxPending: fleet + 1, Linger: time.Hour,
			Mux: true, Compress: compress,
		})
		if err != nil {
			l.close()
			return nil, err
		}
		l.clients = append(l.clients, cl)
	}
	return l, nil
}

// round sends one step's records, split evenly over the connections with one
// sending goroutine each, and waits until the server has applied them all. It
// returns when the last Flush returned and when the last record arrived.
func (l *link) round(step int, recs []record, tr *tracer) error {
	if len(recs) == 0 {
		return nil
	}
	l.sent += int64(len(recs))
	l.target.Store(l.sent)
	sp := tr.begin("transport.send_flush")
	errs := make([]error, len(l.clients))
	var wg sync.WaitGroup
	per := (len(recs) + len(l.clients) - 1) / len(l.clients)
	for c, cl := range l.clients {
		part := recs[min(c*per, len(recs)):min((c+1)*per, len(recs))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, r := range part {
				if err := cl.SendNode(r.node, step, r.values); err != nil {
					errs[c] = err
					return
				}
			}
			errs[c] = cl.Flush()
		}()
	}
	wg.Wait()
	tr.end(sp)
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("send: %w", err)
		}
	}
	sp = tr.begin("transport.drain_wait")
	defer tr.end(sp)
	timeout := time.NewTimer(10 * time.Second)
	defer timeout.Stop()
	select {
	case <-l.drained:
		return nil
	case <-timeout.C:
		return fmt.Errorf("round %d: %d of %d records arrived", step, l.arrived.Load(), l.sent)
	}
}

func (l *link) close() {
	for _, cl := range l.clients {
		cl.Close()
	}
	if l.srv != nil {
		l.srv.Close()
	}
}

// recorder is a reusable http.ResponseWriter: unlike
// httptest.ResponseRecorder it keeps its buffers between requests, so the
// allocations a round is charged with are the server's.
type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	clear(r.header)
	r.code = 0
	r.body.Reset()
}

// query is one request of a round's fixed mix.
type query struct {
	span string
	req  *http.Request
}

// The request mix of one round. The node of each per-node request is drawn
// from a seeded Zipf law, so some repeat within a snapshot generation.
const (
	nodeForecasts = 32
	nodeViews     = 8
	fleetQuery    = nodeForecasts + nodeViews // index of the fleet-wide forecast
)

// ingestWorkload is the only workload through the wire protocol and the
// query plane. One op is a round: the step's transmissions cross TCP, the
// StoreStepper ticks the pipeline, which publishes a new snapshot generation,
// and the request mix then reads that generation.
type ingestWorkload struct {
	o    options
	cfg  core.Config
	warm int

	pipeline
	plan    [][]record // per round
	queries [][]query  // per timed round
	sends   []int      // per node: records sent over all planned rounds
	lastTx  []int      // per node: last round it transmitted in

	link    *link
	stepper *serve.StoreStepper
	api     *serve.Server
	recs    []*recorder
	round   int

	non200    int
	respBytes int64
}

func newIngest(o options, _ int) workload {
	w := &ingestWorkload{o: o, warm: o.scaled(100, 40), pipeline: newPipeline(o)}
	w.cfg = core.Config{
		Nodes: o.scaled(4096, 64), Resources: 2, K: 3,
		InitialCollection: w.warm,
		SnapshotHorizon:   probeHorizon,
		Seed:              1,
		PhaseObserver:     w.phases.observer(),
	}
	return w
}

// decide runs every node's adaptive policy over the planned rounds, as the
// agents at the edge would, and keeps what each round puts on the wire.
func (w *ingestWorkload) decide(rounds int) error {
	n := w.in.n
	w.plan = make([][]record, rounds)
	w.sends, w.lastTx = make([]int, n), make([]int, n)
	stored := make([][]float64, n)
	for i := 0; i < n; i++ {
		p, err := adaptivePolicy(i)
		if err != nil {
			return err
		}
		for r := 0; r < rounds; r++ {
			x := w.in.row(r, i)
			if p.Decide(r+1, x, stored[i]) {
				stored[i] = x
				w.plan[r] = append(w.plan[r], record{node: i, values: x})
				w.sends[i]++
				w.lastTx[i] = r
			}
		}
	}
	return nil
}

// mix draws the timed rounds' requests. Requests are built once per distinct
// URL and reused: ServeHTTP is called on one goroutine.
func (w *ingestWorkload) mix(rounds int) {
	n := w.in.n
	rng := rand.New(rand.NewPCG(w.o.seed, 0x6d6978))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(n-1))
	get := func(url string) *http.Request { return httptest.NewRequest(http.MethodGet, url, nil) }
	forecastOf, viewOf := make([]*http.Request, n), make([]*http.Request, n)
	fixed := []query{
		{"serve.forecast_fleet", get(fmt.Sprintf("/v1/forecast?h=%d", rmseHorizon))},
		{"serve.clusters", get("/v1/clusters")}, {"serve.clusters", get("/v1/clusters")},
		{"serve.models", get("/v1/models")}, {"serve.models", get("/v1/models")},
		{"serve.stats", get("/v1/stats")}, {"serve.stats", get("/v1/stats")},
		{"obs.expose", get("/metrics")},
	}
	w.queries = make([][]query, rounds)
	for r := range w.queries {
		qs := make([]query, 0, fleetQuery+len(fixed))
		for q := 0; q < fleetQuery; q++ {
			id := int(zipf.Uint64())
			if q < nodeForecasts {
				if forecastOf[id] == nil {
					forecastOf[id] = get(fmt.Sprintf("/v1/forecast?h=%d&node=%d", probeHorizon, id))
				}
				qs = append(qs, query{"serve.forecast_node", forecastOf[id]})
			} else {
				if viewOf[id] == nil {
					viewOf[id] = get(fmt.Sprintf("/v1/nodes/%d", id))
				}
				qs = append(qs, query{"serve.node", viewOf[id]})
			}
		}
		w.queries[r] = append(qs, fixed...)
	}
	w.recs = make([]*recorder, fleetQuery+len(fixed))
	for i := range w.recs {
		w.recs[i] = &recorder{header: make(http.Header)}
	}
}

func (w *ingestWorkload) setup() error {
	var err error
	if w.in, err = genInputs(w.cfg.Nodes, w.cfg.Resources, 288, w.o.seed); err != nil {
		return err
	}
	if err := w.decide(w.warm + w.o.ops); err != nil {
		return err
	}
	w.mix(w.o.ops)
	w.base = liveHeap()
	if w.link, err = newLink(2, w.in.n, false); err != nil {
		return err
	}
	if w.stepper, err = serve.NewStoreStepper(w.link.store, w.cfg); err != nil {
		return err
	}
	if w.api, err = serve.New(serve.Config{Source: w.stepper.System()}); err != nil {
		return err
	}
	for w.round < w.warm {
		if err := w.ingest(nil); err != nil {
			return err
		}
	}
	if !w.stepper.System().Ready() {
		return fmt.Errorf("not ready after %d warm-up rounds", w.warm)
	}
	w.phases.reset()
	return nil
}

// ingest moves one round's records over the wire and ticks the pipeline.
func (w *ingestWorkload) ingest(tr *tracer) error {
	if err := w.link.round(w.round+1, w.plan[w.round], tr); err != nil {
		return err
	}
	sp := tr.begin("serve.tick")
	res, ok, err := w.stepper.Tick()
	tr.end(sp)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("round %d: tick did not step", w.round)
	}
	w.last = res
	w.round++
	return nil
}

func (w *ingestWorkload) op(i int, tr *tracer) error {
	if err := w.ingest(tr); err != nil {
		return err
	}
	bad := 0
	for q, query := range w.queries[i] {
		rec := w.recs[q]
		rec.reset()
		sp := tr.begin(query.span)
		w.api.ServeHTTP(rec, query.req)
		tr.end(sp)
		w.respBytes += int64(rec.body.Len())
		if rec.code != http.StatusOK {
			bad++
		}
	}
	if bad > 0 {
		w.non200 += bad
		return fmt.Errorf("round %d: %d responses were not 200", w.round, bad)
	}
	return nil
}

// check parses the latest round's bodies: every one must be valid (JSON, or
// NaN-free exposition text) and the fleet forecast is scored against the
// trace.
func (w *ingestWorkload) check(_ int, tr *tracer) int {
	failed := 0
	for q, rec := range w.recs {
		body := rec.body.Bytes()
		if q == len(w.recs)-1 { // /metrics
			if len(body) == 0 || bytes.Contains(body, []byte("NaN")) {
				failed++
			}
		} else if !json.Valid(body) {
			failed++
		}
	}
	var fleet serve.ForecastResponse
	if err := json.Unmarshal(w.recs[fleetQuery].body.Bytes(), &fleet); err != nil ||
		len(fleet.Forecast) != rmseHorizon || len(fleet.Nodes) != len(fleet.Forecast[rmseHorizon-1]) {
		return failed + 1
	}
	for e, id := range fleet.Nodes {
		w.rmse.add(w.in, w.round-1, rmseHorizon, id, fleet.Forecast[rmseHorizon-1][e])
	}
	return failed + w.probe(w.stepper.System(), tr)
}

// finish compares the collector's store with what was sent, as cmd/loadgen
// does: every node present, accepted updates equal to its sends, and its
// latest step and values bit-identical.
func (w *ingestWorkload) finish() report {
	r := w.report(w.stepper.System())
	stats := w.link.store.Stats()
	mismatched := 0
	for i := 0; i < w.in.n; i++ {
		st, ok := stats[i]
		want := w.in.row(w.lastTx[i], i)
		same := ok && st.Updates == w.sends[i] && st.Latest.Step == w.lastTx[i]+1 &&
			len(st.Latest.Values) == len(want)
		for k := 0; same && k < len(want); k++ {
			same = math.Float64bits(st.Latest.Values[k]) == math.Float64bits(want[k])
		}
		if !same {
			mismatched++
		}
	}
	if mismatched > 0 || w.link.srv.ProtocolErrors() != 0 || w.dropped() != 0 {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf(
			"FAILED: %d nodes differ from what was sent, %d protocol errors, %d dropped records",
			mismatched, w.link.srv.ProtocolErrors(), w.dropped()))
	}
	return r
}

func (w *ingestWorkload) dropped() int64 {
	var n int64
	for _, cl := range w.link.clients {
		n += cl.Dropped()
	}
	return n
}

func (w *ingestWorkload) layers(tr *tracer, ops int, m map[string]float64) error {
	totals := totalsByName(tr.spans)
	us := func(name string) float64 { return totals[name].meanMs() * 1e3 }
	m["core.step_ms"] = totals["serve.tick"].meanMs()
	m["serve.tick_ms"] = totals["serve.tick"].meanMs()
	m["serve.forecast_node_us"] = us("serve.forecast_node")
	m["serve.forecast_fleet_ms"] = totals["serve.forecast_fleet"].meanMs()
	m["serve.node_us"] = us("serve.node")
	m["serve.clusters_us"] = us("serve.clusters")
	m["serve.models_us"] = us("serve.models")
	m["serve.stats_us"] = us("serve.stats")
	m["serve.cache_hit_ratio"] = w.api.Stats().Cache.HitRatio
	m["serve.resp_kb_per_round"] = float64(w.respBytes) / 1e3 / float64(ops)
	m["serve.non200"] = float64(w.non200)
	m["obs.expose_us"] = us("obs.expose")
	m["obs.series"] = float64(len(w.api.Registry().Snapshot()))

	m["transport.send_flush_ms"] = totals["transport.send_flush"].meanMs()
	m["transport.drain_wait_ms"] = totals["transport.drain_wait"].meanMs()
	var bytesOut, records, batches int64
	for _, cl := range w.link.clients {
		cm := cl.Metrics()
		bytesOut += cm.BytesOut.Value()
		records += cm.RecordsOut.Value()
		batches += cm.BatchesOut.Value()
	}
	m["transport.bytes_per_record"] = float64(bytesOut) / float64(max(1, records))
	m["transport.records"] = float64(records)
	m["transport.batches"] = float64(batches)
	m["transport.dropped"] = float64(w.dropped())
	m["transport.proto_errors"] = float64(w.link.srv.ProtocolErrors())
	if err := w.probeDeflate(m); err != nil {
		return err
	}
	return w.probeLayers(w.stepper.System(), w.cfg, tr, m)
}

// probeDeflate repeats the first rounds' sends over a second collector whose
// clients DEFLATE-compress their batches.
func (w *ingestWorkload) probeDeflate(m map[string]float64) error {
	l, err := newLink(2, w.in.n, true)
	if err != nil {
		return err
	}
	defer l.close()
	tr := newTracer()
	for r := 0; r < min(200, len(w.plan)); r++ {
		if err := l.round(r+1, w.plan[r], tr); err != nil {
			return err
		}
	}
	var bytesOut, records int64
	for _, cl := range l.clients {
		bytesOut += cl.Metrics().BytesOut.Value()
		records += cl.Metrics().RecordsOut.Value()
	}
	m["transport.deflate_send_flush_ms"] = totalsByName(tr.spans)["transport.send_flush"].meanMs()
	m["transport.deflate_bytes_per_record"] = float64(bytesOut) / float64(max(1, records))
	return nil
}

func (w *ingestWorkload) close() {
	if w.link != nil {
		w.link.close()
	}
}
