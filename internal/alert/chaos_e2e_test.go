// End-to-end chaos plane: these tests compose the real distributed stack —
// transport store, StoreStepper pipeline, alert engine, webhook sink, and
// the HTTP query plane — and drive it through the three chaos scenarios
// (utilization burst, flapping node, correlated rack outage), each at a
// small fleet and at 16 nodes, asserting the full fire → webhook → resolve
// lifecycle and, under churn, that absent members are evicted and that no
// warming or tombstoned forecast row ever fires. Run them with
// `go test -run Chaos ./internal/alert`.
package alert_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"orcf/internal/alert"
	"orcf/internal/core"
	"orcf/internal/serve"
	"orcf/internal/transport"
)

// chaosRig is one in-process deployment: store-fed pipeline, alert engine
// with webhook + collector sinks, and the serving plane.
type chaosRig struct {
	store   *transport.Store
	stepper *serve.StoreStepper
	engine  *alert.Engine
	collect *alert.CollectorSink
	hook    *alert.WebhookSink
	api     *httptest.Server

	mu       sync.Mutex
	received []alert.Event // webhook deliveries, in arrival order
	step     int
}

func newChaosRig(t *testing.T, nodes int, cfg core.Config, rules *alert.RuleSet) *chaosRig {
	t.Helper()
	rig := &chaosRig{store: transport.NewStore()}

	webhook := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var ev alert.Event
		if err := json.NewDecoder(r.Body).Decode(&ev); err != nil {
			t.Errorf("webhook payload: %v", err)
			return
		}
		rig.mu.Lock()
		rig.received = append(rig.received, ev)
		rig.mu.Unlock()
	}))
	t.Cleanup(webhook.Close)

	var err error
	if rig.hook, err = alert.NewWebhookSink(webhook.URL, alert.WebhookOptions{RetryDelay: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rig.hook.Close() })
	rig.collect = &alert.CollectorSink{}
	if rig.engine, err = alert.New(alert.Config{
		Rules: rules, Sinks: []alert.Sink{rig.collect, rig.hook}, MaxHorizon: cfg.SnapshotHorizon,
	}); err != nil {
		t.Fatal(err)
	}
	cfg.Nodes = nodes
	if rig.stepper, err = serve.NewStoreStepper(rig.store, cfg); err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(serve.Config{Source: rig.stepper.System(), Alerts: rig.engine})
	if err != nil {
		t.Fatal(err)
	}
	rig.api = httptest.NewServer(srv)
	t.Cleanup(rig.api.Close)
	return rig
}

// tick applies one measurement per reporting node (nil = this node is silent
// this step) and advances the pipeline one step, evaluating the rules
// exactly as cmd/forecastd's tick loop does.
func (rig *chaosRig) tick(t *testing.T, values map[int]float64) {
	t.Helper()
	rig.step++
	for id, v := range values {
		rig.store.Apply(transport.Measurement{Node: id, Step: rig.step, Values: []float64{v}})
	}
	if _, ok, err := rig.stepper.Tick(); err != nil {
		t.Fatal(err)
	} else if !ok {
		t.Fatalf("step %d: bootstrap gate still closed", rig.step)
	}
	if _, err := rig.engine.Evaluate(rig.stepper.System().Snapshot()); err != nil {
		t.Fatal(err)
	}
}

func (rig *chaosRig) webhookCount() int {
	rig.mu.Lock()
	defer rig.mu.Unlock()
	return len(rig.received)
}

func getAPI(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode
}

func waitCond(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func flat(nodes int, v float64) map[int]float64 {
	m := make(map[int]float64, nodes)
	for id := 0; id < nodes; id++ {
		m[id] = v
	}
	return m
}

// forFleets runs a chaos scenario as one parallel subtest per fleet size.
func forFleets(t *testing.T, sizes []int, scenario func(t *testing.T, nodes int)) {
	for _, nodes := range sizes {
		t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
			t.Parallel()
			scenario(t, nodes)
		})
	}
}

// TestChaosBurstFireWebhookResolve is the full lifecycle: a utilization
// burst fires the cluster rule, the webhook sink records every transition,
// the query plane reports the firing instances and a scale-up
// recommendation, and the alert resolves once the load subsides.
func TestChaosBurstFireWebhookResolve(t *testing.T) {
	t.Parallel()
	forFleets(t, []int{6, 16}, chaosBurst)
}

func chaosBurst(t *testing.T, nodes int) {
	rig := newChaosRig(t, nodes, core.Config{
		Resources: 1, K: 2, InitialCollection: 8, RetrainEvery: 200,
		MPrime: 3, Seed: 11, SnapshotHorizon: 6,
	}, &alert.RuleSet{StepsPerHour: 1, Rules: []alert.Rule{{
		Name: "util-high", Kind: alert.KindThreshold, Scope: alert.ScopeCluster,
		Cluster: -1, Above: true, Threshold: 0.8,
		FireStreak: 2, ClearStreak: 2, ClearMargin: 0.05, Horizon: 1,
	}}})

	// Calm phase past initial training: nothing fires.
	for i := 0; i < 12; i++ {
		rig.tick(t, flat(nodes, 0.3))
	}
	if st := rig.engine.Stats(); st.Fires != 0 {
		t.Fatalf("fired during calm phase: %+v", st)
	}

	// Burst: drive utilization to 0.9 until the rule fires.
	waitFire := 0
	for rig.engine.Stats().Fires == 0 && waitFire < 8 {
		rig.tick(t, flat(nodes, 0.9))
		waitFire++
	}
	fires := rig.engine.Stats().Fires
	if fires == 0 {
		t.Fatal("burst never fired util-high")
	}
	if waitFire < 2 {
		t.Fatalf("fired after %d burst steps despite fire_streak=2", waitFire)
	}

	// The query plane sees the firing instances...
	var ar serve.AlertsResponse
	if code := getAPI(t, rig.api.URL+"/v1/alerts", &ar); code != http.StatusOK {
		t.Fatalf("/v1/alerts status %d", code)
	}
	if len(ar.Firing) == 0 || ar.Firing[0].Rule != "util-high" {
		t.Fatalf("/v1/alerts firing %+v", ar.Firing)
	}
	if ar.Stats.Fires != fires {
		t.Fatalf("/v1/alerts stats %+v, engine says %d fires", ar.Stats, fires)
	}
	// ...and proposes scaling up the hot clusters.
	var rr serve.RecommendationsResponse
	if code := getAPI(t, rig.api.URL+"/v1/recommendations?h=2", &rr); code != http.StatusOK {
		t.Fatalf("/v1/recommendations status %d", code)
	}
	up := 0
	for _, rec := range rr.Recommendations {
		if rec.Action == alert.ActionScaleUp {
			if rec.Delta < 1 {
				t.Fatalf("scale-up with delta %d", rec.Delta)
			}
			up++
		}
	}
	if up == 0 {
		t.Fatalf("no scale-up recommendation during the burst: %+v", rr.Recommendations)
	}

	// Subside: everything resolves and the fleet goes quiet.
	for i := 0; i < 10 && rig.engine.Stats().Firing > 0; i++ {
		rig.tick(t, flat(nodes, 0.3))
	}
	st := rig.engine.Stats()
	if st.Firing != 0 || st.Resolves != fires {
		t.Fatalf("lifecycle incomplete: %+v (want %d resolves)", st, fires)
	}
	if code := getAPI(t, rig.api.URL+"/v1/alerts", &ar); code != http.StatusOK || len(ar.Firing) != 0 {
		t.Fatalf("/v1/alerts after subsidence: status %d, firing %+v", code, ar.Firing)
	}

	// Every transition reached the webhook, in the exact engine order. The
	// sink counts Delivered after the HTTP round-trip, so once it reaches
	// total the handler-side log is complete too.
	total := int(st.Fires + st.Resolves)
	waitCond(t, func() bool {
		return rig.hook.SinkStats().Delivered == int64(total) && rig.webhookCount() == total
	}, "webhook never received every transition")
	events := rig.collect.Events()
	rig.mu.Lock()
	defer rig.mu.Unlock()
	for i, ev := range rig.received {
		if ev != events[i] {
			t.Fatalf("webhook event %d = %+v, engine emitted %+v", i, ev, events[i])
		}
	}
	if hs := rig.hook.SinkStats(); hs.Delivered != int64(total) || hs.Dropped != 0 {
		t.Fatalf("webhook sink stats %+v, want %d delivered", hs, total)
	}
}

// TestChaosFlappingAndRackOutageNoFalseFires drives the two churn scenarios:
// a flapping node (repeatedly evicted by absence timeout and rejoining with
// an empty window) and a correlated rack outage (the upper half of the
// fleet vanishing and returning together, every member of it evicted).
// Warming members' forecast rows are NaN; the engine must skip them without
// ever firing the hair-trigger node rule.
func TestChaosFlappingAndRackOutageNoFalseFires(t *testing.T) {
	t.Parallel()
	forFleets(t, []int{8, 16}, chaosChurn)
}

func chaosChurn(t *testing.T, nodes int) {
	// AbsenceTimeout exceeds the look-back window (MPrime+1 slots): a silent
	// member's window fully drains (forecast rows go NaN) while it is still
	// live, so the engine must evaluate — and skip — genuinely warming rows
	// before the eviction lands.
	rig := newChaosRig(t, nodes, core.Config{
		Resources: 1, K: 2, InitialCollection: 8, RetrainEvery: 200,
		MPrime: 3, Seed: 5, SnapshotHorizon: 6, AbsenceTimeout: 5,
	}, &alert.RuleSet{StepsPerHour: 1, Rules: []alert.Rule{{
		// fire_streak 1: a single breaching evaluation of a warming row
		// would fire immediately — the sharpest possible false-fire probe.
		Name: "node-hot", Kind: alert.KindThreshold, Scope: alert.ScopeNode,
		Above: true, Threshold: 0.6, FireStreak: 1, ClearStreak: 1, Horizon: 2,
	}}})

	for i := 0; i < 12; i++ {
		rig.tick(t, flat(nodes, 0.3))
	}
	evictionsAt := func() uint64 { return rig.stepper.System().Snapshot().Evictions() }

	// Provisioned-ahead capacity: node `nodes` is pre-registered before its
	// agent comes up. An absent member that HAS reported stays present with
	// its sample-held value, so the only warming (NaN) forecast rows the
	// store path can produce are a live member's before its first report —
	// the engine must skip them, never instantiate the rule against them.
	if err := rig.stepper.System().AddNodes(nodes); err != nil {
		t.Fatal(err)
	}
	preSkips := rig.engine.Stats().NaNSkips
	for i := 0; i < 3; i++ {
		rig.tick(t, flat(nodes, 0.3)) // the new node still silent: NaN rows
	}
	if rig.engine.Stats().NaNSkips == preSkips {
		t.Fatal("warming pre-registered node produced no NaN skips")
	}
	fleet := nodes + 1
	for i := 0; i < 3; i++ { // its agent comes up and fills the window
		rig.tick(t, flat(fleet, 0.3))
	}

	// Flap: the last original node goes silent past the absence timeout
	// (evicted), reports again (rejoins, warming), and repeats. Values stay
	// calm throughout. The eviction checks below report and carry on, so a
	// broken eviction path shows in both scenarios.
	flapping := nodes - 1
	base := evictionsAt()
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < 6; i++ { // silent long enough to drain the window and be evicted
			m := flat(fleet, 0.3)
			delete(m, flapping)
			rig.tick(t, m)
		}
		for i := 0; i < 3; i++ { // back, warming behind the presence mask
			rig.tick(t, flat(fleet, 0.3))
		}
	}
	if evictionsAt() == base {
		t.Error("flap scenario never evicted the flapping node")
	}

	// Rack outage: the upper half of the original nodes vanishes together,
	// past the absence timeout, then returns together.
	rack := nodes / 2
	base = evictionsAt()
	for i := 0; i < 6; i++ {
		m := flat(fleet, 0.3)
		for id := rack; id < nodes; id++ {
			delete(m, id)
		}
		rig.tick(t, m)
	}
	if got, block := evictionsAt()-base, uint64(nodes-rack); got < block {
		t.Errorf("rack outage evicted %d of %d block members", got, block)
	}
	for i := 0; i < 6; i++ {
		rig.tick(t, flat(fleet, 0.3))
	}

	st := rig.engine.Stats()
	if st.Fires != 0 {
		t.Fatalf("false fire under churn: %+v, collector %+v", st, rig.collect.Events())
	}
	if st.NaNSkips == 0 {
		t.Fatal("churn produced no warming NaN rows — the scenario did not exercise the mask")
	}
	if rig.webhookCount() != 0 {
		rig.mu.Lock()
		defer rig.mu.Unlock()
		t.Fatalf("webhook received events under churn: %+v", rig.received)
	}
}
