package serve

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"reflect"
	"testing"

	"orcf/internal/core"
	"orcf/internal/persist"
	"orcf/internal/transport"
)

// churnEnv drives a store+stepper stack through a fixed membership
// schedule: nodes 0..3 report from tick 1, node 9 joins at tick 10, node 1
// goes dark at tick 16 (evicted after the 3-tick absence timeout), and
// node 1 rejoins fresh at tick 24.
type churnEnv struct {
	store   *transport.Store
	stepper *StoreStepper
	mgr     *persist.Manager
}

func churnStepperConfig() core.Config {
	return core.Config{
		Nodes:             4,
		Resources:         2,
		K:                 2,
		MPrime:            3,
		InitialCollection: 8,
		RetrainEvery:      6,
		Seed:              5,
		SnapshotHorizon:   3,
		AbsenceTimeout:    3,
	}
}

const (
	churnJoinTick   = 10
	churnSilentTick = 16
	churnEvictTick  = 18
	churnRejoinTick = 24
	churnLastTick   = 32
)

// forecastsBitEqual compares forecast tensors bit-for-bit, treating NaN
// (the warm-up/tombstone mask) as equal to NaN — reflect.DeepEqual would
// report any masked row as a mismatch.
// isMember reports whether a stable ID is currently a live member of sys.
func isMember(sys *core.System, id int) bool {
	_, ok := sys.SlotOf(id)
	return ok
}

func forecastsBitEqual(a, b [][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for hi := range a {
		if len(a[hi]) != len(b[hi]) {
			return false
		}
		for i := range a[hi] {
			if len(a[hi][i]) != len(b[hi][i]) {
				return false
			}
			for r := range a[hi][i] {
				if math.Float64bits(a[hi][i][r]) != math.Float64bits(b[hi][i][r]) {
					return false
				}
			}
		}
	}
	return true
}

func newChurnEnv(t *testing.T, dir string) *churnEnv {
	t.Helper()
	cfg := churnStepperConfig()
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, cfg)
	if err != nil {
		t.Fatalf("stepper: %v", err)
	}
	mgr, err := persist.New(stepper.System(), cfg, persist.Options{Dir: dir, CheckpointEvery: 7})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	if _, err := mgr.Recover(nil); err != nil {
		t.Fatalf("recover: %v", err)
	}
	// Stop the background checkpointer before TempDir removes dir under it
	// (cleanups run last-registered first, and dir was made before this).
	t.Cleanup(func() { _ = mgr.Close() })
	stepper.SetLog(mgr)
	return &churnEnv{store: store, stepper: stepper, mgr: mgr}
}

// reporters returns the node IDs delivering a measurement at a tick.
func reporters(tick int) []int {
	ids := []int{0, 2, 3}
	if tick < churnSilentTick || tick >= churnRejoinTick {
		ids = append(ids, 1)
	}
	if tick >= churnJoinTick {
		ids = append(ids, 9)
	}
	return ids
}

func (e *churnEnv) tick(t *testing.T, tick int) *core.StepResult {
	t.Helper()
	for _, id := range reporters(tick) {
		vals := make([]float64, 2)
		for d := range vals {
			vals[d] = 0.5 + 0.4*math.Sin(float64(tick)*0.31+float64(id*3+d))
		}
		e.store.Apply(transport.Measurement{Node: id, Step: tick, Values: vals})
	}
	res, ok, err := e.stepper.Tick()
	if err != nil || !ok {
		t.Fatalf("tick %d: ok=%v err=%v", tick, ok, err)
	}
	return res
}

// TestStoreStepperChurnLifecycle walks the full membership lifecycle over
// the live HTTP surface: join → warming → active, absence → eviction (store
// entry released), and rejoin under the same stable ID, with /v1/nodes/{id}
// and /v1/forecast addressing members by ID throughout.
func TestStoreStepperChurnLifecycle(t *testing.T) {
	t.Parallel()
	env := newChurnEnv(t, t.TempDir())
	sys := env.stepper.System()
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	getNode := func(id string) (int, NodeResponse) {
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/nodes/"+id, nil))
		var resp NodeResponse
		_ = json.Unmarshal(rr.Body.Bytes(), &resp)
		return rr.Code, resp
	}

	for tick := 1; tick <= churnLastTick; tick++ {
		res := env.tick(t, tick)
		switch tick {
		case churnJoinTick - 1:
			if code, _ := getNode("9"); code != 404 {
				t.Fatalf("tick %d: unjoined node served %d, want 404", tick, code)
			}
		case churnJoinTick:
			if !isMember(sys, 9) {
				t.Fatalf("tick %d: node 9 did not join", tick)
			}
			if code, resp := getNode("9"); code != 200 || resp.Status == "" {
				t.Fatalf("tick %d: joined node: code %d resp %+v", tick, code, resp)
			}
		case churnJoinTick + 4:
			if code, resp := getNode("9"); code != 200 || resp.Status != "active" || resp.WindowFill == 0 {
				t.Fatalf("tick %d: node 9 not active: code %d resp %+v", tick, code, resp)
			}
		case churnEvictTick:
			if !reflect.DeepEqual(res.Evicted, []int{1}) {
				t.Fatalf("tick %d: evicted %v, want [1]", tick, res.Evicted)
			}
			if isMember(sys, 1) {
				t.Fatal("node 1 still a member after eviction")
			}
			if _, ok := env.store.Latest(1); ok {
				t.Fatal("evicted node's store entry was not released")
			}
		case churnEvictTick + 1:
			if code, _ := getNode("1"); code != 404 {
				t.Fatalf("tick %d: evicted node served %d, want 404", tick, code)
			}
		case churnRejoinTick:
			if !isMember(sys, 1) {
				t.Fatalf("tick %d: node 1 did not rejoin", tick)
			}
			if slot, _ := sys.SlotOf(1); slot != 1 {
				t.Fatalf("rejoined node 1 at slot %d, want recycled slot 1", slot)
			}
		case churnRejoinTick + 1:
			// Rejoined with one presence step: forecastable again, fresh window.
			if code, resp := getNode("1"); code != 200 || resp.WindowFill > 2 {
				t.Fatalf("tick %d: rejoined node: code %d resp %+v (stale window?)", tick, code, resp)
			}
		}
	}

	// Final forecast: every live member is past warm-up, so the response
	// carries all five stable IDs — including the rejoined 1 and joiner 9.
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/forecast?h=2", nil))
	if rr.Code != 200 {
		t.Fatalf("forecast: %d %s", rr.Code, rr.Body.String())
	}
	var fresp ForecastResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &fresp); err != nil {
		t.Fatalf("forecast json: %v", err)
	}
	if !reflect.DeepEqual(fresp.Nodes, []int{0, 1, 2, 3, 9}) {
		t.Fatalf("forecast members %v, want [0 1 2 3 9]", fresp.Nodes)
	}
	if len(fresp.Forecast) != 2 || len(fresp.Forecast[0]) != 5 {
		t.Fatalf("forecast shape %dx%d, want 2x5", len(fresp.Forecast), len(fresp.Forecast[0]))
	}
	for _, row := range fresp.Forecast[0] {
		if math.IsNaN(row[0]) {
			t.Fatal("NaN leaked into the full-fleet forecast response")
		}
	}

	// Per-ID filter addresses the rejoined member.
	rr = httptest.NewRecorder()
	srv.ServeHTTP(rr, httptest.NewRequest("GET", "/v1/forecast?h=2&node=9", nil))
	if rr.Code != 200 {
		t.Fatalf("forecast node=9: %d %s", rr.Code, rr.Body.String())
	}

	// Stats reflect membership: 5 live over 6 slots (one tombstone-turned-
	// reused slot plus the appended one), 1 lifetime eviction.
	st := srv.Stats()
	if st.Nodes != 5 || st.Evictions != 1 {
		t.Fatalf("stats nodes=%d evictions=%d, want 5/1", st.Nodes, st.Evictions)
	}
}

// TestStoreStepperZeroReplayRecovery pins the clean-shutdown path of an
// elastic fleet: a checkpoint taken after the fleet grew rotates the WAL,
// so recovery restores the roster with zero replayed records (no
// Reapply at all). The restarted stepper must resize its buffers to the
// recovered fleet (not panic), skip the bootstrap gate (the pipeline is
// mid-run, not booting), and still evict a member that never reports again
// instead of waiting for it forever.
func TestStoreStepperZeroReplayRecovery(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	env := newChurnEnv(t, dir)
	for tick := 1; tick <= churnJoinTick+2; tick++ {
		env.tick(t, tick) // fleet grows to 5 members / 5 slots at tick 10
	}
	if err := env.mgr.Checkpoint(); err != nil { // clean shutdown: WAL rotated
		t.Fatalf("checkpoint: %v", err)
	}
	if err := env.mgr.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	rec := newChurnEnv(t, dir) // cfg.Nodes is still 4; the roster says 5
	sys := rec.stepper.System()
	if sys.Steps() != churnJoinTick+2 || sys.LiveNodes() != 5 {
		t.Fatalf("recovered to step %d with %d members, want %d/5", sys.Steps(), sys.LiveNodes(), churnJoinTick+2)
	}
	// Node 3 is gone for good after the restart; everyone else reconnects.
	deadTicks := 0
	for tick := churnJoinTick + 3; tick <= churnJoinTick+12; tick++ {
		for _, id := range reporters(tick) {
			if id == 3 {
				continue
			}
			vals := []float64{0.4, 0.6}
			rec.store.Apply(transport.Measurement{Node: id, Step: tick, Values: vals})
		}
		res, ok, err := rec.stepper.Tick() // must neither panic nor gate-stall
		if err != nil || !ok {
			t.Fatalf("post-recovery tick %d: ok=%v err=%v", tick, ok, err)
		}
		deadTicks++
		if len(res.Evicted) > 0 {
			if res.Evicted[0] != 3 || deadTicks < churnStepperConfig().AbsenceTimeout {
				t.Fatalf("tick %d: evicted %v after %d ticks", tick, res.Evicted, deadTicks)
			}
			if isMember(sys, 3) {
				t.Fatal("node 3 still live after eviction")
			}
			return
		}
	}
	t.Fatal("dead member was never evicted after zero-replay recovery")
}

// TestStoreStepperChurnRecovery is the acceptance criterion for durability
// under churn: crash (no checkpoint, no close) with a tombstoned slot and a
// mid-warm-up joiner in flight, recover from checkpoint + WAL (whose
// records carry the roster), and the recovered pipeline must match the
// uninterrupted run bit-for-bit at the crash point and keep matching as the
// schedule continues — including the rejoin of an evicted ID into its
// recycled slot.
func TestStoreStepperChurnRecovery(t *testing.T) {
	t.Parallel()
	const crash = 21 // after the eviction, before the rejoin
	ref := newChurnEnv(t, t.TempDir())
	var refAtCrash [][][]float64
	for tick := 1; tick <= churnLastTick; tick++ {
		ref.tick(t, tick)
		if tick == crash {
			f, err := ref.stepper.System().Forecast(3)
			if err != nil {
				t.Fatalf("ref forecast at crash: %v", err)
			}
			refAtCrash = f
		}
	}
	refFinal, err := ref.stepper.System().Forecast(3)
	if err != nil {
		t.Fatalf("ref final forecast: %v", err)
	}

	dir := t.TempDir()
	crashed := newChurnEnv(t, dir)
	for tick := 1; tick <= crash; tick++ {
		crashed.tick(t, tick)
	}
	// Crash: drop everything. Recovery rebuilds the roster from the
	// checkpoint and replays WAL records, reconciling membership per step.
	rec := newChurnEnv(t, dir)
	sys := rec.stepper.System()
	if sys.Steps() != crash {
		t.Fatalf("recovered to step %d, want %d", sys.Steps(), crash)
	}
	if isMember(sys, 1) || !isMember(sys, 9) || sys.LiveNodes() != 4 {
		t.Fatalf("recovered roster wrong: members %v", sys.Members())
	}
	got, err := sys.Forecast(3)
	if err != nil {
		t.Fatalf("recovered forecast: %v", err)
	}
	if !forecastsBitEqual(got, refAtCrash) {
		t.Fatal("recovered forecast diverges from uninterrupted run at the crash point")
	}

	// Continue the schedule (agents reconnect; the rejoin at tick 24 lands
	// in the recycled slot exactly as in the uninterrupted run).
	for tick := crash + 1; tick <= churnLastTick; tick++ {
		rec.tick(t, tick)
	}
	gotFinal, err := sys.Forecast(3)
	if err != nil {
		t.Fatalf("continued forecast: %v", err)
	}
	if !forecastsBitEqual(gotFinal, refFinal) {
		t.Fatal("post-recovery continuation diverges from uninterrupted run")
	}
	if want, gotM := ref.stepper.System().Members(), sys.Members(); !reflect.DeepEqual(want, gotM) {
		t.Fatalf("final members %v, want %v", gotM, want)
	}
}
