package alert

import (
	"slices"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// newTestSystem builds a small always-transmit pipeline with snapshots
// enabled — the substrate every engine test evaluates against.
func newTestSystem(t *testing.T, nodes int, mutate func(*core.Config)) *core.System {
	t.Helper()
	cfg := core.Config{
		Nodes: nodes, Resources: 1, K: 2, InitialCollection: 6, RetrainEvery: 200,
		MPrime: 3, Seed: 1, SnapshotHorizon: 8,
		Policy: func(int) (transmit.Policy, error) { return transmit.Always{}, nil },
	}
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// stepValue feeds every live member the given value (plus a tiny per-slot
// spread so clustering has structure) for one step.
func stepValue(t *testing.T, sys *core.System, v float64) {
	t.Helper()
	roster := sys.Roster()
	x := make([][]float64, roster.Slots())
	for i := range x {
		if _, live := roster.IDAt(i); live {
			x[i] = []float64{v + float64(i)*0.005}
		}
	}
	if _, err := sys.Step(x); err != nil {
		t.Fatal(err)
	}
}

func mustEvaluate(t *testing.T, e *Engine, sys *core.System) []Event {
	t.Helper()
	events, err := e.Evaluate(sys.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestEngineClusterThresholdLifecycle(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 4, nil)
	collector := &CollectorSink{}
	engine, err := New(Config{
		Rules: &RuleSet{StepsPerHour: 1, Rules: []Rule{{
			Name: "util-high", Kind: KindThreshold, Scope: ScopeCluster,
			Cluster: -1, Above: true, Threshold: 0.8,
			FireStreak: 2, ClearStreak: 2, ClearMargin: 0.05, Horizon: 1,
		}}},
		Sinks: []Sink{collector}, MaxHorizon: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Calm warmup: nothing may fire while utilization sits at 0.2.
	for i := 0; i < 10; i++ {
		stepValue(t, sys, 0.2)
		if evs := mustEvaluate(t, engine, sys); len(evs) != 0 {
			t.Fatalf("calm step %d produced events %+v", i, evs)
		}
	}
	if !sys.Ready() {
		t.Fatal("system not ready after warmup")
	}

	// Burst: centroid forecasts cross 0.8; hysteresis demands 2 consecutive
	// breaches, so the fire lands on the second burst evaluation at the
	// earliest and everything fires within a few more.
	fired := 0
	for i := 0; i < 6 && fired == 0; i++ {
		stepValue(t, sys, 0.9)
		for _, ev := range mustEvaluate(t, engine, sys) {
			if ev.State != StateFiring || ev.Rule != "util-high" {
				t.Fatalf("unexpected event %+v", ev)
			}
			if i == 0 {
				t.Fatalf("fired on first breach despite fire_streak=2: %+v", ev)
			}
			fired++
		}
	}
	if fired == 0 {
		t.Fatal("burst never fired the cluster rule")
	}
	if got := len(engine.Active()); got != fired {
		t.Fatalf("Active reports %d instances, %d fired", got, fired)
	}

	// Subside: every firing instance must resolve (0.2 < 0.8 - 0.05).
	resolved := 0
	for i := 0; i < 10 && resolved < fired; i++ {
		stepValue(t, sys, 0.2)
		for _, ev := range mustEvaluate(t, engine, sys) {
			if ev.State != StateResolved {
				t.Fatalf("unexpected event during subsidence %+v", ev)
			}
			resolved++
		}
	}
	if resolved != fired {
		t.Fatalf("resolved %d of %d fired instances", resolved, fired)
	}
	if len(engine.Active()) != 0 {
		t.Fatalf("instances still firing after subsidence: %+v", engine.Active())
	}

	st := engine.Stats()
	if st.Fires != int64(fired) || st.Resolves != int64(resolved) || st.Firing != 0 {
		t.Fatalf("stats %+v disagree with fired=%d resolved=%d", st, fired, resolved)
	}
	if st.Sinks.Delivered != int64(len(collector.Events())) || st.Sinks.Delivered != st.Fires+st.Resolves {
		t.Fatalf("sink accounting %+v, want every transition delivered", st.Sinks)
	}
}

func TestEngineEvaluateIdempotentPerGeneration(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 3, nil)
	engine, err := New(Config{Rules: &RuleSet{StepsPerHour: 1, Rules: []Rule{{
		Name: "hot", Kind: KindThreshold, Scope: ScopeCluster, Cluster: -1,
		Above: true, Threshold: 0.5, FireStreak: 1, ClearStreak: 1, Horizon: 1,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		stepValue(t, sys, 0.9)
	}
	first := mustEvaluate(t, engine, sys)
	if len(first) == 0 {
		t.Fatal("breaching snapshot produced no events with fire_streak=1")
	}
	before := engine.Stats()
	if again := mustEvaluate(t, engine, sys); len(again) != 0 {
		t.Fatalf("re-evaluating the same generation produced events %+v", again)
	}
	if after := engine.Stats(); after != before {
		t.Fatalf("re-evaluation moved counters: %+v -> %+v", before, after)
	}
}

func TestEngineNodeRuleSkipsWarmingJoiner(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 3, nil)
	engine, err := New(Config{Rules: &RuleSet{StepsPerHour: 1, Rules: []Rule{{
		Name: "node-hot", Kind: KindThreshold, Scope: ScopeNode,
		Above: true, Threshold: 0.8, FireStreak: 1, ClearStreak: 1, Horizon: 2,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		stepValue(t, sys, 0.2)
		mustEvaluate(t, engine, sys)
	}
	// A joiner warms up behind the presence mask: until its first stored
	// measurement enters the look-back window its forecast rows are NaN, and
	// the engine must count skips instead of creating (let alone firing) an
	// instance for it. A nil row means "no report this step".
	if err := sys.AddNodes(99); err != nil {
		t.Fatal(err)
	}
	base := engine.Stats()
	roster := sys.Roster()
	x := make([][]float64, roster.Slots())
	for i := range x {
		if id, live := roster.IDAt(i); live && id != 99 {
			x[i] = []float64{0.2}
		}
	}
	if _, err := sys.Step(x); err != nil {
		t.Fatal(err)
	}
	if evs := mustEvaluate(t, engine, sys); len(evs) != 0 {
		t.Fatalf("warming joiner caused events %+v", evs)
	}
	st := engine.Stats()
	if st.NaNSkips <= base.NaNSkips {
		t.Fatalf("joiner's NaN row not counted as skip: %+v -> %+v", base, st)
	}
	if st.Fires != 0 {
		t.Fatalf("false fire under churn: %+v", st)
	}
}

func TestEngineDepartedNodeResolves(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 4, nil)
	engine, err := New(Config{Rules: &RuleSet{StepsPerHour: 1, Rules: []Rule{{
		Name: "node-hot", Kind: KindThreshold, Scope: ScopeNode,
		Above: true, Threshold: 0.8, FireStreak: 1, ClearStreak: 3, Horizon: 1,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Node 2 runs hot; the rest stay calm.
	hotStep := func() {
		roster := sys.Roster()
		x := make([][]float64, roster.Slots())
		for i := range x {
			id, live := roster.IDAt(i)
			if !live {
				continue
			}
			v := 0.2
			if id == 2 {
				v = 0.95
			}
			x[i] = []float64{v}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	firing := false
	for i := 0; i < 12 && !firing; i++ {
		hotStep()
		for _, ev := range mustEvaluate(t, engine, sys) {
			if ev.State == StateFiring && ev.Node == 2 {
				firing = true
			}
		}
	}
	if !firing {
		t.Fatal("hot node never fired")
	}
	if err := sys.RemoveNodes(2); err != nil {
		t.Fatal(err)
	}
	hotStep()
	var departed *Event
	for _, ev := range mustEvaluate(t, engine, sys) {
		ev := ev
		if ev.State == StateResolved && ev.Node == 2 {
			departed = &ev
		}
	}
	if departed == nil {
		t.Fatal("departure did not resolve the firing instance")
	}
	if departed.Reason != "departed" {
		t.Fatalf("departure resolve reason %q, want \"departed\"", departed.Reason)
	}
	if len(engine.Active()) != 0 {
		t.Fatalf("instances still firing after departure: %+v", engine.Active())
	}
}

func TestEngineTrendRuleFiresOnRamp(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 3, func(c *core.Config) {
		// Holt smoothing projects the ramp forward; sample-and-hold would
		// forecast flat and a trend rule could never see a slope.
		c.Zoo = forecast.Pinned(func() forecast.Model {
			m, err := forecast.NewHolt(0, 0, 0)
			if err != nil {
				panic(err)
			}
			return m
		})
	})
	engine, err := New(Config{Rules: &RuleSet{StepsPerHour: 100, Rules: []Rule{{
		Name: "ramping", Kind: KindTrend, Scope: ScopeCluster, Cluster: -1,
		Above: true, Threshold: 0.2, FireStreak: 2, ClearStreak: 2,
		ClearMargin: 0.05, Horizon: 4,
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Ramp at 0.005/step: the per-hour slope at 100 steps/hour is ~0.5,
	// clearing the 0.2 threshold once Holt locks onto the trend.
	fired := false
	v := 0.1
	for i := 0; i < 30 && !fired; i++ {
		stepValue(t, sys, v)
		v += 0.005
		for _, ev := range mustEvaluate(t, engine, sys) {
			if ev.State == StateFiring {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("trend rule never fired on a sustained ramp")
	}
	// Plateau: the estimated slope decays toward zero and the alert resolves.
	resolved := false
	for i := 0; i < 80 && !resolved; i++ {
		stepValue(t, sys, v)
		for _, ev := range mustEvaluate(t, engine, sys) {
			if ev.State == StateResolved {
				resolved = true
			}
		}
	}
	if !resolved {
		t.Fatal("trend rule never resolved on the plateau")
	}
}

// TestEvaluateEventOrder pins the order Evaluate documents on a case where
// each part of it differs from "by target ID": rule "z-high" comes before
// "a-high" in the rule set but after it by name, and member 100 joins into
// the recycled slot 1 ahead of member 2 in slot 2. The forecast events come
// rule by rule in rule-set order and, within a node-scope rule, by slot —
// 100 before 2 — and the departure resolves of members 1 and 3 come after
// all of them, by rule name, then node ID.
func TestEvaluateEventOrder(t *testing.T) {
	t.Parallel()
	sys := newTestSystem(t, 4, nil)
	rule := func(name string) Rule {
		return Rule{Name: name, Kind: KindThreshold, Scope: ScopeNode, Horizon: 1,
			Above: true, Threshold: 0.5, FireStreak: 1, ClearStreak: 1}
	}
	engine, err := New(Config{
		Rules:      &RuleSet{StepsPerHour: 1, Rules: []Rule{rule("z-high"), rule("a-high")}},
		MaxHorizon: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	// step reports 0.9 for the members in high and 0.2 for the others.
	step := func(high ...int) {
		roster := sys.Roster()
		x := make([][]float64, roster.Slots())
		for slot := range x {
			if id, live := roster.IDAt(slot); live {
				x[slot] = []float64{0.2}
				if slices.Contains(high, id) {
					x[slot][0] = 0.9
				}
			}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		step(1, 3)
		mustEvaluate(t, engine, sys)
	}
	if got := engine.Stats().Firing; got != 4 {
		t.Fatalf("%d instances firing after the warm-up, want members 1 and 3 under both rules", got)
	}
	if err := sys.RemoveNodes(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddNodes(100); err != nil {
		t.Fatal(err)
	}
	if slot, _ := sys.Roster().SlotOf(100); slot != 1 {
		t.Fatalf("member 100 joined into slot %d, want the recycled slot 1", slot)
	}
	for range 5 {
		step(2, 100)
	}
	type key struct {
		rule, state string
		node        int
		reason      string
	}
	want := []key{
		{"z-high", StateFiring, 100, ""}, {"z-high", StateFiring, 2, ""},
		{"a-high", StateFiring, 100, ""}, {"a-high", StateFiring, 2, ""},
		{"a-high", StateResolved, 1, "departed"}, {"a-high", StateResolved, 3, "departed"},
		{"z-high", StateResolved, 1, "departed"}, {"z-high", StateResolved, 3, "departed"},
	}
	var got []key
	for _, ev := range mustEvaluate(t, engine, sys) {
		got = append(got, key{ev.Rule, ev.State, ev.Node, ev.Reason})
	}
	if !slices.Equal(got, want) {
		t.Fatalf("events\n got %v\nwant %v", got, want)
	}
}
