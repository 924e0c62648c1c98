package alert

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/trace"
)

// zooRules is the repository benchmark's zoo_durable rule set (copied from
// bench/orcfbench/zoo.go, which the benchmark owns): a threshold and a trend
// rule at each scope, the trend rules with no clear margin.
const zooRules = `{"steps_per_hour": 12, "rules": [
 {"name": "cluster-high", "kind": "threshold", "scope": "cluster", "horizon": 6,
  "above": true, "threshold": 0.6, "clear_margin": 0.02},
 {"name": "node-high", "kind": "threshold", "scope": "node", "horizon": 6,
  "above": true, "threshold": 0.8, "clear_margin": 0.02},
 {"name": "cluster-ramp", "kind": "trend", "scope": "cluster", "horizon": 12,
  "above": true, "threshold": 0.05},
 {"name": "node-ramp", "kind": "trend", "scope": "node", "horizon": 12,
  "above": true, "threshold": 0.1}]}`

// zooTrace replays what the repository benchmark feeds zoo_durable at seed
// 7: its trace generator's fixed scenario (seed 1) over a pool of n + n/4
// machines, of which the seed draws n in a random slot order, for steps
// steps. Rows are views into one step's pool rows.
func zooTrace(tb testing.TB, n, steps int) [][][]float64 {
	tb.Helper()
	pool := n + n/4
	ds, err := trace.Generate(trace.GeneratorConfig{Name: "orcfbench", Nodes: pool, Steps: steps, Resources: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	fleet := rand.New(rand.NewPCG(7, 0x6f726366)).Perm(pool)[:n]
	rows := make([][][]float64, steps)
	for t := range rows {
		rows[t] = make([][]float64, n)
		for i, machine := range fleet {
			rows[t][i] = ds.Data[t][machine]
		}
	}
	return rows
}

// zooEngine parses zooRules into an engine.
func zooEngine(tb testing.TB) *Engine {
	tb.Helper()
	rules, err := ParseRules([]byte(zooRules))
	if err != nil {
		tb.Fatal(err)
	}
	e, err := New(Config{Rules: rules, MaxHorizon: 12})
	if err != nil {
		tb.Fatal(err)
	}
	return e
}

// dwellBuckets are the upper edges (in steps) of the fire → resolve dwell
// histogram; with the default streaks of 3 no instance resolves sooner than
// 3 steps after it fired.
var dwellBuckets = []int{3, 5, 10, 25, 100}

// bucketName names dwell bucket b of dwellBuckets (the last is open).
func bucketName(b int) string {
	switch {
	case b == len(dwellBuckets):
		return fmt.Sprintf(">%d", dwellBuckets[b-1])
	case b == 0:
		return fmt.Sprintf("%d", dwellBuckets[0])
	default:
		return fmt.Sprintf("%d-%d", dwellBuckets[b-1]+1, dwellBuckets[b])
	}
}

// TestZooAlertEventClasses classifies the events zoo_durable's four rules
// raise on the benchmark's trace at seed 7, with its pipeline configuration (a
// five-family zoo refitting every 25 steps on a 200-step window, K = 3,
// d = 2): per rule the fires and resolves, the dwell between an instance's
// fire and its resolve, how many fires re-fire an instance that fired
// before, and the largest number of one rule's fires in one generation. The
// counts and the dwell histogram are pinned; they change only if the
// forecasts or the alert semantics do. N = 512 with 925 steps (the 37
// epochs of a traced --seconds 5 run) evaluated after 950 of warm-up, as in
// the benchmark; under -short N = 64 with 450 evaluated after 250.
func TestZooAlertEventClasses(t *testing.T) {
	t.Parallel()
	// The benchmark's windows: four diurnal days of trace, 950 steps of
	// warm-up (set-up and crash recovery), then 37 epochs of 25 steps.
	const traceSteps = 1152
	n, warm, evaluated, want := 512, 950, 925, zooClassesFull
	if testing.Short() {
		n, warm, evaluated, want = 64, 250, 450, zooClassesShort
	}
	zoo, err := forecast.Zoo("sample-and-hold", "ses", "holt", "ar", "arima")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		Nodes: n, Resources: 2, K: 3, InitialCollection: 200, RetrainEvery: 25,
		FitWindow: 200, Zoo: zoo, SnapshotHorizon: 12, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	engine := zooEngine(t)
	type inst struct {
		rule   string
		target int
	}
	firedAt := map[inst]int{}
	everFired := map[inst]bool{}
	got := zooClasses{Rules: map[string]ruleClass{}, Dwell: map[string]int{}}
	data := zooTrace(t, n, traceSteps)
	for step := 0; step < warm+evaluated; step++ {
		// Past its end the trace is walked backwards, as the benchmark does.
		at := step % (2 * traceSteps)
		if at >= traceSteps {
			at = 2*traceSteps - 1 - at
		}
		if _, err := sys.Step(data[at]); err != nil {
			t.Fatal(err)
		}
		if step < warm {
			continue
		}
		events := mustEvaluate(t, engine, sys)
		perRule := map[string]int{}
		for _, ev := range events {
			key := inst{ev.Rule, ev.Node}
			if ev.Scope == ScopeCluster {
				key.target = ev.Cluster
			}
			c := got.Rules[ev.Rule]
			switch ev.State {
			case StateFiring:
				c.Fires++
				perRule[ev.Rule]++
				if everFired[key] {
					c.Refires++
				}
				everFired[key], firedAt[key] = true, ev.Step
			case StateResolved:
				c.Resolves++
				dwell := ev.Step - firedAt[key]
				b, _ := slices.BinarySearch(dwellBuckets, dwell)
				got.Dwell[bucketName(b)]++
			}
			got.Rules[ev.Rule] = c
		}
		for rule, fires := range perRule {
			c := got.Rules[rule]
			c.MaxFiresPerStep = max(c.MaxFiresPerStep, fires)
			got.Rules[rule] = c
		}
	}
	got.Firing = engine.Stats().Firing
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("N=%d event classes\n got %#v\nwant %#v", n, got, want)
	}
}

// ruleClass is one rule's row of the classification.
type ruleClass struct {
	Fires, Resolves, Refires, MaxFiresPerStep int
}

// zooClasses is the classification TestZooAlertEventClasses pins: a row per
// rule that raised an event, the dwell histogram over every resolve, and the
// instances still firing at the end.
type zooClasses struct {
	Rules  map[string]ruleClass
	Dwell  map[string]int
	Firing int
}

var (
	// 1573 events, the benchmark's alert.events for seed 7 traced at
	// --seconds 5 (37 epochs).
	zooClassesFull = zooClasses{
		Rules: map[string]ruleClass{
			"cluster-high": {Fires: 6, Resolves: 5, Refires: 4, MaxFiresPerStep: 1},
			"cluster-ramp": {Fires: 5, Resolves: 5, Refires: 2, MaxFiresPerStep: 1},
			"node-high":    {Fires: 825, Resolves: 727, Refires: 533, MaxFiresPerStep: 16},
		},
		Dwell:  map[string]int{"3": 32, "4-5": 113, "6-10": 246, "11-25": 157, "26-100": 149, ">100": 40},
		Firing: 99,
	}
	zooClassesShort = zooClasses{
		Rules: map[string]ruleClass{
			"cluster-high": {Fires: 6, Resolves: 5, Refires: 4, MaxFiresPerStep: 1},
			"cluster-ramp": {Fires: 1, Resolves: 1, Refires: 0, MaxFiresPerStep: 1},
			"node-high":    {Fires: 45, Resolves: 45, Refires: 22, MaxFiresPerStep: 8},
		},
		Dwell:  map[string]int{"3": 2, "4-5": 6, "6-10": 14, "11-25": 11, "26-100": 15, ">100": 3},
		Firing: 1,
	}
)

// BenchmarkAlertEvaluate times Engine.Evaluate with zoo_durable's four rules
// on a trained fleet of N members and reports ns per slot. The fleet steps
// through 16 generations once; the timed loop then replays them in turn, with
// the generation guard reset, so every evaluation walks the whole fleet with
// the instances in steady state, as a tick does when the membership holds.
func BenchmarkAlertEvaluate(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			sys, err := core.NewSystem(core.Config{
				Nodes: n, Resources: 2, K: 3, InitialCollection: 20, SnapshotHorizon: 12, Seed: 1, Workers: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			var snaps []*core.Snapshot
			for step, x := range zooTrace(b, n, 40) {
				if _, err := sys.Step(x); err != nil {
					b.Fatal(err)
				}
				if step >= 24 {
					snaps = append(snaps, sys.Snapshot())
				}
			}
			engine := zooEngine(b)
			i := 0
			for b.Loop() {
				engine.lastGen = 0
				if _, err := engine.Evaluate(snaps[i%len(snaps)]); err != nil {
					b.Fatal(err)
				}
				i++
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/slot")
		})
	}
}
