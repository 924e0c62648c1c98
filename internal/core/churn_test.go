package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"orcf/internal/forecast"
)

// churnConfig is the shared elastic-fleet test configuration: small fleet,
// short schedules, deterministic SES models.
// isMember reports whether a stable ID is currently a live member of s.
func isMember(s *System, id int) bool {
	_, ok := s.byID[id]
	return ok
}

func churnConfig(nodes int) Config {
	return Config{
		Nodes:             nodes,
		Resources:         2,
		K:                 3,
		MPrime:            4,
		InitialCollection: 12,
		RetrainEvery:      8,
		Seed:              11,
		Zoo: forecast.Pinned(func() forecast.Model {
			m, err := forecast.NewSES(0.3)
			if err != nil {
				panic(err)
			}
			return m
		}),
	}
}

// churnValue is the deterministic measurement of (stable ID, step, resource).
func churnValue(id, step, r int) float64 {
	v := 0.5 + 0.35*math.Sin(float64(step)*0.21+float64(id)*0.9+float64(r)*1.7)
	return math.Min(1, math.Max(0, v))
}

func churnRow(id, step, resources int) []float64 {
	x := make([]float64, resources)
	for r := range x {
		x[r] = churnValue(id, step, r)
	}
	return x
}

// stepFleet builds one step's input from the live roster, skipping IDs in
// silent, and steps the system.
func stepFleet(t *testing.T, sys *System, step int, silent map[int]bool) *StepResult {
	t.Helper()
	roster := sys.Roster()
	x := make([][]float64, roster.Slots())
	for i := 0; i < roster.Slots(); i++ {
		id, live := roster.IDAt(i)
		if !live || silent[id] {
			continue
		}
		x[i] = churnRow(id, step, 2)
	}
	res, err := sys.Step(x)
	if err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	return res
}

// forecastBits compares two forecast tensors bit-for-bit, treating NaN as
// equal to NaN (the warm-up mask must appear identically in both).
func forecastBits(t *testing.T, a, b [][][]float64, what string, step int) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s step %d: %d vs %d horizons", what, step, len(a), len(b))
	}
	for hi := range a {
		if len(a[hi]) != len(b[hi]) {
			t.Fatalf("%s step %d h%d: %d vs %d nodes", what, step, hi, len(a[hi]), len(b[hi]))
		}
		for i := range a[hi] {
			for r := range a[hi][i] {
				if math.Float64bits(a[hi][i][r]) != math.Float64bits(b[hi][i][r]) {
					t.Fatalf("%s step %d: node %d h%d r%d: %v vs %v",
						what, step, i, hi, r, a[hi][i][r], b[hi][i][r])
				}
			}
		}
	}
}

// TestJoinAtTMatchesAlwaysPresent is the churn-invariant property of the
// tentpole: a node that joins the fleet at step T must behave bit-
// identically to a node that was a member from the start but silent until T
// — same clustering, same step results, and the same forecasts once (and
// before, via the NaN mask) its look-back window fills. This is what makes
// "join" purely additive: the rest of the fleet cannot tell the difference.
func TestJoinAtTMatchesAlwaysPresent(t *testing.T) {
	t.Parallel()
	const joinT, last, joiner = 17, 45, 100

	late, err := NewSystem(churnConfig(6))
	if err != nil {
		t.Fatalf("late system: %v", err)
	}
	early, err := NewSystem(churnConfig(6))
	if err != nil {
		t.Fatalf("early system: %v", err)
	}
	if err := early.AddNodes(joiner); err != nil {
		t.Fatalf("early join: %v", err)
	}

	for step := 1; step <= last; step++ {
		if step == joinT {
			if err := late.AddNodes(joiner); err != nil {
				t.Fatalf("late join at %d: %v", step, err)
			}
		}
		silentEarly := map[int]bool{}
		if step < joinT {
			silentEarly[joiner] = true // member from step 1, but never reports
		}
		resLate := stepFleet(t, late, step, nil)
		resEarly := stepFleet(t, early, step, silentEarly)

		if step >= joinT {
			// From the join on, the two runs must agree on everything —
			// including the joiner's warm-up trajectory.
			if !reflect.DeepEqual(resLate.PerResource, resEarly.PerResource) {
				t.Fatalf("step %d: clustering outcomes diverge", step)
			}
			if !reflect.DeepEqual(resLate.Present, resEarly.Present) {
				t.Fatalf("step %d: presence masks diverge: %v vs %v",
					step, resLate.Present, resEarly.Present)
			}
			if late.Ready() != early.Ready() {
				t.Fatalf("step %d: readiness diverges", step)
			}
			if late.Ready() {
				fl, err := late.Forecast(3)
				if err != nil {
					t.Fatalf("late forecast at %d: %v", step, err)
				}
				fe, err := early.Forecast(3)
				if err != nil {
					t.Fatalf("early forecast at %d: %v", step, err)
				}
				forecastBits(t, fl, fe, "join-at-T", step)
			}
		}
	}

	// The joiner ends up forecastable (its window filled) and its slot is
	// the appended one in both runs.
	slotL, okL := late.SlotOf(joiner)
	slotE, okE := early.SlotOf(joiner)
	if !okL || !okE || slotL != slotE || slotL != 6 {
		t.Fatalf("joiner slots: late %d/%v early %d/%v", slotL, okL, slotE, okE)
	}
	f, err := late.Forecast(2)
	if err != nil {
		t.Fatalf("final forecast: %v", err)
	}
	if math.IsNaN(f[0][slotL][0]) {
		t.Fatal("joiner still NaN-masked after its window filled")
	}
}

// TestEvictRejoinStartsFresh pins the eviction/rejoin semantics: a member
// that goes silent past the absence timeout is evicted at exactly the right
// step, keeps its stable ID retired until it rejoins, and a rejoin behaves
// bit-identically to a brand-new node joining at the same step — stale
// history is never resurrected even though the dense slot is recycled.
func TestEvictRejoinStartsFresh(t *testing.T) {
	t.Parallel()
	const silentFrom, timeout, rejoinAt, last = 20, 5, 35, 60
	const victim, freshID = 2, 999

	cfg := churnConfig(6)
	cfg.AbsenceTimeout = timeout
	rejoin, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("rejoin system: %v", err)
	}
	control, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("control system: %v", err)
	}

	evictStep := silentFrom + timeout - 1
	feed := func(sys *System, step int, comeback int) *StepResult {
		silent := map[int]bool{}
		if step >= silentFrom && step < rejoinAt && isMember(sys, victim) {
			silent[victim] = true
		}
		if step == rejoinAt {
			if err := sys.AddNodes(comeback); err != nil {
				t.Fatalf("step %d: add %d: %v", step, comeback, err)
			}
		}
		// Feed the comeback node the same values in both runs (keyed by a
		// shared synthetic ID so the runs agree despite different IDs).
		roster := sys.Roster()
		x := make([][]float64, roster.Slots())
		for i := 0; i < roster.Slots(); i++ {
			id, live := roster.IDAt(i)
			if !live || silent[id] {
				continue
			}
			vid := id
			if id == comeback && step >= rejoinAt {
				vid = 7777
			}
			x[i] = churnRow(vid, step, 2)
		}
		res, err := sys.Step(x)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		return res
	}

	for step := 1; step <= last; step++ {
		resR := feed(rejoin, step, victim)
		resC := feed(control, step, freshID)

		if step == evictStep {
			if len(resR.Evicted) != 1 || resR.Evicted[0] != victim {
				t.Fatalf("step %d: rejoin run evicted %v, want [%d]", step, resR.Evicted, victim)
			}
			if len(resC.Evicted) != 1 || resC.Evicted[0] != victim {
				t.Fatalf("step %d: control run evicted %v, want [%d]", step, resC.Evicted, victim)
			}
		} else if len(resR.Evicted) != 0 || len(resC.Evicted) != 0 {
			t.Fatalf("step %d: unexpected evictions %v / %v", step, resR.Evicted, resC.Evicted)
		}
		if step > evictStep && step < rejoinAt {
			if isMember(rejoin, victim) {
				t.Fatalf("step %d: victim still a member after eviction", step)
			}
		}

		// The two runs differ only in the comeback node's stable ID; every
		// dense outcome must be bit-identical — in particular the recycled
		// slot carries no trace of the victim's pre-eviction history.
		if !reflect.DeepEqual(resR.PerResource, resC.PerResource) {
			t.Fatalf("step %d: clustering diverges between rejoin and fresh-ID runs", step)
		}
		if rejoin.Ready() && control.Ready() {
			fr, err := rejoin.Forecast(3)
			if err != nil {
				t.Fatalf("rejoin forecast at %d: %v", step, err)
			}
			fc, err := control.Forecast(3)
			if err != nil {
				t.Fatalf("control forecast at %d: %v", step, err)
			}
			forecastBits(t, fr, fc, "evict-rejoin", step)
		}
	}

	// The rejoined member reused the victim's slot under its stable ID.
	slot, ok := rejoin.SlotOf(victim)
	if !ok || slot != 2 {
		t.Fatalf("rejoined victim at slot %d (ok=%v), want recycled slot 2", slot, ok)
	}
	if got := rejoin.Evictions(); got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
}

// TestEvictionDefersAtKFloor pins the mass-outage behavior: evictions
// never shrink the clustered set below K. When every member goes silent,
// the fleet degrades to K retained members serving last-known values (the
// pipeline keeps stepping instead of failing), and the deferred evictions
// fire as soon as replacements report.
func TestEvictionDefersAtKFloor(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(5)
	cfg.AbsenceTimeout = 2
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("system: %v", err)
	}
	all := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true}
	for step := 1; step <= 5; step++ {
		stepFleet(t, sys, step, nil)
	}
	// Everyone goes dark. At the timeout only 5-K=2 members may depart;
	// the rest are retained at the K floor and the system keeps stepping.
	evicted := 0
	for step := 6; step <= 12; step++ {
		res := stepFleet(t, sys, step, all)
		evicted += len(res.Evicted)
		if sys.LiveNodes() < cfg.K {
			t.Fatalf("step %d: live members %d < K=%d", step, sys.LiveNodes(), cfg.K)
		}
	}
	if evicted != 2 || sys.LiveNodes() != cfg.K {
		t.Fatalf("evicted %d with %d live, want 2 evicted / %d live (K floor)", evicted, sys.LiveNodes(), cfg.K)
	}
	// Replacements report: the deferred evictions fire as presence allows.
	if err := sys.AddNodes(70, 71, 72); err != nil {
		t.Fatalf("replacements: %v", err)
	}
	for step := 13; step <= 18; step++ {
		res := stepFleet(t, sys, step, all)
		evicted += len(res.Evicted)
	}
	if evicted != 5 {
		t.Fatalf("lifetime evictions %d, want all 5 originals gone once replacements reported", evicted)
	}
	if sys.LiveNodes() != 3 {
		t.Fatalf("live members %d, want the 3 replacements", sys.LiveNodes())
	}
}

// TestChurnRestoreContinuesBitIdentically is the durability half of the
// churn invariant: exporting mid-churn (tombstones, a recycled slot, a
// warming joiner) and restoring into a system constructed with a different
// fleet size must continue bit-identically with the recorded roster.
func TestChurnRestoreContinuesBitIdentically(t *testing.T) {
	t.Parallel()
	const last = 70
	cfg := churnConfig(6)
	cfg.AbsenceTimeout = 4
	cfg.SnapshotHorizon = 3

	type event struct{ step, add int }
	joins := []event{{step: 15, add: 50}, {step: 40, add: 51}}
	silentFrom := 25 // node 1 goes dark → evicted at 28

	run := func(sys *System, from, to int, exports map[int]*State) {
		for step := from; step <= to; step++ {
			for _, ev := range joins {
				if ev.step == step {
					if err := sys.AddNodes(ev.add); err != nil {
						t.Fatalf("step %d: add: %v", step, err)
					}
				}
			}
			silent := map[int]bool{}
			if step >= silentFrom && isMember(sys, 1) {
				silent[1] = true
			}
			stepFleet(t, sys, step, silent)
			if exports != nil {
				if _, want := exports[step]; want {
					st, err := sys.ExportState()
					if err != nil {
						t.Fatalf("export at %d: %v", step, err)
					}
					exports[step] = st
				}
			}
		}
	}

	exports := map[int]*State{18: nil, 29: nil, 42: nil, 55: nil}
	ref, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	run(ref, 1, last, exports)
	refForecast, err := ref.Forecast(3)
	if err != nil {
		t.Fatalf("reference forecast: %v", err)
	}

	for at, st := range exports {
		resized := cfg
		resized.Nodes = 3 // deliberately different construction-time fleet
		sys, err := NewSystem(resized)
		if err != nil {
			t.Fatalf("restore target: %v", err)
		}
		if err := sys.RestoreState(st); err != nil {
			t.Fatalf("restore at %d: %v", at, err)
		}
		if sys.Steps() != at {
			t.Fatalf("restored to step %d, want %d", sys.Steps(), at)
		}
		run(sys, at+1, last, nil)
		f, err := sys.Forecast(3)
		if err != nil {
			t.Fatalf("restored forecast (export %d): %v", at, err)
		}
		forecastBits(t, f, refForecast, "churn-restore", at)
		if want, got := ref.Members(), sys.Members(); !reflect.DeepEqual(want, got) {
			t.Fatalf("export %d: members %v, want %v", at, got, want)
		}
	}
}

// TestChurnConcurrentWithSnapshotQueries runs membership changes and steps
// on the ingest goroutine while reader goroutines hammer the published
// snapshots (forecasts, roster lookups, per-slot accessors). Under -race
// this pins the immutability contract of snapshots across churn: recycled
// slots force a window rebuild instead of mutating shared slots.
func TestChurnConcurrentWithSnapshotQueries(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(8)
	cfg.AbsenceTimeout = 3
	cfg.SnapshotHorizon = 4
	cfg.InitialCollection = 5
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatalf("system: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := sys.Snapshot()
				if snap == nil {
					continue
				}
				roster := snap.Roster()
				for i := 0; i < snap.Nodes(); i++ {
					roster.IDAt(i)
					snap.Latest(i)
					snap.WindowFill(i)
					snap.Assignment(0, i)
				}
				if snap.Ready() {
					if _, err := snap.Forecast(2); err != nil {
						t.Errorf("snapshot forecast: %v", err)
						return
					}
				}
			}
		}()
	}

	nextID := 200
	silent := map[int]bool{}
	for step := 1; step <= 120; step++ {
		switch {
		case step%15 == 0: // join a fresh node
			if err := sys.AddNodes(nextID); err != nil {
				t.Fatalf("step %d: add: %v", step, err)
			}
			nextID++
		case step%15 == 7: // silence the newest member → timeout eviction
			if sys.LiveNodes() > cfg.K+1 {
				members := sys.Members()
				silent[members[len(members)-1]] = true
			}
		case step%15 == 11: // administrative removal
			if sys.LiveNodes() > cfg.K+1 {
				members := sys.Members()
				if err := sys.RemoveNodes(members[len(members)-1]); err != nil {
					t.Fatalf("step %d: remove: %v", step, err)
				}
				delete(silent, members[len(members)-1])
			}
		}
		res := stepFleet(t, sys, step, silent)
		for _, id := range res.Evicted {
			delete(silent, id)
		}
	}
	close(stop)
	wg.Wait()
}
