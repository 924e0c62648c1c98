package core

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"orcf/internal/forecast"
)

// snapshotView is everything a reader can ask a snapshot about its slots —
// the forecast up to MaxHorizon (nil before training), Latest, every
// tracker's Assignment, Present and WindowFill — with floats as bits, so
// that reflect.DeepEqual compares bitwise and NaN equals NaN.
type snapshotView struct {
	forecast [][][]uint64
	latest   [][]uint64
	assign   [][]int
	present  []bool
	fill     []int
}

func viewOf(t *testing.T, sn *Snapshot) snapshotView {
	t.Helper()
	var v snapshotView
	if sn.Ready() {
		f, err := sn.Forecast(sn.MaxHorizon())
		if err != nil {
			t.Fatal(err)
		}
		v.forecast = make([][][]uint64, len(f))
		for hi := range f {
			v.forecast[hi] = make([][]uint64, len(f[hi]))
			for i, row := range f[hi] {
				v.forecast[hi][i] = floatBits(row)
			}
		}
	}
	for slot := 0; slot < sn.Nodes(); slot++ {
		v.latest = append(v.latest, floatBits(sn.Latest(slot)))
		a := make([]int, sn.Trackers())
		for tr := range a {
			a[tr] = sn.Assignment(tr, slot)
		}
		v.assign = append(v.assign, a)
		v.present = append(v.present, sn.Present(slot))
		v.fill = append(v.fill, sn.WindowFill(slot))
	}
	return v
}

// diff names the reads on which v and w differ.
func (v snapshotView) diff(w snapshotView) []string {
	var reads []string
	for _, r := range []struct {
		name string
		same bool
	}{
		{"Forecast", reflect.DeepEqual(v.forecast, w.forecast)},
		{"Latest", reflect.DeepEqual(v.latest, w.latest)},
		{"Assignment", reflect.DeepEqual(v.assign, w.assign)},
		{"Present", reflect.DeepEqual(v.present, w.present)},
		{"WindowFill", reflect.DeepEqual(v.fill, w.fill)},
	} {
		if !r.same {
			reads = append(reads, r.name)
		}
	}
	return reads
}

func floatBits(row []float64) []uint64 {
	if row == nil {
		return nil
	}
	bits := make([]uint64, len(row))
	for i, x := range row {
		bits[i] = math.Float64bits(x)
	}
	return bits
}

// TestSnapshotOutlivesItsWindow pins what a held snapshot promises: read
// after 3·(M′+1) further steps — long enough for the ring to overwrite every
// slot the snapshot was built from, with a member evicted and its slot handed
// to a joiner every M′+1 steps — a generation-g snapshot returns bitwise what
// it returned at g: Forecast(H), Latest, Assignment, Present and WindowFill
// of every slot.
func TestSnapshotOutlivesItsWindow(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(8)
	cfg.SnapshotHorizon = 4
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	step := 0
	for step < 20 || !sys.Ready() {
		step++
		stepFleet(t, sys, step, nil)
	}
	held := sys.Snapshot()
	want := viewOf(t, held)

	window := cfg.MPrime + 1
	joiner := 100
	recycled := 0
	for k := 0; k < 3*window; k++ {
		if k%window == 0 {
			victim := sys.Members()[k/window]
			slot, _ := sys.Roster().SlotOf(victim)
			if err := sys.RemoveNodes(victim); err != nil {
				t.Fatal(err)
			}
			if err := sys.AddNodes(joiner); err != nil {
				t.Fatal(err)
			}
			if got, _ := sys.Roster().SlotOf(joiner); got == slot {
				recycled++
			}
			joiner++
		}
		step++
		stepFleet(t, sys, step, nil)
	}
	if recycled != 3 {
		t.Fatalf("scenario lost coverage: %d of 3 joiners took the slot just freed", recycled)
	}
	if live := sys.Snapshot(); live.Generation() != held.Generation()+uint64(3*window) {
		t.Fatalf("generation %d after %d steps past %d", live.Generation(), 3*window, held.Generation())
	} else if len(viewOf(t, live).diff(want)) == 0 {
		t.Fatal("scenario lost coverage: the live snapshot reads like the held one")
	}
	if d := viewOf(t, held).diff(want); len(d) > 0 {
		t.Fatalf("held snapshot of generation %d changed under later steps: %v", held.Generation(), d)
	}
}

// TestWindowFillMatchesRingPresence checks WindowFill against its definition
// at every step, before and after training: the number of the System's
// look-back ring slots that mark the slot present, and 0 outside [0, Nodes).
func TestWindowFillMatchesRingPresence(t *testing.T) {
	t.Parallel()
	fleets := []struct {
		name  string
		drive func(t *testing.T, cfg Config, visit func(step int, sys *System))
	}{{"churn", oracleFleet}, {"grown", grownFleet}}
	for _, fleet := range fleets {
		t.Run(fleet.name, func(t *testing.T) {
			t.Parallel()
			cfg := churnConfig(8)
			cfg.SnapshotHorizon = 3
			sawUntrained, sawTrained, sawPartial := false, false, false
			fleet.drive(t, cfg, func(step int, sys *System) {
				snap := sys.Snapshot()
				sawUntrained = sawUntrained || !snap.Ready()
				sawTrained = sawTrained || snap.Ready()
				for slot := -1; slot <= snap.Nodes(); slot++ {
					want := 0
					if slot >= 0 && slot < snap.Nodes() {
						for ago := 0; ago < sys.ringLen; ago++ {
							if sys.snapAt(ago).present[slot] {
								want++
							}
						}
					}
					got := snap.WindowFill(slot)
					if got != want {
						t.Fatalf("step %d: WindowFill(%d) = %d, the ring marks it present at %d steps", step, slot, got, want)
					}
					sawPartial = sawPartial || (got > 0 && got < sys.ringLen)
				}
			})
			if !sawUntrained || !sawTrained || !sawPartial {
				t.Fatalf("scenario lost coverage: untrained %v, trained %v, partial fill %v",
					sawUntrained, sawTrained, sawPartial)
			}
		})
	}
}

// TestSnapshotRetainedHeapIndependentOfWindow pins that a published
// snapshot holds one look-back slot, not the window: the heap it alone keeps
// alive at N = 4096 is the same, within 10 %, at M′ = 5 and M′ = 40. It runs
// serially, so no other test's garbage lands between the two readings.
func TestSnapshotRetainedHeapIndependentOfWindow(t *testing.T) {
	const nodes = 4096
	retained := func(mPrime int) uint64 {
		sys, err := NewSystem(Config{
			Nodes: nodes, Resources: 2, K: 3, MPrime: mPrime, InitialCollection: 10,
			RetrainEvery: 1000, Policy: alwaysPolicy, Seed: 1, SnapshotHorizon: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(3, uint64(mPrime)))
		for step := 0; step < max(mPrime+1, 12); step++ {
			if _, err := sys.Step(noisyStep(rng, nodes)); err != nil {
				t.Fatal(err)
			}
		}
		snap := sys.Snapshot()
		if !snap.Ready() || snap.WindowFill(0) != mPrime+1 {
			t.Fatalf("M′=%d: snapshot ready %v with window fill %d, want a trained, full window",
				mPrime, snap.Ready(), snap.WindowFill(0))
		}
		sys = nil
		var with, without runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&with)
		runtime.KeepAlive(snap)
		snap = nil
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&without)
		return with.HeapAlloc - without.HeapAlloc
	}
	short, long := retained(5), retained(40)
	t.Logf("a published snapshot retains %d B at M′=5, %d B at M′=40", short, long)
	if ratio := float64(max(short, long)) / float64(min(short, long)); ratio > 1.1 {
		t.Fatalf("a published snapshot retains %d B at M′=5 and %d B at M′=40: %.2f× apart, want ≤ 1.1×",
			short, long, ratio)
	}
}

// TestSystemRetainedHeapPerWindowStep pins what a stepped System holds per
// step of the eq. (12) window at N = 4096 with the ring full, under scalar
// and joint clustering: going from M′ = 5 to M′ = 40 adds 35 look-back slots
// of the heap and nothing more, within 5 %. The store is the staged slot and
// the trackers keep M assignment rows, so no other per-slot array grows with
// M′. It runs serially, so no other test's garbage lands between readings.
func TestSystemRetainedHeapPerWindowStep(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow memory distorts heap readings")
	}
	const nodes, steps = 4096, 48
	for _, joint := range []bool{false, true} {
		var slotBytes uint64
		retained := func(mPrime int) uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			sys, err := NewSystem(Config{
				Nodes: nodes, Resources: 2, K: 3, MPrime: mPrime, InitialCollection: 10,
				RetrainEvery: 1000, Policy: alwaysPolicy, Seed: 1, JointClustering: joint,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewPCG(3, uint64(mPrime)))
			for step := 0; step < steps; step++ {
				if _, err := sys.Step(noisyStep(rng, nodes)); err != nil {
					t.Fatal(err)
				}
			}
			if sys.ringLen != mPrime+1 {
				t.Fatalf("M′=%d: ring holds %d steps, want a full window", mPrime, sys.ringLen)
			}
			slot := sys.snapAt(0)
			slotBytes = uint64(8*len(slot.z.f.Data()) + 8*len(slot.cents) + len(slot.present))
			for _, a := range slot.assignments {
				slotBytes += uint64(8 * len(a))
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(sys)
			return after.HeapAlloc - before.HeapAlloc
		}
		short, long := retained(5), retained(40)
		perStep := float64(long-short) / 35
		t.Logf("joint=%v: a stepped System retains %d B at M′=5, %d B at M′=40: %.0f B per window step, a look-back slot is %d B",
			joint, short, long, perStep, slotBytes)
		if ratio := perStep / float64(slotBytes); ratio < 0.95 || ratio > 1.05 {
			t.Fatalf("joint=%v: each window step adds %.0f B of heap, %.2f× a look-back slot's %d B",
				joint, perStep, ratio, slotBytes)
		}
	}
}

// failingModel is sample-and-hold whose Forecast fails while fail is set.
type failingModel struct {
	*forecast.SampleAndHold
	fail *atomic.Bool
}

var errForecastFailed = errors.New("forecast failed")

func (m failingModel) Forecast(h int) ([]float64, error) {
	if m.fail.Load() {
		return nil, errForecastFailed
	}
	return m.SampleAndHold.Forecast(h)
}

// TestFailedSnapshotForecastPublishesNothing pins the order of a publishing
// step: the centroid forecasts, which can fail, run before the ring commit,
// and the plan, which cannot, after it. A step whose centroid forecast fails
// leaves the published snapshot in place and the ring as it was, so planning
// the ring again reproduces the published plan bit for bit.
func TestFailedSnapshotForecastPublishesNothing(t *testing.T) {
	t.Parallel()
	var fail atomic.Bool
	cfg := churnConfig(8)
	cfg.SnapshotHorizon = 3
	cfg.Zoo = forecast.Pinned(func() forecast.Model { return failingModel{forecast.NewSampleAndHold(), &fail} })
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 20; step++ {
		stepFleet(t, sys, step, nil)
	}
	held := sys.Snapshot()
	if !held.Ready() {
		t.Fatal("not trained after 20 steps")
	}
	want := viewOf(t, held)
	head, ringLen := sys.head, sys.ringLen

	fail.Store(true)
	x := make([][]float64, sys.Slots())
	for i := range x {
		x[i] = churnRow(i, 21, 2)
	}
	if _, err := sys.Step(x); !errors.Is(err, errForecastFailed) {
		t.Fatalf("step with failing forecasts: err %v, want %v", err, errForecastFailed)
	}
	if sys.Snapshot() != held {
		t.Fatal("a failed step replaced the published snapshot")
	}
	if sys.head != head || sys.ringLen != ringLen {
		t.Fatalf("a failed step moved the ring: head/len %d/%d, was %d/%d", sys.head, sys.ringLen, head, ringLen)
	}
	if d := viewOf(t, held).diff(want); len(d) > 0 {
		t.Fatalf("a failed step changed the published snapshot: %v", d)
	}
	replanned := sys.reconEnv().plan(held.plan.cent, 1).tensor(held.MaxHorizon(), 1)
	published, err := held.Forecast(held.MaxHorizon())
	if err != nil {
		t.Fatal(err)
	}
	forecastBits(t, replanned, published, "ring replanned after a failed step", 21)
}

// TestRestoreRepublishesSameView restores the churning oracle fleet after
// every step — before training, across the recycled slots, the warming
// joiner and the tombstone — and checks that the republished snapshot reads
// exactly like the one the exporting system published: Forecast(H), Latest,
// Assignment, Present and WindowFill of every slot.
func TestRestoreRepublishesSameView(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(8)
	cfg.SnapshotHorizon = 3
	oracleFleet(t, cfg, func(step int, sys *System) {
		st, err := sys.ExportState()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := NewSystem(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.RestoreState(st); err != nil {
			t.Fatalf("step %d: restore: %v", step, err)
		}
		pre, post := sys.Snapshot(), restored.Snapshot()
		if post == nil || post.Generation() != pre.Generation() {
			t.Fatalf("step %d: republished %v, want generation %d", step, post, pre.Generation())
		}
		if d := viewOf(t, post).diff(viewOf(t, pre)); len(d) > 0 {
			t.Fatalf("step %d: republished snapshot differs in %v", step, d)
		}
	})
}
