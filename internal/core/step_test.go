package core

import (
	"errors"
	"math"
	"runtime"
	"slices"
	"testing"

	"orcf/internal/transmit"
)

// warmStepSystem builds a step_scalar-shaped system (d = 2, per-resource
// clustering, warm-started refits, adaptive policies) of n nodes with a cycle
// of smooth three-group inputs, and steps it past its start-up allocations.
func warmStepSystem(t testing.TB, n int) (*System, [][][]float64) {
	t.Helper()
	sys, err := NewSystem(Config{
		Nodes: n, Resources: 2, K: 3, InitialCollection: 1 << 20,
		IncrementalRefit: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([][][]float64, 16)
	for s := range inputs {
		inputs[s] = make([][]float64, n)
		for i := range inputs[s] {
			level := 0.2 + 0.3*float64(i%3)
			wave := 0.05 * math.Sin(float64(s)*math.Pi/8+float64(i))
			inputs[s][i] = []float64{level + wave, 1 - level - wave}
		}
	}
	for step := 0; step < 64; step++ {
		if _, err := sys.Step(inputs[step%len(inputs)]); err != nil {
			t.Fatal(err)
		}
	}
	return sys, inputs
}

// TestStepAllocations pins the steady state of a warm step: a small constant
// number of allocations (the result header, the K×K matchings, the ensemble's
// series appends) that does not grow with the fleet — nothing fleet-sized is
// allocated per step — and, since a warm step runs its trackers inline, does
// not grow with the pool width either. testing.AllocsPerRun measures at
// GOMAXPROCS 1; the same count is then read at GOMAXPROCS 2 from the
// runtime's malloc counter, where a fan-out would add its shared state and
// its worker's closure. Not parallel: it sets GOMAXPROCS.
func TestStepAllocations(t *testing.T) {
	const runs = 48
	perStep := func(n int) (serial, wide uint64) {
		sys, inputs := warmStepSystem(t, n)
		_, fullBefore := sys.RefitStats()
		step := 0
		stepOnce := func() {
			if _, err := sys.Step(inputs[step%len(inputs)]); err != nil {
				t.Fatal(err)
			}
			step++
		}
		serial = uint64(testing.AllocsPerRun(runs, stepOnce))
		setMaxProcs(t, 2)
		stepOnce() // as AllocsPerRun does, one warm-up run
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			stepOnce()
		}
		runtime.ReadMemStats(&after)
		if _, full := sys.RefitStats(); full != fullBefore {
			t.Fatalf("N=%d: %d measured steps fell back to a full refit; the warm path was not what ran", n, full-fullBefore)
		}
		return serial, (after.Mallocs - before.Mallocs) / runs
	}
	small, _ := perStep(256)
	large, wide := perStep(10000)
	t.Logf("allocations per warm step: %v at N=256, %v at N=10000, %v at N=10000 and GOMAXPROCS 2", small, large, wide)
	if small != large {
		t.Fatalf("allocations per warm step depend on the fleet size: %v at N=256, %v at N=10000", small, large)
	}
	if wide > large {
		t.Fatalf("a warm step allocates %v objects at GOMAXPROCS 2, %v at 1: its trackers no longer run inline", wide, large)
	}
	if large > 33 {
		t.Fatalf("a warm step allocates %v objects, want at most 33", large)
	}
}

// TestStepResultLifetime pins the documented lifetime of a StepResult: T and
// Evicted are the caller's, the fleet-sized slices are views that the next
// Step reuses, and a copy taken before it is what stays put.
func TestStepResultLifetime(t *testing.T) {
	sys, inputs := warmStepSystem(t, 30)
	first, err := sys.Step(inputs[0])
	if err != nil {
		t.Fatal(err)
	}
	kept := cloneStepResult(first)
	// Reads between steps leave a live result alone.
	if _, err := sys.ExportState(); err != nil {
		t.Fatal(err)
	}
	sameClusterings(t, first.T, first, kept)

	// The second step moves every node to another level, so both the
	// assignments and the centroids of the step differ from the first's.
	moved := make([][]float64, len(inputs[0]))
	for i, x := range inputs[0] {
		moved[i] = []float64{1 - x[0], 1 - x[1]}
	}
	second, err := sys.Step(moved)
	if err != nil {
		t.Fatal(err)
	}
	if first.T != kept.T || second.T != first.T+1 {
		t.Fatalf("T of a retained result changed: %d, kept %d, next %d", first.T, kept.T, second.T)
	}
	// Transmitted is one buffer reused by every step; the centroid rows are
	// re-pointed at the slot the new step committed.
	if &first.Transmitted[0] != &second.Transmitted[0] {
		t.Fatal("Transmitted is no longer the reused per-System buffer the lifetime doc describes")
	}
	if &first.PerResource[0].Centroids[0] != &second.PerResource[0].Centroids[0] {
		t.Fatal("Centroids row views are no longer reused across steps")
	}
	if slices.Equal(first.PerResource[0].Centroids[0], kept.PerResource[0].Centroids[0]) {
		t.Fatal("scenario lost its point: the second step left tracker 0's first centroid where it was")
	}
	// Membership changes end the lifetime too: they mask the departed
	// member out of the committed slot the views point into.
	if !second.Present[4] || second.PerResource[0].Assignments[4] < 0 {
		t.Fatal("node 4 not clustered before its removal")
	}
	if err := sys.RemoveNodes(4); err != nil {
		t.Fatal(err)
	}
	if second.Present[4] || second.PerResource[0].Assignments[4] != -1 {
		t.Fatal("RemoveNodes did not show through the live result's views")
	}
}

// TestStepRejectsMalformedInputUnchanged pins Step's validation prologue:
// input that fails it — wrong row count, a report for a tombstone, a ragged
// row, a non-finite value — is rejected before any policy, meter or counter
// moves, so the next valid step is the one an undisturbed system takes.
func TestStepRejectsMalformedInputUnchanged(t *testing.T) {
	sys, inputs := warmStepSystem(t, 12)
	clean, _ := warmStepSystem(t, 12)
	for _, s := range []*System{sys, clean} {
		if err := s.RemoveNodes(3); err != nil {
			t.Fatal(err)
		}
	}
	good := slices.Clone(inputs[1])
	good[3] = nil
	bad := map[string][][]float64{
		"short":      good[:11],
		"tombstone":  slices.Clone(inputs[1]),
		"ragged":     slices.Clone(good),
		"NaN":        slices.Clone(good),
		"minus Inf":  slices.Clone(good),
		"past 100":   slices.Clone(good),
		"-1e160":     slices.Clone(good),
		"after good": slices.Clone(good),
	}
	bad["ragged"][7] = []float64{0.5}
	bad["NaN"][11] = []float64{0.5, math.NaN()}
	bad["minus Inf"][0] = []float64{math.Inf(-1), 0.5}
	bad["past 100"][5] = []float64{0.5, math.Nextafter(100, math.Inf(1))}
	bad["-1e160"][2] = []float64{-1e160, 0.5}
	bad["after good"][11] = []float64{0.5, 0.5, 0.5}
	before, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for name, x := range bad {
		if _, err := sys.Step(x); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: want ErrBadInput, got %v", name, err)
		}
	}
	after, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if coreStateDigest(before) != coreStateDigest(after) || sys.Steps() != clean.Steps() {
		t.Fatal("rejected input changed the system")
	}
	got, err := sys.Step(good)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.Step(good)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != want.T || !slices.Equal(got.Transmitted, want.Transmitted) {
		t.Fatalf("step after rejected input differs: T %d/%d", got.T, want.T)
	}
	sameClusterings(t, got.T, got, want)
}

// TestStepRejectsTooFewPresentUnchanged pins that a step which would cluster
// fewer than K members is rejected before anything moves: no step is
// counted, no meter observes, no policy decides. Two joiners of an empty
// fleet at the default K = 3 are such a step; after a third joins, the next
// step is step 1.
func TestStepRejectsTooFewPresentUnchanged(t *testing.T) {
	sys, err := NewSystem(Config{Resources: 2, InitialCollection: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.AddNodes(1, 2); err != nil {
		t.Fatal(err)
	}
	row := []float64{0.5, 0.25}
	before, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Step([][]float64{row, row}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("two members at K=3: want ErrBadInput, got %v", err)
	}
	after, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if coreStateDigest(before) != coreStateDigest(after) || sys.Steps() != 0 {
		t.Fatalf("rejected step changed the system (Steps %d)", sys.Steps())
	}
	if f := sys.Frequency(0); f != 0 {
		t.Fatalf("a meter observed the rejected step: frequency %v", f)
	}
	if err := sys.AddNodes(3); err != nil {
		t.Fatal(err)
	}
	res, err := sys.Step([][]float64{row, row, row})
	if err != nil {
		t.Fatal(err)
	}
	if res.T != 1 {
		t.Fatalf("first accepted step has T = %d, want 1", res.T)
	}
}

// TestAddNodesFailingPolicyLeavesFleet pins that a joiner whose policy
// factory fails changes no slot: the slot count and the free list stay as
// they were, both when the joiner would have appended a slot and when it
// would have reused a tombstone, and the next successful join takes the slot
// the failed one would have. When a later joiner of the same call fails, the
// ones before it are members, and the roster shows them.
func TestAddNodesFailingPolicyLeavesFleet(t *testing.T) {
	var refuse func(slot int) bool // nil accepts every slot
	sys, err := NewSystem(Config{Nodes: 4, K: 2, Policy: func(slot int) (transmit.Policy, error) {
		if refuse != nil && refuse(slot) {
			return nil, errors.New("policy refused")
		}
		return transmit.Always{}, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	refuse = func(int) bool { return true }
	if err := sys.AddNodes(10); err == nil {
		t.Fatal("failing policy factory: AddNodes succeeded")
	}
	if sys.Slots() != 4 || len(sys.free) != 0 || isMember(sys, 10) {
		t.Fatalf("failed append join left %d slots, free %v", sys.Slots(), sys.free)
	}
	if err := sys.RemoveNodes(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddNodes(10); err == nil {
		t.Fatal("failing policy factory: AddNodes succeeded")
	}
	if sys.Slots() != 4 || !slices.Equal(sys.free, []int{1}) || isMember(sys, 10) {
		t.Fatalf("failed reuse join left %d slots, free %v", sys.Slots(), sys.free)
	}
	refuse = func(slot int) bool { return slot == 5 }
	if err := sys.AddNodes(10); err != nil {
		t.Fatal(err)
	}
	if slot, ok := sys.SlotOf(10); !ok || slot != 1 || len(sys.free) != 0 {
		t.Fatalf("join after the failures: slot %d ok %v, free %v", slot, ok, sys.free)
	}
	_ = sys.Roster() // cache the roster the partial join below must replace
	if err := sys.AddNodes(20, 21); err == nil {
		t.Fatal("AddNodes succeeded with a refused second joiner")
	}
	if slot, ok := sys.Roster().SlotOf(20); !ok || slot != 4 || sys.Slots() != 5 || isMember(sys, 21) {
		t.Fatalf("partial join: roster slot of 20 = %d (%v), %d slots", slot, ok, sys.Slots())
	}
}
