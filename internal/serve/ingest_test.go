package serve

import (
	"testing"

	"orcf/internal/transport"
)

// fillStore gives every node in ids a measurement for the step.
func fillStore(store *transport.Store, ids []int, step int) {
	for _, id := range ids {
		v := 0.1 + 0.8*float64(id%5)/5 + 0.001*float64(step%7)
		store.Apply(transport.Measurement{Node: id, Step: step, Values: []float64{v, 1 - v}})
	}
}

// TestTickBindsJoinersInSortedIDOrder pins the slot binding of newly heard
// nodes: whatever order the store yields them in, they join in ascending ID
// order, so a replayed or repeated run lays the fleet out the same way.
func TestTickBindsJoinersInSortedIDOrder(t *testing.T) {
	t.Parallel()
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, tickCfg(3))
	if err != nil {
		t.Fatal(err)
	}
	fillStore(store, []int{0, 1, 2}, 1)
	if _, ok, err := stepper.Tick(); err != nil || !ok {
		t.Fatalf("first tick: ok=%v err=%v", ok, err)
	}
	joiners := []int{907, 12, 455, 31, 8000, 77, 301, 5, 64, 1234}
	fillStore(store, append([]int{0, 1, 2}, joiners...), 2)
	store.Advance(9999, 2) // heartbeat-only: must wait for a measurement
	res, ok, err := stepper.Tick()
	if err != nil || !ok {
		t.Fatalf("join tick: ok=%v err=%v", ok, err)
	}
	want := []int{0, 1, 2, 5, 12, 31, 64, 77, 301, 455, 907, 1234, 8000}
	roster := stepper.System().Roster()
	if roster.Slots() != len(want) {
		t.Fatalf("%d slots after the join, want %d", roster.Slots(), len(want))
	}
	for slot, id := range want {
		if got, live := roster.IDAt(slot); !live || got != id {
			t.Fatalf("slot %d holds node %d (live=%v), want %d", slot, got, live, id)
		}
		if !res.Transmitted[slot] {
			t.Fatalf("slot %d (node %d) did not arrive in its join tick", slot, id)
		}
	}
}

// TestTickAllocationsIndependentOfFleetSize pins the in-place store read: a
// steady-state Tick copies the store into no per-tick map or per-node rows,
// so its allocation count does not grow with the fleet.
func TestTickAllocationsIndependentOfFleetSize(t *testing.T) {
	perTick := func(n int) float64 {
		store := transport.NewStore()
		cfg := tickCfg(n)
		cfg.SnapshotHorizon = 0 // publishing deep-copies a window slot per step
		cfg.InitialCollection = 1 << 20
		stepper, err := NewStoreStepper(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i
		}
		step := 0
		tick := func() {
			step++
			store.Advance(0, step) // no new measurements: the steady state between arrivals
			if _, ok, err := stepper.Tick(); err != nil || !ok {
				t.Fatalf("tick %d: ok=%v err=%v", step, ok, err)
			}
		}
		fillStore(store, ids, 1)
		for i := 0; i < 8; i++ {
			tick()
		}
		return testing.AllocsPerRun(32, tick)
	}
	small, large := perTick(64), perTick(2048)
	t.Logf("allocations per tick: %v at N=64, %v at N=2048", small, large)
	if small != large {
		t.Fatalf("allocations per tick depend on the fleet size: %v at N=64, %v at N=2048", small, large)
	}
}
