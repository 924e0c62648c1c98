package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"orcf/internal/transmit"
)

// declineAll is a custom policy that never transmits, not even a member's
// first report.
type declineAll struct{}

func (declineAll) Decide(int, []float64, []float64) bool { return false }

// samePlanBits fails t unless two forecast plans are equal field for field,
// floats by their bits.
func samePlanBits(t *testing.T, step int, got, want *ForecastPlan) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Fatalf("step %d: plan %v, reference %v", step, got != nil, want != nil)
	}
	if got == nil {
		return
	}
	if !slices.Equal(floatBits(got.cent), floatBits(want.cent)) || !slices.Equal(floatBits(got.offset), floatBits(want.offset)) ||
		!slices.Equal(got.mode, want.mode) || !slices.Equal(got.fill, want.fill) ||
		got.stride != want.stride || got.kd != want.kd || got.dims != want.dims || got.nTracker != want.nTracker ||
		got.resources != want.resources || got.joint != want.joint {
		t.Fatalf("step %d: published plans differ", step)
	}
}

// policyFreeDigest is coreStateDigest with the policies' state left out.
func policyFreeDigest(t *testing.T, sys *System) uint64 {
	t.Helper()
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	st.Policies = nil
	return coreStateDigest(st)
}

// TestStepIsEdgeThenCentral pins Step as the edge walk followed by the
// central node's: the heterogeneous fleet of mixedPolicy steps through Step
// with silent rows, an absence-timeout eviction, administrative removals,
// recycled slots and growth, and an edge-less System (restored mid-run from
// its own export) is fed each step's rows and the Transmitted flags Step
// returned through StepArrivals. After every step the two must agree on the
// result, on the exported state but for the policies' (which the edge-less
// System records as nil), on the published plan and on Forecast.
func TestStepIsEdgeThenCentral(t *testing.T) {
	t.Parallel()
	for _, joint := range []bool{false, true} {
		t.Run(fmt.Sprintf("joint=%v", joint), func(t *testing.T) {
			t.Parallel()
			cfg := churnConfig(12)
			cfg.AbsenceTimeout = 3
			cfg.JointClustering = joint
			cfg.SnapshotHorizon = 3
			cfg.Policy = mixedPolicy
			full, err := NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			central, err := NewCentral(cfg)
			if err != nil {
				t.Fatal(err)
			}
			both := func(op string, fn func(sys *System) error) {
				t.Helper()
				for _, sys := range []*System{full, central} {
					if err := fn(sys); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
				}
			}
			silent := map[int]bool{}
			evictions, declined := 0, 0
			for step := 1; step <= 60; step++ {
				switch step {
				case 14:
					silent[1] = true // evicted by the absence timeout at step 16
				case 18, 19:
					silent[7] = step == 18
				case 20:
					both("remove", func(sys *System) error { return sys.RemoveNodes(8) })
				case 24: // recycles slot 1
					both("join", func(sys *System) error { return sys.AddNodes(100) })
				case 28: // 101 recycles slot 8, 102 grows the fleet and reports from step 30
					both("join", func(sys *System) error { return sys.AddNodes(101, 102) })
					silent[102] = true
				case 30:
					delete(silent, 102)
				case 36:
					st, err := central.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					if central, err = NewCentral(cfg); err != nil {
						t.Fatal(err)
					}
					if err := central.RestoreState(st); err != nil {
						t.Fatalf("restore at step %d: %v", step, err)
					}
				case 50:
					both("remove", func(sys *System) error { return sys.RemoveNodes(11) })
				}
				x := kernelFleetInput(full.Roster(), step, cfg.Resources, silent)
				want, err := full.Step(x)
				if err != nil {
					t.Fatalf("step %d: Step: %v", step, err)
				}
				got, err := central.StepArrivals(x, want.Transmitted)
				if err != nil {
					t.Fatalf("step %d: StepArrivals: %v", step, err)
				}
				if got.T != want.T || !slices.Equal(got.Transmitted, want.Transmitted) ||
					!slices.Equal(got.Present, want.Present) || !slices.Equal(got.Evicted, want.Evicted) {
					t.Fatalf("step %d: result header differs:\n got %+v\nwant %+v", step, got, want)
				}
				sameClusterings(t, step, got, want)
				evictions += len(want.Evicted)
				for i, xi := range x {
					if xi != nil && !want.Transmitted[i] {
						declined++
					}
				}
				if g, w := policyFreeDigest(t, central), policyFreeDigest(t, full); g != w {
					t.Fatalf("step %d: state digest %x, Step's %x", step, g, w)
				}
				st, err := central.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				for i, p := range st.Policies {
					if p != nil {
						t.Fatalf("step %d: edge-less slot %d exports policy state %x", step, i, p)
					}
				}
				samePlanBits(t, step, central.Snapshot().Plan(), full.Snapshot().Plan())
				if full.Ready() {
					gf, err1 := central.Forecast(3)
					wf, err2 := full.Forecast(3)
					if err1 != nil || err2 != nil {
						t.Fatalf("step %d: forecasts: %v, %v", step, err1, err2)
					}
					forecastBits(t, gf, wf, "edge-less vs Step", step)
				}
			}
			if evictions == 0 || declined == 0 || !full.Ready() {
				t.Fatalf("scenario lost its point: %d evictions, %d declined reports, ready %v", evictions, declined, full.Ready())
			}
		})
	}
}

// TestStepArrivalsRejectsMalformedInputUnchanged pins StepArrivals'
// validation: flags for another slot count, an arrival flag on a nil row or
// on a tombstone, and a step that would cluster fewer than K members are
// rejected before anything moves, as is Step on an edge-less System — the
// next valid step is the one an undisturbed system takes.
func TestStepArrivalsRejectsMalformedInputUnchanged(t *testing.T) {
	cfg := Config{Nodes: 12, Resources: 2, K: 3, InitialCollection: 20, Seed: 1}
	row := func(i, step int) []float64 {
		v := 0.2 + 0.3*float64(i%3) + 0.05*math.Sin(float64(step+i))
		return []float64{v, 1 - v}
	}
	input := func(step int) ([][]float64, []bool) {
		x, arrived := make([][]float64, 12), make([]bool, 12)
		for i := range x {
			if i != 3 {
				x[i], arrived[i] = row(i, step), (i+step)%3 == 0
			}
		}
		return x, arrived
	}
	warm := func() *System {
		sys, err := NewCentral(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= 8; step++ {
			x, arrived := input(step)
			if _, err := sys.StepArrivals(x, arrived); err != nil {
				t.Fatal(err)
			}
		}
		if err := sys.RemoveNodes(3); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys, clean := warm(), warm()
	good, goodArrived := input(9)
	type stepIn struct {
		x       [][]float64
		arrived []bool
	}
	bad := map[string]stepIn{
		"short flags":        {good, goodArrived[:11]},
		"long flags":         {good, append(slices.Clone(goodArrived), true)},
		"arrived on nil row": {slices.Clone(good), slices.Clone(goodArrived)},
		"arrived on tomb":    {good, slices.Clone(goodArrived)},
		"malformed row":      {slices.Clone(good), goodArrived},
	}
	bad["arrived on nil row"].x[5] = nil
	bad["arrived on nil row"].arrived[5] = true
	bad["arrived on tomb"].arrived[3] = true
	bad["malformed row"].x[7] = []float64{0.5, math.NaN()}
	before := policyFreeDigest(t, sys)
	for name, in := range bad {
		if _, err := sys.StepArrivals(in.x, in.arrived); !errors.Is(err, ErrBadInput) {
			t.Fatalf("%s: want ErrBadInput, got %v", name, err)
		}
	}
	if _, err := sys.Step(good); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("Step on an edge-less system: want ErrBadConfig, got %v", err)
	}
	if policyFreeDigest(t, sys) != before || sys.Steps() != clean.Steps() {
		t.Fatal("rejected input changed the system")
	}
	got, err := sys.StepArrivals(good, goodArrived)
	if err != nil {
		t.Fatal(err)
	}
	want, err := clean.StepArrivals(good, goodArrived)
	if err != nil {
		t.Fatal(err)
	}
	if got.T != want.T || !slices.Equal(got.Transmitted, want.Transmitted) {
		t.Fatalf("step after rejected input differs: T %d/%d", got.T, want.T)
	}
	sameClusterings(t, got.T, got, want)

	// Two joiners of an empty fleet at K = 3 are too few to cluster.
	few, err := NewCentral(Config{Resources: 2, InitialCollection: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := few.AddNodes(1, 2); err != nil {
		t.Fatal(err)
	}
	before = policyFreeDigest(t, few)
	if _, err := few.StepArrivals([][]float64{row(1, 1), row(2, 1)}, []bool{true, true}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("two members at K=3: want ErrBadInput, got %v", err)
	}
	if policyFreeDigest(t, few) != before || few.Steps() != 0 {
		t.Fatalf("rejected step changed the system (Steps %d)", few.Steps())
	}
}

// TestStepArrivalsStoresFirstContact pins the one row StepArrivals stores
// without an arrival: a contacted member with nothing stored. A stored
// member's row that did not arrive is left out of the store and counted as
// not transmitted.
func TestStepArrivalsStoresFirstContact(t *testing.T) {
	sys, err := NewCentral(Config{Nodes: 4, Resources: 1, K: 2, InitialCollection: 5})
	if err != nil {
		t.Fatal(err)
	}
	first := [][]float64{{0.1}, {0.2}, nil, {0.4}}
	res, err := sys.StepArrivals(first, []bool{false, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Transmitted, []bool{true, true, false, true}) {
		t.Fatalf("first contact transmitted %v", res.Transmitted)
	}
	res, err = sys.StepArrivals([][]float64{{0.6}, {0.7}, {0.8}, {0.9}}, []bool{false, true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Transmitted, []bool{false, true, true, false}) {
		t.Fatalf("second step transmitted %v", res.Transmitted)
	}
	want := [][]float64{{0.1}, {0.7}, {0.8}, {0.4}}
	for i, z := range sys.Stored() {
		if !slices.Equal(z, want[i]) {
			t.Fatalf("store %v, want %v", sys.Stored(), want)
		}
	}
	if f := sys.Frequency(0); f != 0.5 {
		t.Fatalf("slot 0 frequency %v, want 0.5", f)
	}
}

// TestStepStoresDeclinedFirstReport pins the first-contact rule on Step's
// side: a member whose policy declines every report still has its first one
// stored, metered and flagged in Transmitted, so a fleet of N = K = 3 with
// one such member steps; its later reports stay declined and the store
// keeps the first.
func TestStepStoresDeclinedFirstReport(t *testing.T) {
	sys, err := NewSystem(Config{Nodes: 3, Resources: 1, K: 3, InitialCollection: 5,
		Policy: func(slot int) (transmit.Policy, error) {
			if slot == 2 {
				return declineAll{}, nil
			}
			return transmit.Always{}, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Step([][]float64{{0.1}, {0.2}, {0.3}})
	if err != nil || sys.Steps() != 1 {
		t.Fatalf("first step: %v, Steps %d", err, sys.Steps())
	}
	if !slices.Equal(res.Transmitted, []bool{true, true, true}) || !slices.Equal(res.Present, []bool{true, true, true}) {
		t.Fatalf("first step transmitted %v, present %v", res.Transmitted, res.Present)
	}
	if f := sys.Frequency(2); f != 1 {
		t.Fatalf("declining member's frequency %v after its first report, want 1", f)
	}
	res, err = sys.Step([][]float64{{0.4}, {0.5}, {0.6}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(res.Transmitted, []bool{true, true, false}) || !res.Present[2] {
		t.Fatalf("second step transmitted %v, present %v", res.Transmitted, res.Present)
	}
	if z := sys.Stored()[2]; !slices.Equal(z, []float64{0.3}) {
		t.Fatalf("declining member stores %v, want its first report [0.3]", z)
	}
	if f := sys.Frequency(2); f != 0.5 {
		t.Fatalf("declining member's frequency %v after two reports, want 0.5", f)
	}
}

// TestEdgelessRestoreRejectsPolicyState pins that an edge-less System
// restores only a State without policy state: a full System's export, whose
// Adaptive policies record their queues, is rejected before anything moves.
func TestEdgelessRestoreRejectsPolicyState(t *testing.T) {
	cfg := Config{Nodes: 6, Resources: 2, K: 2, InitialCollection: 5}
	full, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 3; step++ {
		x := make([][]float64, 6)
		for i := range x {
			x[i] = []float64{float64(i) / 6, float64(step) / 4}
		}
		if _, err := full.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	st, err := full.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	central, err := NewCentral(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := central.RestoreState(st); !errors.Is(err, ErrBadState) || central.Steps() != 0 {
		t.Fatalf("restore of policy state into an edge-less system: %v (Steps %d), want ErrBadState", err, central.Steps())
	}
	clear(st.Policies)
	if err := central.RestoreState(st); err != nil {
		t.Fatalf("restore without policy state: %v", err)
	}
}
