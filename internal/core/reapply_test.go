package core

import (
	"errors"
	"fmt"
	"testing"

	"orcf/internal/transmit"
)

// reapplyRun steps a churning fleet for 40 steps — a join (node 20, step
// 8), an absence-timeout eviction (node 4, silent from step 10, evicted at
// step 11) and its rejoin (step 30), and a RemoveNodes (node 2, step 14)
// with its rejoin (step 24) — and hands each step's record to check. A
// central System is stepped through StepArrivals with a fixed arrival
// pattern and records its flags; any other through Step, recording
// Transmitted.
func reapplyRun(t *testing.T, live *System, central bool, check func(step int, rec *StepRecord, res *StepResult)) {
	t.Helper()
	for step := 1; step <= 40; step++ {
		var err error
		switch step {
		case 8:
			err = live.AddNodes(20)
		case 14:
			err = live.RemoveNodes(2)
		case 24:
			err = live.AddNodes(2)
		case 30:
			err = live.AddNodes(4)
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		roster := live.Roster()
		x := make([][]float64, roster.Slots())
		arrived := make([]bool, roster.Slots())
		for i := range x {
			id, ok := roster.IDAt(i)
			if !ok || (id == 4 && step >= 10 && step < 30) {
				continue
			}
			x[i] = churnRow(id, step, 2)
			arrived[i] = (id+step)%3 != 0
		}
		var res *StepResult
		if central {
			res, err = live.StepArrivals(x, arrived)
		} else {
			res, err = live.Step(x)
			arrived = res.Transmitted
		}
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		rec := roster.Record(res.T, x, arrived)
		check(step, &rec, res)
	}
	if live.Evictions() != 2 {
		t.Fatalf("%d evictions, want the run's two", live.Evictions())
	}
}

// TestReapplyReproducesSteps: for both System kinds, a replica fed nothing
// but the live run's records — and swapped mid-run, at step 20, for a fresh
// System restored from its own export — holds the live System's exported
// state after every step. A record of any step but the next is rejected
// with nothing changed.
func TestReapplyReproducesSteps(t *testing.T) {
	t.Parallel()
	for _, central := range []bool{false, true} {
		t.Run(fmt.Sprintf("central=%v", central), func(t *testing.T) {
			t.Parallel()
			cfg := churnConfig(6)
			cfg.AbsenceTimeout = 2
			cfg.SnapshotHorizon = 3
			build := func() *System {
				sys, err := newSystem(cfg, !central)
				if err != nil {
					t.Fatal(err)
				}
				return sys
			}
			live, replica := build(), build()
			reapplyRun(t, live, central, func(step int, rec *StepRecord, _ *StepResult) {
				rec.T++
				if err := replica.Reapply(rec); !errors.Is(err, ErrBadInput) || replica.Steps() != step-1 {
					t.Fatalf("step %d: a record of step %d: %v at step %d; want ErrBadInput, unchanged",
						step, rec.T, err, replica.Steps())
				}
				rec.T--
				if err := replica.Reapply(rec); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step == 20 {
					st, err := replica.ExportState()
					if err != nil {
						t.Fatal(err)
					}
					replica = build()
					if err := replica.RestoreState(st); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := stateDigest(t, replica), stateDigest(t, live); got != want {
					t.Fatalf("step %d: replica state %#x, live %#x", step, got, want)
				}
			})
		})
	}
}

// TestReapplyStopsWhereThePoliciesDiverge: a replica whose factory builds an
// Always policy for slot 6, the slot node 20 joins into at step 8, and the
// default Adaptive one for every other, re-takes the records of a fleet
// under Adaptive policies alone until the first step where node 20's
// Adaptive policy suppressed a row, and fails there with ErrBadState, the
// error Recover reports as persist.ErrMismatch.
func TestReapplyStopsWhereThePoliciesDiverge(t *testing.T) {
	t.Parallel()
	cfg := churnConfig(6)
	cfg.AbsenceTimeout = 2
	live, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	adaptive := cfg.withDefaults().Policy
	cfg.Policy = func(slot int) (transmit.Policy, error) {
		if slot == 6 {
			return transmit.Always{}, nil
		}
		return adaptive(slot)
	}
	replica, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	diverged := 0
	reapplyRun(t, live, false, func(step int, rec *StepRecord, res *StepResult) {
		if diverged > 0 {
			return
		}
		err := replica.Reapply(rec)
		switch suppressed := len(rec.X) > 6 && rec.X[6] != nil && !res.Transmitted[6]; {
		case suppressed && !errors.Is(err, ErrBadState):
			t.Fatalf("step %d diverges: %v, want ErrBadState", step, err)
		case suppressed:
			diverged = step
		case err != nil:
			t.Fatalf("step %d: %v", step, err)
		}
	})
	if diverged <= 8 {
		t.Fatalf("diverged at step %d, want a step after node 20 joined", diverged)
	}
}
