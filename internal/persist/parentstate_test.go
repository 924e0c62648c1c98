package persist

import (
	"errors"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
)

// The state directories under testdata/parentstate were written by
// TestWriteParentState at commit a7a1d79, the last commit whose ensembles
// ran Config.Model and a one-family zoo as two different paths: this file
// was copied into a checkout of that commit and
//
//	go test ./internal/persist -run TestWriteParentState -write-parentstate
//
// was run there.
var writeParentState = flag.Bool("write-parentstate", false,
	"rewrite testdata/parentstate (run in a checkout of the commit whose state it should hold)")

// parentStates are the fixture directories: the default model, whose
// checkpoint names no family, and a one-family Zoo=[ses], whose checkpoint
// carries that family's selection fields.
var parentStates = []string{"default", "zoo-ses"}

// parentStateConfig is the configuration a fixture was written with.
func parentStateConfig(name string) core.Config {
	cfg := core.Config{
		Nodes: 8, Resources: 2, K: 3, MPrime: 3,
		InitialCollection: 15, RetrainEvery: 10, Seed: 5, SnapshotHorizon: 4,
	}
	if name == "zoo-ses" {
		cfg.Zoo, _ = forecast.Zoo("ses")
	}
	return cfg
}

// parentStateManager builds a system from a fixture's configuration and a
// Manager over dir that checkpoints only when asked.
func parentStateManager(t *testing.T, name, dir string) *Manager {
	t.Helper()
	cfg := parentStateConfig(name)
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(sys, cfg, Options{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestWriteParentState writes each fixture directory: a checkpoint at step
// 20 and the WAL of steps 21–30 (the checkpoint prunes the epoch before it).
func TestWriteParentState(t *testing.T) {
	if !*writeParentState {
		t.Skip("rewrites committed fixtures; run with -write-parentstate")
	}
	for _, name := range parentStates {
		dir := filepath.Join("testdata", "parentstate", name)
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		m := parentStateManager(t, name, dir)
		if _, err := m.Recover(nil); err != nil {
			t.Fatal(err)
		}
		cfg := parentStateConfig(name)
		for step := 1; step <= 30; step++ {
			if _, err := m.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
				t.Fatal(err)
			}
			if step == 20 {
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// recoverParentState copies one fixture directory into a scratch directory
// (recovery writes a fresh WAL epoch) and returns a Manager over the copy.
func recoverParentState(t *testing.T, name string) *Manager {
	t.Helper()
	src := filepath.Join("testdata", "parentstate", name)
	dir := t.TempDir()
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(src, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return parentStateManager(t, name, dir)
}

// sameBits reports whether two forecasts are equal bit for bit.
func sameBits(a, b [][][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if len(a[i][j]) != len(b[i][j]) {
				return false
			}
			for k := range a[i][j] {
				if math.Float64bits(a[i][j][k]) != math.Float64bits(b[i][j][k]) {
					return false
				}
			}
		}
	}
	return true
}

// TestRecoverParentWrittenState recovers state directories written before
// Config.Model became a one-candidate zoo — a one-family Zoo=[ses], whose
// checkpoint carries selection fields, and the default model, whose
// checkpoint names no family — from a checkpoint at step 20 plus the WAL of
// steps 21–30, then steps ten more inputs. Every step must be bit-identical
// to a fresh run over the same inputs, and so must the final state.
func TestRecoverParentWrittenState(t *testing.T) {
	t.Parallel()
	for _, name := range parentStates {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := parentStateConfig(name)
			m := recoverParentState(t, name)
			info, err := m.Recover(nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.CheckpointStep != 20 || info.ReplayedSteps != 10 || info.Steps != 30 {
				t.Fatalf("recovery %+v, want checkpoint 20 + 10 WAL steps", info)
			}
			fresh, err := core.NewSystem(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for step := 1; step <= 30; step++ {
				if _, err := fresh.Step(testInput(cfg.Nodes, cfg.Resources, step)); err != nil {
					t.Fatal(err)
				}
			}
			for step := 31; step <= 40; step++ {
				x := testInput(cfg.Nodes, cfg.Resources, step)
				got, err := m.Step(x)
				if err != nil {
					t.Fatalf("recovered step %d: %v", step, err)
				}
				want, err := fresh.Step(x)
				if err != nil {
					t.Fatalf("fresh step %d: %v", step, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d: results diverge", step)
				}
				gf, err1 := m.sys.Forecast(4)
				wf, err2 := fresh.Forecast(4)
				if err1 != nil || err2 != nil || !sameBits(gf, wf) {
					t.Fatalf("step %d: forecasts diverge (%v, %v)", step, err1, err2)
				}
			}
			got, err := m.sys.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			for _, st := range []*core.State{got, want} {
				for _, e := range st.Ensembles {
					e.TrainTime = 0 // wall clock
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatal("state after ten more steps diverges from a fresh run")
			}
		})
	}
}

// TestRecoverParentStateRejectsOtherFamilies restores the one-family zoo's
// checkpoint with its family list rewritten: a two-family list or one naming
// another family must fail with forecast.ErrBadInput, not restore quietly.
func TestRecoverParentStateRejectsOtherFamilies(t *testing.T) {
	t.Parallel()
	st, err := recoverParentState(t, "zoo-ses").readCheckpoint(20)
	if err != nil {
		t.Fatal(err)
	}
	for _, fams := range [][]string{{"ses", "ar"}, {"ar"}} {
		for _, e := range st.Ensembles {
			e.Families = fams
		}
		sys, err := core.NewSystem(parentStateConfig("zoo-ses"))
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.RestoreState(st); !errors.Is(err, forecast.ErrBadInput) {
			t.Fatalf("families %q: %v, want forecast.ErrBadInput", fams, err)
		}
	}
}
