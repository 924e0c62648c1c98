package serve

import (
	"bytes"
	"encoding/gob"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/persist"
	"orcf/internal/transport"
)

// The state directory under testdata/parentstate was written by
// TestWriteParentState at commit 249bc3f, the last commit whose StoreStepper
// stepped its System through one arrival-mirroring transmission policy per
// member: this file was copied into a checkout of that commit and
//
//	go test ./internal/serve -run TestWriteParentState -write-parentstate
//
// was run there. testdata/parentstate.digest holds the digest of the state
// that run ended in.
var writeParentState = flag.Bool("write-parentstate", false,
	"rewrite testdata/parentstate (run in a checkout of the commit whose state it should hold)")

const (
	parentStateDir    = "testdata/parentstate"
	parentStateDigest = "testdata/parentstate.digest"
	parentStateTicks  = 30
	parentStateCkpt   = 20 // the tick the one checkpoint is taken at
)

// parentStateConfig is the configuration the fixture was written with.
func parentStateConfig() core.Config {
	return core.Config{
		Nodes: 8, Resources: 2, K: 3, MPrime: 3, AbsenceTimeout: 3,
		InitialCollection: 15, RetrainEvery: 10, Seed: 5, SnapshotHorizon: 4,
	}
}

// parentStateStepper builds a store and a stepper from the fixture's
// configuration and a Manager over dir that checkpoints only when asked.
func parentStateStepper(t *testing.T, dir string) (*transport.Store, *StoreStepper, *persist.Manager) {
	t.Helper()
	cfg := parentStateConfig()
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := persist.New(stepper.System(), cfg, persist.Options{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return store, stepper, m
}

// parentStateRecords applies one tick's records. Members 0–7 report a fresh
// measurement every tick, except that 5 only heartbeats on every third tick
// (contacted, nothing new) and 3 is silent at tick 23 (an absence tick).
// Node 8 joins at tick 22. Node 9 joins at tick 24 on a step-0 record it
// never replaces, kept contacted by heartbeats: nothing of it is ever fresh,
// so it is stored only because nothing was.
func parentStateRecords(store *transport.Store, tick int) {
	value := func(id, r int) float64 {
		return float64((id*7+tick*3+r*5)%23)/23 + 0.01
	}
	for id := 0; id <= 9; id++ {
		switch {
		case id == 8 && tick < 22, id == 9 && tick < 24, id == 3 && tick == 23:
		case id == 9:
			if tick == 24 {
				store.Apply(transport.Measurement{Node: 9, Step: 0, Values: []float64{0.5, 0.25}})
			}
			store.Advance(9, tick)
		case id == 5 && tick%3 == 0:
			store.Advance(5, tick)
		default:
			store.Apply(transport.Measurement{Node: id, Step: tick, Values: []float64{value(id, 0), value(id, 1)}})
		}
	}
}

// stateDigest fingerprints an exported state by its gob encoding, with the
// ensembles' wall-clock training time left out.
func stateDigest(t *testing.T, st *core.State) string {
	t.Helper()
	for _, e := range st.Ensembles {
		e.TrainTime = 0
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(buf.Bytes())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestWriteParentState writes the fixture: a checkpoint at tick 20 and the
// WAL of ticks 21–30, which hold the join of 8, the absence tick of 3 and the
// not-fresh first store of 9. It checks that the run reached each of them and
// writes the final state's digest beside the directory.
func TestWriteParentState(t *testing.T) {
	if !*writeParentState {
		t.Skip("rewrites committed fixtures; run with -write-parentstate")
	}
	if err := os.RemoveAll(parentStateDir); err != nil {
		t.Fatal(err)
	}
	store, stepper, m := parentStateStepper(t, parentStateDir)
	if _, err := m.Recover(stepper.Replay); err != nil {
		t.Fatal(err)
	}
	stepper.SetLog(m)
	sys := stepper.System()
	for tick := 1; tick <= parentStateTicks; tick++ {
		parentStateRecords(store, tick)
		res, ok, err := stepper.Tick()
		if err != nil || !ok {
			t.Fatalf("tick %d: ok=%v err=%v", tick, ok, err)
		}
		switch tick {
		case 22:
			if !isMember(sys, 8) {
				t.Fatal("node 8 did not join at tick 22")
			}
		case 23:
			if slot, _ := sys.SlotOf(3); stepper.x[slot] != nil {
				t.Fatal("node 3 was not silent at tick 23")
			}
		case 24:
			slot, ok := sys.SlotOf(9)
			if !ok || stepper.arrived[slot] || !res.Transmitted[slot] {
				t.Fatalf("node 9 at tick 24: member %v, arrived %v, stored %v", ok, stepper.arrived[slot], res.Transmitted[slot])
			}
		}
		if tick == parentStateCkpt {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(parentStateDigest, []byte(stateDigest(t, st)+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRecoverParentWrittenState recovers the state directory a StoreStepper
// wrote while every member ran an arrival-mirroring policy — a checkpoint
// whose live slots carry that policy's empty state bytes, and a WAL tail with
// a join, an absence tick and a member stored without a fresh record —
// through StoreStepper.Replay, and requires the recovered state to be the one
// that run ended in.
func TestRecoverParentWrittenState(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	files, err := os.ReadDir(parentStateDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(parentStateDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, stepper, m := parentStateStepper(t, dir)
	info, err := m.Recover(stepper.Replay)
	if err != nil {
		t.Fatal(err)
	}
	if info.CheckpointStep != parentStateCkpt || info.ReplayedSteps != parentStateTicks-parentStateCkpt ||
		info.Steps != parentStateTicks {
		t.Fatalf("recovery %+v, want checkpoint %d + %d WAL steps", info, parentStateCkpt, parentStateTicks-parentStateCkpt)
	}
	want, err := os.ReadFile(parentStateDigest)
	if err != nil {
		t.Fatal(err)
	}
	st, err := stepper.System().ExportState()
	if err != nil {
		t.Fatal(err)
	}
	if got := stateDigest(t, st); got != strings.TrimSpace(string(want)) {
		t.Fatalf("recovered state digest %s, written %s", got, strings.TrimSpace(string(want)))
	}
}
