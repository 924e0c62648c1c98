package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/persist"
	"orcf/internal/transport"
)

// walHashes closes mgr (waiting for its background checkpoint, whose prune
// decides which epochs stay) and returns the sha256 of every WAL epoch left
// in dir, by file name.
func walHashes(t *testing.T, mgr *persist.Manager, dir string) map[string]string {
	t.Helper()
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[filepath.Base(p)] = hex.EncodeToString(sum[:])
	}
	return out
}

// stepperWAL runs a fixed twelve-tick StoreStepper script over an empty state
// directory with the given checkpoint interval and returns its WAL epochs'
// hashes. The script has a join (node 9 at tick 4), a member silent until
// the absence timeout evicts it (node 3, last heard at tick 5, evicted at
// tick 7) and rejoining (tick 10), and a member heard only through
// heartbeats, stored without a fresh record (node 2, ticks 8 and 9).
func stepperWAL(t *testing.T, every int) map[string]string {
	t.Helper()
	cfg := core.Config{
		Nodes: 4, Resources: 2, K: 2, MPrime: 1, InitialCollection: 6,
		RetrainEvery: 4, Seed: 5, AbsenceTimeout: 2, SnapshotHorizon: 2,
	}
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := persist.New(stepper.System(), cfg, persist.Options{Dir: dir, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Recover(nil); err != nil {
		t.Fatal(err)
	}
	stepper.SetLog(mgr)
	for tick := 1; tick <= 12; tick++ {
		for _, id := range []int{0, 1, 2, 3, 9} {
			switch {
			case id == 9 && tick < 4, id == 3 && tick > 5 && tick < 10:
				continue
			case id == 2 && (tick == 8 || tick == 9):
				store.Advance(id, 100+tick)
				continue
			case tick > 1 && (id+tick)%3 == 0:
				continue // the agent's policy suppressed this step
			}
			v := 0.5 + 0.4*math.Sin(0.3*float64(tick)+float64(id))
			store.Apply(transport.Measurement{Node: id, Step: 100 + tick, Values: []float64{v, 1 - v}})
		}
		if _, ok, err := stepper.Tick(); err != nil || !ok {
			t.Fatalf("tick %d: ok=%v err=%v", tick, ok, err)
		}
	}
	if got := stepper.System().Evictions(); got != 1 {
		t.Fatalf("%d evictions, want the script's one", got)
	}
	return walHashes(t, mgr, dir)
}

// systemWAL runs a fixed ten-step Manager.Step script over an empty state
// directory (silent rows, a RemoveNodes and an AddNodes between steps) and
// returns its WAL epochs' hashes.
func systemWAL(t *testing.T) map[string]string {
	t.Helper()
	cfg := core.Config{Nodes: 5, Resources: 2, K: 2, InitialCollection: 4, RetrainEvery: 3, Seed: 8}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	mgr, err := persist.New(sys, cfg, persist.Options{Dir: dir, CheckpointEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mgr.Recover(nil); err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 10; step++ {
		switch step {
		case 4:
			if err := sys.RemoveNodes(1); err != nil {
				t.Fatal(err)
			}
		case 6:
			if err := sys.AddNodes(7, 8); err != nil {
				t.Fatal(err)
			}
		}
		x := make([][]float64, sys.Slots())
		for i := range x {
			if _, live := sys.Roster().IDAt(i); !live || (step > 1 && (i+step)%4 == 0) {
				continue
			}
			v := 0.5 + 0.4*math.Cos(0.7*float64(step)+float64(i))
			x[i] = []float64{v, v / 2}
		}
		if _, err := mgr.Step(x); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	return walHashes(t, mgr, dir)
}

// TestWALBytesPinned pins the on-disk WAL format byte for byte: the sha256
// of every epoch two fixed runs leave behind, a StoreStepper script logging
// arrivals (once in one epoch, once across the epoch rotation of a
// checkpoint at step 8, whose prune leaves only the newer epoch) and a
// Manager.Step run logging transmissions. A change to the record layout, or
// to what the stepper or the Manager logs, moves a hash; one meant to must
// say so and re-pin them.
func TestWALBytesPinned(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		run  func(*testing.T) map[string]string
		want map[string]string
	}{
		{"stepper/one-epoch", func(t *testing.T) map[string]string { return stepperWAL(t, -1) }, map[string]string{
			"wal-0000000000000000.wal": "f9c7358f8c325d78c9b4c5993f105d6f1c0e43f20a1fc6e17cfbbeace2329adc",
		}},
		{"stepper/rotated", func(t *testing.T) map[string]string { return stepperWAL(t, 8) }, map[string]string{
			"wal-0000000000000008.wal": "2da82f9d6436436090da4a44d79069a68cdc0cf0df872a5a440b296f9f462664",
		}},
		{"system", systemWAL, map[string]string{
			"wal-0000000000000000.wal": "e7a5cd168dd34148035cc2df98e047e2f425e51f81f7023018ceb0764a9f3493",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.run(t)
			if !reflect.DeepEqual(got, tc.want) {
				var b strings.Builder
				for name, sum := range got {
					b.WriteString("\n\t" + name + " " + sum)
				}
				t.Fatalf("WAL epochs moved:%s\nwant %v", b.String(), tc.want)
			}
		})
	}
}
