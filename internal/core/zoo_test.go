package core

import (
	"bytes"
	"reflect"
	"testing"

	"orcf/internal/forecast"
)

// TestZooEmptyMatchesPinnedSampleAndHold pins what an empty Config.Zoo
// runs: sample-and-hold, bit for bit like a one-family Zoo naming it —
// per-step results, forecasts, K-means RNG streams, and persisted ensemble
// series — in both clustering modes, with no selection state on either side.
// Only the fingerprints differ: the empty zoo hashes as before zoos existed.
func TestZooEmptyMatchesPinnedSampleAndHold(t *testing.T) {
	t.Parallel()
	const (
		nodes     = 16
		resources = 2
		steps     = 55
		warmup    = 25
		retrain   = 15
		horizon   = 5
	)
	for _, joint := range []bool{false, true} {
		name := "scalar"
		if joint {
			name = "joint"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			data := detTrace(steps, nodes, resources, 21)
			emptyCfg := Config{
				Nodes: nodes, Resources: resources, K: 3,
				InitialCollection: warmup, RetrainEvery: retrain,
				JointClustering: joint, Seed: 5, Workers: 2,
			}
			pinnedCfg := emptyCfg
			var err error
			pinnedCfg.Zoo, err = forecast.Zoo("sample-and-hold")
			if err != nil {
				t.Fatal(err)
			}
			if emptyCfg.Fingerprint() == pinnedCfg.Fingerprint() {
				t.Fatal("a one-family zoo hashes like the empty zoo")
			}
			empty, err := NewSystem(emptyCfg)
			if err != nil {
				t.Fatal(err)
			}
			pinned, err := NewSystem(pinnedCfg)
			if err != nil {
				t.Fatal(err)
			}

			for step := 0; step < steps; step++ {
				re, err := empty.Step(data[step])
				if err != nil {
					t.Fatalf("empty zoo step %d: %v", step, err)
				}
				rp, err := pinned.Step(data[step])
				if err != nil {
					t.Fatalf("pinned zoo step %d: %v", step, err)
				}
				compareStepResults(t, step, re, rp)
				if !empty.Ready() {
					continue
				}
				fe, err := empty.Forecast(horizon)
				if err != nil {
					t.Fatalf("empty zoo forecast at %d: %v", step, err)
				}
				fp, err := pinned.Forecast(horizon)
				if err != nil {
					t.Fatalf("pinned zoo forecast at %d: %v", step, err)
				}
				if !reflect.DeepEqual(fe, fp) {
					t.Fatalf("step %d: forecasts diverge", step)
				}
			}
			if !empty.Ready() {
				t.Fatal("systems never became ready")
			}

			se, err := empty.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			sp, err := pinned.ExportState()
			if err != nil {
				t.Fatal(err)
			}
			for tr := range se.TrackerRNGs {
				if !bytes.Equal(se.TrackerRNGs[tr], sp.TrackerRNGs[tr]) {
					t.Fatalf("tracker %d RNG streams diverged", tr)
				}
			}
			for tr := range se.Ensembles {
				ee, ep := se.Ensembles[tr], sp.Ensembles[tr]
				if ee.T != ep.T || ee.Ready != ep.Ready || ee.LastRefit != ep.LastRefit ||
					ee.TrainRuns != ep.TrainRuns || ee.SeriesStart != ep.SeriesStart {
					t.Fatalf("tracker %d ensemble counters diverge: %+v vs %+v", tr, ee, ep)
				}
				if !reflect.DeepEqual(ee.Series, ep.Series) {
					t.Fatalf("tracker %d ensemble series diverge", tr)
				}
				if len(ee.Families) != 0 || len(ep.Families) != 0 ||
					empty.ModelSelection(tr) != nil || pinned.ModelSelection(tr) != nil {
					t.Fatalf("tracker %d: a one-family system keeps selection state", tr)
				}
			}
		})
	}
}

// TestZooSelectionExposure covers the selection read paths at the core layer:
// ModelSelection is nil for single-family systems and populated (live and in
// snapshots) for zoos, with per-cell champions drawn from the configured
// candidates.
func TestZooSelectionExposure(t *testing.T) {
	t.Parallel()
	const nodes, steps = 10, 30
	data := detTrace(steps, nodes, 1, 3)
	zooCands, err := forecast.Zoo("historical-mean", "sample-and-hold")
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(Config{
		Nodes: nodes, K: 2, InitialCollection: 10, RetrainEvery: 50,
		Zoo: zooCands, Selection: forecast.SelectionConfig{Window: 8, Streak: 2},
		Seed: 9, SnapshotHorizon: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < steps; step++ {
		if _, err := sys.Step(data[step]); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	info := sys.ModelSelection(0)
	if info == nil {
		t.Fatal("ModelSelection nil for zoo system")
	}
	if !reflect.DeepEqual(info.Families, []string{"historical-mean", "sample-and-hold"}) {
		t.Fatalf("families %v", info.Families)
	}
	if info.Window != 8 || info.Streak != 2 || info.Metric != "mae" {
		t.Fatalf("resolved selection config %+v", info)
	}
	if len(info.Cells) != 2 || len(info.Cells[0]) != 1 {
		t.Fatalf("cells shaped %dx%d", len(info.Cells), len(info.Cells[0]))
	}
	for j, row := range info.Cells {
		cs := row[0]
		if cs.Champion != info.Families[cs.ChampionIdx] {
			t.Fatalf("cluster %d: champion %q != families[%d]", j, cs.Champion, cs.ChampionIdx)
		}
		for _, ca := range cs.Candidates {
			if ca.Evals == 0 {
				t.Fatalf("cluster %d candidate %s never evaluated", j, ca.Name)
			}
		}
	}
	if sys.ModelSelection(5) != nil {
		t.Fatal("out-of-range tracker returned selection")
	}
	snap := sys.Snapshot()
	if snap == nil {
		t.Fatal("no snapshot published")
	}
	if snap.ModelSelection(0) == nil {
		t.Fatal("snapshot carries no selection state")
	}
	if snap.ModelSwitchesTotal() != snap.ModelSelection(0).SwitchTotal {
		t.Fatal("switch totals inconsistent")
	}

	legacy, err := NewSystem(Config{Nodes: nodes, K: 2, InitialCollection: 10, Seed: 9, SnapshotHorizon: 3})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.ModelSelection(0) != nil {
		t.Fatal("ModelSelection non-nil for single-family system")
	}
	for step := 0; step < 12; step++ {
		if _, err := legacy.Step(data[step]); err != nil {
			t.Fatal(err)
		}
	}
	if legacy.Snapshot().ModelSelection(0) != nil {
		t.Fatal("single-family snapshot carries selection state")
	}
}

// TestZooConfigFingerprint pins the fingerprint contract: zoo configs hash
// the candidate roster and resolved selection tuning, single-family configs
// hash exactly as before the zoo existed.
func TestZooConfigFingerprint(t *testing.T) {
	t.Parallel()
	base := Config{Nodes: 8, K: 2}
	z1, _ := forecast.Zoo("ses", "ar")
	z2, _ := forecast.Zoo("ar", "ses")
	cfgA := base
	cfgA.Zoo = z1
	cfgB := base
	cfgB.Zoo = z2
	if base.Fingerprint() == cfgA.Fingerprint() {
		t.Fatal("zoo config hashes like single-family config")
	}
	if cfgA.Fingerprint() == cfgB.Fingerprint() {
		t.Fatal("candidate order does not affect fingerprint")
	}
	cfgC := cfgA
	cfgC.Selection = forecast.SelectionConfig{Window: 8}
	if cfgA.Fingerprint() == cfgC.Fingerprint() {
		t.Fatal("selection tuning does not affect fingerprint")
	}
	// Defaults resolve before hashing: explicit defaults hash identically.
	cfgD := cfgA
	cfgD.Selection = forecast.SelectionConfig{Window: 64, Streak: 3, Metric: "mae"}
	if cfgA.Fingerprint() != cfgD.Fingerprint() {
		t.Fatal("explicit default selection hashes differently")
	}
}

// TestZooSelectionSurvivesChurn covers the K-change-after-churn edge: fleet
// churn forces full K-means refits and can redistribute members across
// clusters, but the selector's (cluster, dim) cells are keyed by the stable
// re-indexed cluster identities, so selection state must stay well-formed,
// keep accumulating evaluations, and survive an export/restore round trip
// bit-identically after the churn.
func TestZooSelectionSurvivesChurn(t *testing.T) {
	t.Parallel()
	zooCands, err := forecast.Zoo("historical-mean", "sample-and-hold", "ses")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Nodes: 12, Resources: 2, K: 2, InitialCollection: 8, RetrainEvery: 10,
		MPrime: 3, Zoo: zooCands,
		Selection: forecast.SelectionConfig{Window: 6, Streak: 2},
		Seed:      11,
	}
	sys, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		stepFleet(t, sys, step, nil)
	}
	evalsBefore := sys.ModelSelection(0).Evaluations

	// Churn: three departures and three joiners mid-selection.
	if err := sys.RemoveNodes(0, 5, 9); err != nil {
		t.Fatal(err)
	}
	if err := sys.AddNodes(12, 13, 14); err != nil {
		t.Fatal(err)
	}
	for step := 20; step < 40; step++ {
		stepFleet(t, sys, step, nil)
	}

	wellFormed := func(info *forecast.SelectionInfo) {
		t.Helper()
		if info == nil {
			t.Fatal("selection state lost after churn")
		}
		if len(info.Cells) != cfg.K {
			t.Fatalf("%d cell rows, want K=%d", len(info.Cells), cfg.K)
		}
		for j, row := range info.Cells {
			if len(row) != 1 {
				t.Fatalf("cluster %d: %d dims, want 1 (scalar trackers)", j, len(row))
			}
			for d, cell := range row {
				if cell.ChampionIdx < 0 || cell.ChampionIdx >= len(info.Families) {
					t.Fatalf("cell (%d,%d): champion index %d out of range", j, d, cell.ChampionIdx)
				}
				if cell.Champion != info.Families[cell.ChampionIdx] {
					t.Fatalf("cell (%d,%d): champion %q != families[%d]", j, d, cell.Champion, cell.ChampionIdx)
				}
				if len(cell.Candidates) != len(info.Families) {
					t.Fatalf("cell (%d,%d): %d candidates", j, d, len(cell.Candidates))
				}
				for _, ca := range cell.Candidates {
					if ca.Streak < 0 || ca.Evals < 0 {
						t.Fatalf("cell (%d,%d) candidate %s: negative counters %+v", j, d, ca.Name, ca)
					}
				}
			}
		}
	}
	for tr := 0; tr < cfg.Resources; tr++ {
		wellFormed(sys.ModelSelection(tr))
	}
	if sys.ModelSelection(0).Evaluations <= evalsBefore {
		t.Fatal("selection stopped evaluating after churn")
	}

	// Export/restore mid-selection after churn continues bit-identically.
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	re, err := NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.RestoreState(st); err != nil {
		t.Fatalf("restore after churn: %v", err)
	}
	for tr := 0; tr < cfg.Resources; tr++ {
		if !reflect.DeepEqual(re.ModelSelection(tr), sys.ModelSelection(tr)) {
			t.Fatalf("tracker %d selection state diverges after restore", tr)
		}
	}
	for step := 40; step < 50; step++ {
		ra := stepFleet(t, sys, step, nil)
		rb := stepFleet(t, re, step, nil)
		compareStepResults(t, step, ra, rb)
		if !reflect.DeepEqual(re.ModelSelection(0), sys.ModelSelection(0)) {
			t.Fatalf("step %d: selection diverges post-restore", step)
		}
	}
}

// TestFingerprintsPinned pins Config.Fingerprint to literal values computed
// at commit a7a1d79: every state directory written under one of these
// configurations must keep restoring, so no change to how a Zoo is run may
// move a hash.
func TestFingerprintsPinned(t *testing.T) {
	t.Parallel()
	zoo := func(names ...string) []forecast.Candidate {
		c, err := forecast.Zoo(names...)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"default", Config{}, 0x786b26d1a1ef9c7e},
		{"zoo=ses", Config{Zoo: zoo("ses")}, 0xb680e4599a68f2fb},
		{"zoo=ses,ar/selection", Config{Zoo: zoo("ses", "ar"),
			Selection: forecast.SelectionConfig{Window: 16, Margin: 0.01, Streak: 5, Metric: "rmse"}}, 0x00fdf80d95ffd640},
		{"incremental", Config{IncrementalRefit: true}, 0xce000bc95b0920bb},
		{"incremental/churn", Config{IncrementalRefit: true, IncrementalChurn: 0.1}, 0x24c2720aed8439fa},
		{"joint", Config{Resources: 4, JointClustering: true}, 0x66abc32e866d3848},
	} {
		if got := tc.cfg.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#x, want %#x", tc.name, got, tc.want)
		}
	}
}
