package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"orcf/internal/alert"
	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/persist"
)

// zooWorkload steps a small fleet with a five-family model zoo through the
// durability plane and the alert engine. One op is an epoch of
// zooRetrainEvery steps, which always holds exactly one refit round, plus
// one synchronous checkpoint, so every op does the same kind of work.
type zooWorkload struct {
	o    options
	cfg  core.Config
	dir  string
	warm [2]int // steps before the set-up's checkpoint, and after it until the crash

	pipeline
	sys *core.System
	mgr *persist.Manager
	eng *alert.Engine
	t   int

	recoverTime time.Duration
	replayed    int
	recovered   bool // state after Recover equals the state before the crash
	events      int
}

// zooRules is the fixed rule set: one threshold and one trend rule at each
// scope, so both the centroid and the per-node forecast paths are evaluated.
const zooRules = `{"steps_per_hour": 12, "rules": [
 {"name": "cluster-high", "kind": "threshold", "scope": "cluster", "horizon": 6,
  "above": true, "threshold": 0.6, "clear_margin": 0.02},
 {"name": "node-high", "kind": "threshold", "scope": "node", "horizon": 6,
  "above": true, "threshold": 0.8, "clear_margin": 0.02},
 {"name": "cluster-ramp", "kind": "trend", "scope": "cluster", "horizon": 12,
  "above": true, "threshold": 0.05},
 {"name": "node-ramp", "kind": "trend", "scope": "node", "horizon": 12,
  "above": true, "threshold": 0.1}]}`

func newZoo(o options, rep int) workload {
	w := &zooWorkload{o: o, pipeline: newPipeline(o)}
	w.dir = filepath.Join(o.dir, fmt.Sprintf("state-%d-%d", os.Getpid(), rep))
	epochs := func(steps int) int { return o.scaled(steps/zooRetrainEvery, 2) * zooRetrainEvery }
	w.warm = [2]int{zooFitWindow + epochs(500), epochs(250)}
	zoo, err := forecast.Zoo(zooFamilies...)
	if err != nil {
		panic(err) // the families are registered at init; a typo is a bug
	}
	w.cfg = core.Config{
		Nodes: o.scaled(512, 32), Resources: 2, K: 3,
		InitialCollection: zooFitWindow,
		RetrainEvery:      zooRetrainEvery,
		FitWindow:         zooFitWindow,
		Zoo:               zoo,
		SnapshotHorizon:   probeHorizon,
		Policy:            adaptivePolicy,
		Seed:              1,
		PhaseObserver:     w.phases.observer(),
	}
	return w
}

// open builds a system and a Manager over the state directory and recovers
// whatever the directory holds.
func (w *zooWorkload) open() (*core.System, *persist.Manager, *persist.RecoveryInfo, error) {
	sys, err := core.NewSystem(w.cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	mgr, err := persist.New(sys, w.cfg, persist.Options{Dir: w.dir, CheckpointEvery: -1})
	if err != nil {
		return nil, nil, nil, err
	}
	info, err := mgr.Recover(nil)
	if err != nil {
		mgr.Close()
		return nil, nil, nil, err
	}
	return sys, mgr, info, nil
}

// setup ends with a crash and a recovery, so setup_s on this workload is
// restart-to-serving time: warm up through the Manager with one checkpoint on
// the way, drop the Manager without a final checkpoint, then build a fresh
// system and recover it from the checkpoint plus the WAL tail.
func (w *zooWorkload) setup() error {
	var err error
	// 1152 steps is four diurnal days of the generator's 288-step cycle.
	if w.in, err = genInputs(w.cfg.Nodes, w.cfg.Resources, 1152, w.o.seed); err != nil {
		return err
	}
	w.base = liveHeap()
	sys, mgr, _, err := w.open()
	if err != nil {
		return err
	}
	for ; w.t < w.warm[0]+w.warm[1]; w.t++ {
		if w.t == w.warm[0] {
			if err := mgr.Checkpoint(); err != nil {
				mgr.Close()
				return err
			}
		}
		if _, err := mgr.Step(w.in.at(w.t)); err != nil {
			mgr.Close()
			return err
		}
	}
	before, err := sys.ExportState()
	if err != nil {
		mgr.Close()
		return err
	}
	// The crash: WAL records reach the OS on every append, so closing the
	// file without checkpointing leaves what a killed process would.
	if err := mgr.Close(); err != nil {
		return err
	}

	t0 := time.Now()
	var info *persist.RecoveryInfo
	if w.sys, w.mgr, info, err = w.open(); err != nil {
		return err
	}
	w.recoverTime = time.Since(t0)
	w.replayed = info.ReplayedSteps
	after, err := w.sys.ExportState()
	if err != nil {
		return err
	}
	w.recovered = digestState(after) == digestState(before) &&
		info.CheckpointStep == w.warm[0] && info.ReplayedSteps == w.warm[1]

	rules, err := alert.ParseRules([]byte(zooRules))
	if err != nil {
		return err
	}
	if w.eng, err = alert.New(alert.Config{Rules: rules, MaxHorizon: probeHorizon}); err != nil {
		return err
	}
	w.phases.reset()
	return nil
}

func (w *zooWorkload) op(_ int, tr *tracer) error {
	for s := 0; s < zooRetrainEvery; s++ {
		x := w.in.at(w.t)
		sp := tr.begin("persist.step")
		res, err := w.mgr.Step(x)
		tr.end(sp)
		if err != nil {
			return err
		}
		w.last = res
		w.t++
		sp = tr.begin("alert.evaluate")
		events, err := w.eng.Evaluate(w.sys.Snapshot())
		tr.end(sp)
		if err != nil {
			return err
		}
		w.events += len(events)
	}
	sp := tr.begin("persist.checkpoint")
	err := w.mgr.Checkpoint()
	tr.end(sp)
	return err
}

func (w *zooWorkload) check(_ int, tr *tracer) int { return w.sample(w.sys, w.t-1, tr) }

func (w *zooWorkload) finish() report {
	r := w.report(w.sys)
	if !w.recovered {
		r.failed++
		r.notes = append(r.notes, "FAILED: state after Recover differs from the state before the crash")
	}
	if st := w.mgr.Stats(); st.CheckpointErrors != 0 {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("FAILED: %d checkpoint errors", st.CheckpointErrors))
	}
	r.notes = append(r.notes, fmt.Sprintf("state directory %s; recovered %d WAL records in %s",
		w.dir, w.replayed, w.recoverTime.Round(time.Millisecond)))
	return r
}

func (w *zooWorkload) layers(tr *tracer, ops int, m map[string]float64) error {
	totals := totalsByName(tr.spans)
	steps := float64(ops * zooRetrainEvery)
	m["core.step_ms"] = totals["persist.step"].meanMs()
	st := w.mgr.Stats()
	m["persist.wal_append_us"] = float64(st.WALAppendTime) / steps / 1e3
	m["persist.wal_bytes_per_step"] = float64(st.WALBytes) / steps
	m["persist.checkpoint_ms"] = totals["persist.checkpoint"].meanMs()
	if ckpts, err := filepath.Glob(filepath.Join(w.dir, "ckpt-*.ckpt")); err == nil && len(ckpts) > 0 {
		if fi, err := os.Stat(ckpts[len(ckpts)-1]); err == nil {
			m["persist.checkpoint_kb"] = float64(fi.Size()) / 1e3
		}
	}
	m["persist.recover_ms"] = float64(w.recoverTime) / 1e6
	m["persist.replayed_steps"] = float64(w.replayed)
	m["persist.replay_steps_per_s"] = float64(w.replayed) / w.recoverTime.Seconds()
	m["alert.evaluate_us"] = totals["alert.evaluate"].meanMs() * 1e3
	m["alert.events"] = float64(w.events)
	return w.probeLayers(w.sys, w.cfg, tr, m)
}

func (w *zooWorkload) close() {
	if w.mgr != nil {
		w.mgr.Close()
	}
	os.RemoveAll(w.dir)
}
