package main

import (
	"orcf/internal/core"
	"orcf/internal/transmit"
)

// budget is the transmission budget B of every workload (paper Fig. 3).
const budget = 0.3

func adaptivePolicy(int) (transmit.Policy, error) {
	return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
}

// stepWorkload drives core.System.Step directly at ROADMAP scale. The scalar
// variant is the paper's recommended configuration (per-resource clustering,
// warm-started refits); the joint variant clusters 4-dimensional vectors with
// a full K-means every step.
type stepWorkload struct {
	o   options
	cfg core.Config

	pipeline
	sys *core.System
	t   int // rows consumed so far
}

func newStep(o options, joint bool) workload {
	w := &stepWorkload{o: o, pipeline: newPipeline(o)}
	d, warm := 2, 1000
	if joint {
		// 400 warm-up steps, not the paper's 1000: a full refit per step
		// makes each one cost 5 ms, and set-up runs three times per run.
		d, warm = 4, 400
	}
	w.cfg = core.Config{
		Nodes: o.scaled(10000, 64), Resources: d, K: 3,
		InitialCollection: o.scaled(warm, 60),
		JointClustering:   joint,
		IncrementalRefit:  !joint,
		Policy:            adaptivePolicy,
		Seed:              1,
		PhaseObserver:     w.phases.observer(),
	}
	return w
}

func (w *stepWorkload) setup() error {
	var err error
	if w.in, err = genInputs(w.cfg.Nodes, w.cfg.Resources, 240, w.o.seed); err != nil {
		return err
	}
	w.base = liveHeap()
	if w.sys, err = core.NewSystem(w.cfg); err != nil {
		return err
	}
	for ; !w.sys.Ready(); w.t++ {
		if _, err := w.sys.Step(w.in.at(w.t)); err != nil {
			return err
		}
	}
	w.phases.reset()
	return nil
}

func (w *stepWorkload) op(_ int, tr *tracer) error {
	x := w.in.at(w.t)
	s := tr.begin("core.step")
	res, err := w.sys.Step(x)
	tr.end(s)
	if err != nil {
		return err
	}
	w.last = res
	w.t++
	return nil
}

func (w *stepWorkload) check(_ int, tr *tracer) int { return w.sample(w.sys, w.t-1, tr) }

func (w *stepWorkload) finish() report { return w.report(w.sys) }

func (w *stepWorkload) layers(tr *tracer, _ int, m map[string]float64) error {
	m["core.step_ms"] = totalsByName(tr.spans)["core.step"].meanMs()
	return w.probeLayers(w.sys, w.cfg, tr, m)
}

func (w *stepWorkload) close() {}
