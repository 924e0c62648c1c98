package main

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"

	"orcf/internal/core"
	"orcf/internal/trace"
)

// inputs is a generated trace in a compact layout: one flat pointer-free
// array, so the benchmark's own data adds nothing for the garbage collector
// to scan, plus one reusable row view handed to Step (which copies rows).
type inputs struct {
	n, d, steps int
	flat        []float64
	rows        [][]float64
	genTime     time.Duration
}

// scenarioSeed fixes the generator's latent structure: profile levels,
// day-cycles and job bursts. How fast K-means converges, and how hard the
// centroids are to forecast, depend on that structure far more than on which
// machines are watched (±12 % on step_joint_d4's step time from one scenario
// to the next, against ±2 % for one scenario), so a run's seed must not
// redraw it or no two runs could be compared.
const scenarioSeed = 1

// genInputs generates the scenario with a quarter more machines than the
// fleet needs and lets the seed draw the fleet from it: which machines, and
// in which slot order. The program under test sees only the rows; the seed
// never reaches it.
func genInputs(n, d, steps int, seed uint64) (*inputs, error) {
	pool := n + n/4
	t0 := time.Now()
	ds, err := trace.Generate(trace.GeneratorConfig{
		Name: "orcfbench", Nodes: pool, Steps: steps, Resources: d, Seed: scenarioSeed,
	})
	genTime := time.Since(t0)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x6f726366))
	fleet := rng.Perm(pool)[:n]
	in := &inputs{n: n, d: d, steps: steps, genTime: genTime,
		flat: make([]float64, steps*n*d), rows: make([][]float64, n)}
	for t := range ds.Data {
		for i, machine := range fleet {
			copy(in.flat[(t*n+i)*d:], ds.Data[t][machine])
		}
	}
	return in, nil
}

// index maps an unbounded step counter onto the trace, walking it forwards
// then backwards so that cycling never jumps.
func (in *inputs) index(t int) int {
	p := t % (2 * in.steps)
	if p >= in.steps {
		p = 2*in.steps - 1 - p
	}
	return p
}

// row is node i's measurement at step counter t (a view; do not modify).
func (in *inputs) row(t, i int) []float64 {
	off := (in.index(t)*in.n + i) * in.d
	return in.flat[off : off+in.d : off+in.d]
}

// at points the reusable row view at step counter t.
func (in *inputs) at(t int) [][]float64 {
	for i := range in.rows {
		in.rows[i] = in.row(t, i)
	}
	return in.rows
}

// rmseAcc accumulates the paper's accuracy metric: squared error of per-node
// forecasts against the true trace, over every node and resource.
type rmseAcc struct {
	sum float64
	n   int
}

const rmseHorizon = 5

// add scores one forecast row made at step counter t for horizon h.
func (a *rmseAcc) add(in *inputs, t, h, node int, pred []float64) {
	truth := in.row(t+h, node)
	for r, p := range pred {
		if math.IsNaN(p) {
			continue // warming or tombstoned row: nothing was forecast
		}
		e := p - truth[r]
		a.sum += e * e
		a.n++
	}
}

// sample scores a per-node forecast (result[h-1][node][resource]) taken when
// the last row the system consumed was step counter last.
func (a *rmseAcc) sample(in *inputs, last int, f [][][]float64) {
	for node, pred := range f[rmseHorizon-1] {
		a.add(in, last, rmseHorizon, node, pred)
	}
}

func (a *rmseAcc) value() float64 {
	if a.n == 0 {
		return 0
	}
	return math.Sqrt(a.sum / float64(a.n))
}

// digest is an FNV-64a over integers and float bit patterns: the output
// fingerprint that must repeat exactly for a seed.
type digest struct{ h hash.Hash64 }

func newDigest() digest { return digest{fnv.New64a()} }

func (d digest) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d digest) ints(vs []int) {
	for _, v := range vs {
		d.u64(uint64(int64(v)))
	}
}

func (d digest) floats(vs []float64) {
	for _, v := range vs {
		d.u64(math.Float64bits(v))
	}
}

func (d digest) sum() uint64 { return d.h.Sum64() }

// digestStep fingerprints a step's final assignments and centroids.
func digestStep(res *core.StepResult) uint64 {
	d := newDigest()
	d.u64(uint64(res.T))
	for _, rs := range res.PerResource {
		d.ints(rs.Assignments)
		for _, c := range rs.Centroids {
			d.floats(c)
		}
	}
	return d.sum()
}

// digestState fingerprints the parts of an exported state that Step and
// Forecast read: the store, the look-back window, the frequency meters, the
// policy states and the clustering RNGs.
func digestState(st *core.State) uint64 {
	d := newDigest()
	d.u64(uint64(st.T))
	d.u64(st.Gen)
	d.ints(st.IDs)
	for _, z := range st.Z {
		d.floats(z)
	}
	for _, w := range st.Window {
		for _, z := range w.Z {
			d.floats(z)
		}
		for _, a := range w.Assignments {
			d.ints(a)
		}
		for _, tr := range w.Centroids {
			for _, c := range tr {
				d.floats(c)
			}
		}
	}
	for _, m := range st.Meters {
		d.u64(uint64(m.Steps))
		d.u64(uint64(m.Transmits))
	}
	for _, p := range st.Policies {
		d.h.Write(p)
	}
	for _, r := range st.TrackerRNGs {
		d.h.Write(r)
	}
	for _, tr := range st.Trackers {
		for _, cl := range tr.CentroidSeries {
			for _, series := range cl {
				d.floats(series)
			}
		}
	}
	return d.sum()
}
