// Package trace provides the measurement datasets the experiments run on.
//
// The paper evaluates on three proprietary/large cluster traces (Alibaba
// 2018, Bitbrains GWA-T-12 Rnd, Google cluster-usage v2) plus the Intel
// Berkeley sensor dataset for its motivational figure. None of these can be
// bundled, so this package generates synthetic traces that reproduce the
// statistical properties the paper's algorithms exploit (see the §VI-A1 row
// of the paper-equation-to-package map in docs/ARCHITECTURE.md):
//
//   - per-machine utilization in [0,1] with diurnal cycles and job bursts;
//   - latent workload profiles shared by machine groups, producing
//     short-term spatial correlation (the clustering signal);
//   - profile-membership churn, producing the weak *long-term* correlation
//     that Fig. 1 contrasts against sensor networks;
//   - weak cross-resource (CPU vs memory) correlation (Table I's finding).
//
// A CSV codec (`time,node,resource0,resource1,...`) lets users run the
// identical pipeline on real trace dumps.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrBadConfig reports an invalid generator configuration.
var ErrBadConfig = errors.New("trace: invalid configuration")

// Dataset is a dense tensor of measurements: Steps × Nodes × Resources, all
// values in [0,1].
type Dataset struct {
	// Name identifies the dataset in experiment output.
	Name string
	// Resources names each resource dimension, e.g. ["cpu", "mem"].
	Resources []string
	// Data is indexed [step][node][resource].
	Data [][][]float64
}

// Nodes returns the number of machines.
func (d *Dataset) Nodes() int {
	if len(d.Data) == 0 {
		return 0
	}
	return len(d.Data[0])
}

// Steps returns the number of time steps.
func (d *Dataset) Steps() int { return len(d.Data) }

// NumResources returns the resource dimensionality.
func (d *Dataset) NumResources() int { return len(d.Resources) }

// At returns the measurement vector of a node at a step (not a copy; callers
// must not mutate it).
func (d *Dataset) At(step, node int) []float64 { return d.Data[step][node] }

// NodeSeries extracts one node's series for one resource.
func (d *Dataset) NodeSeries(node, resource int) []float64 {
	out := make([]float64, d.Steps())
	for t := range d.Data {
		out[t] = d.Data[t][node][resource]
	}
	return out
}

// Slice returns a view dataset restricted to the given node and step counts
// (prefixes). It shares the underlying data.
func (d *Dataset) Slice(steps, nodes int) (*Dataset, error) {
	if steps < 1 || steps > d.Steps() || nodes < 1 || nodes > d.Nodes() {
		return nil, fmt.Errorf("trace: slice %d×%d of %d×%d: %w",
			steps, nodes, d.Steps(), d.Nodes(), ErrBadConfig)
	}
	data := make([][][]float64, steps)
	for t := 0; t < steps; t++ {
		data[t] = d.Data[t][:nodes]
	}
	return &Dataset{Name: d.Name, Resources: d.Resources, Data: data}, nil
}

// crossResourceCorr couples resource 1.. to resource 0 per profile; the
// paper finds this coupling weak.
const crossResourceCorr = 0.2

// GeneratorConfig controls the synthetic workload generator.
type GeneratorConfig struct {
	// Name labels the resulting dataset.
	Name string
	// Nodes is the number of machines. Required.
	Nodes int
	// Steps is the trace length. Required.
	Steps int
	// Resources is the number of resource types (CPU, memory, …).
	// Zero means 2.
	Resources int
	// Profiles is the number of latent workload archetypes machines follow.
	// Zero means 6.
	Profiles int
	// ChurnProb is the per-node per-step probability of migrating to a
	// different profile (task rescheduling). Drives the weak long-term
	// correlation. Zero means 0.002.
	ChurnProb float64
	// DiurnalPeriod is the number of steps per day-cycle. Zero means 288.
	DiurnalPeriod int
	// DiurnalAmp scales each profile's day-cycle amplitude: the amplitude
	// is drawn uniformly from [0.5, 1.5]·DiurnalAmp. Zero means 0.1;
	// negative disables the cycle. User-facing services have strong cycles;
	// batch clusters have weak ones.
	DiurnalAmp float64
	// BurstProb is the per-profile per-step probability of a job burst
	// starting. Zero means 0.01.
	BurstProb float64
	// BurstLen is the mean burst duration in steps. Zero means 30.
	BurstLen int
	// NodeBurstProb is the per-node per-step probability of an individual
	// task burst starting (the transient fluctuations that make per-node
	// forecasting noisy, §VI-D1). Zero means 0.01.
	NodeBurstProb float64
	// NodeBurstLen is the mean node-burst duration. Zero means 12.
	NodeBurstLen int
	// NodeWanderStd is the innovation of each node's slow AR(1) drift.
	// Zero means 0.004.
	NodeWanderStd float64
	// NoiseStd is the per-node white measurement noise. Zero means 0.004.
	// Real utilization traces are temporally correlated, so most per-node
	// variability should come from bursts and wander, not this term.
	NoiseStd float64
	// OffsetStd is the spread of static per-node offsets. Zero means 0.05.
	OffsetStd float64
	// Quantum rounds reported values to this granularity, imitating
	// monitoring agents that report utilization as rounded percentages.
	// Quantization creates the exactly-flat stretches that the adaptive
	// transmission policy banks budget on. Zero means 0.01; negative
	// disables quantization.
	Quantum float64
	// IdleProb is the fraction of machines that sit near-idle at a constant
	// low utilization with only rare activity, as real cluster traces
	// exhibit. Idle machines produce exactly-constant quantized rows, which
	// is what makes sample covariances singular for the Gaussian baselines
	// (§VI-E). Zero means 0.15; negative disables idle machines.
	IdleProb float64
	// TwinProb is the fraction of machines that mirror another machine's
	// utilization almost exactly (load-balanced replicas). Twin pairs make
	// the sample covariance nearly collinear, which is the multicollinearity
	// that destabilizes the Gaussian baselines' regression (§VI-E).
	// Zero means 0.15; negative disables twins.
	TwinProb float64
	// ProfileSpread widens the gap between profile base levels (0..1
	// scale). Zero means 0.5.
	ProfileSpread float64
	// Seed makes generation reproducible.
	Seed uint64
}

// Probability and scale fields follow a zero-means-default convention; pass
// a negative value to select "exactly zero" (e.g. no churn, no bursts).
// Generate rejects a probability above 1, a scale of magnitude above 1, and
// NaN or an infinity in any of them.
func (c GeneratorConfig) withDefaults() GeneratorConfig {
	if c.Resources == 0 {
		c.Resources = 2
	}
	if c.Profiles == 0 {
		c.Profiles = 6
	}
	if c.ChurnProb == 0 {
		c.ChurnProb = 0.002
	}
	if c.DiurnalPeriod == 0 {
		c.DiurnalPeriod = 288
	}
	if c.DiurnalAmp == 0 {
		c.DiurnalAmp = 0.1
	}
	if c.BurstProb == 0 {
		c.BurstProb = 0.01
	}
	if c.BurstLen == 0 {
		c.BurstLen = 30
	}
	if c.NodeBurstProb == 0 {
		c.NodeBurstProb = 0.01
	}
	if c.NodeBurstLen == 0 {
		c.NodeBurstLen = 5
	}
	if c.NodeWanderStd == 0 {
		c.NodeWanderStd = 0.004
	}
	if c.NoiseStd == 0 {
		c.NoiseStd = 0.004
	}
	if c.Quantum == 0 {
		c.Quantum = 0.01
	}
	if c.IdleProb == 0 {
		c.IdleProb = 0.15
	}
	if c.TwinProb == 0 {
		c.TwinProb = 0.15
	}
	if c.OffsetStd == 0 {
		c.OffsetStd = 0.05
	}
	if c.ProfileSpread == 0 {
		c.ProfileSpread = 0.5
	}
	// Negative sentinels mean "exactly zero".
	for _, p := range []*float64{&c.ChurnProb, &c.BurstProb, &c.NodeBurstProb,
		&c.NodeWanderStd, &c.NoiseStd, &c.OffsetStd, &c.Quantum, &c.IdleProb,
		&c.TwinProb, &c.DiurnalAmp} {
		if *p < 0 {
			*p = 0
		}
	}
	return c
}

func (c GeneratorConfig) validate() error {
	if c.Nodes < 1 || c.Steps < 1 || c.Resources < 1 {
		return fmt.Errorf("trace: %d nodes × %d steps × %d resources: %w",
			c.Nodes, c.Steps, c.Resources, ErrBadConfig)
	}
	if c.Nodes > math.MaxInt/c.Steps/c.Resources {
		return fmt.Errorf("trace: %d nodes × %d steps × %d resources overflows: %w",
			c.Nodes, c.Steps, c.Resources, ErrBadConfig)
	}
	// NaN fails every comparison, so each bound is written to reject it.
	for _, p := range []float64{c.ChurnProb, c.BurstProb, c.NodeBurstProb, c.IdleProb, c.TwinProb} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("trace: probability %v outside [0,1]: %w", p, ErrBadConfig)
		}
	}
	// Scales are on the [0, 1] utilization axis; bounding them keeps every
	// sum the generator forms finite (1e308 offsets and noise overflow to
	// opposite infinities, whose sum is NaN), and a +Inf quantum would
	// quantize every value to 0·Inf.
	for _, v := range []float64{c.DiurnalAmp, c.NodeWanderStd, c.NoiseStd, c.OffsetStd, c.Quantum, c.ProfileSpread} {
		if !(math.Abs(v) <= 1) {
			return fmt.Errorf("trace: scale %v outside [-1, 1]: %w", v, ErrBadConfig)
		}
	}
	if c.Profiles < 1 {
		return fmt.Errorf("trace: %d profiles: %w", c.Profiles, ErrBadConfig)
	}
	// A burst lasts 1 + IntN(2·len) steps, so 2·len must be a positive int.
	if c.BurstLen < 1 || c.BurstLen > math.MaxInt/2 ||
		c.NodeBurstLen < 1 || c.NodeBurstLen > math.MaxInt/2 {
		return fmt.Errorf("trace: burst lengths %d and %d outside [1, MaxInt/2]: %w",
			c.BurstLen, c.NodeBurstLen, ErrBadConfig)
	}
	return nil
}

// profileState is the latent per-profile, per-resource process.
type profileState struct {
	base      float64
	amp       float64
	phase     float64
	wander    float64 // AR(1) state
	burstLeft int
	burstMag  float64
}

// nodeState is one node's generator state for one resource: its static
// offset, slow AR(1) wander and transient task burst.
type nodeState struct {
	offset    float64
	wander    float64
	burstMag  float64
	burstLeft int
}

// newFrame returns a zeroed steps × nodes × width Dataset.Data backed by one
// array. Every row is a capacity-capped view into it, and so is every step,
// so appending to a row or a step never writes into its neighbour.
func newFrame(steps, nodes, width int) [][][]float64 {
	frame := make([]float64, steps*nodes*width)
	rows := make([][]float64, steps*nodes)
	for k := range rows {
		rows[k] = frame[k*width : (k+1)*width : (k+1)*width]
	}
	data := make([][][]float64, steps)
	for t := range data {
		data[t] = rows[t*nodes : (t+1)*nodes : (t+1)*nodes]
	}
	return data
}

// Generate produces a synthetic dataset, written into one frame (see
// newFrame): it allocates nothing per step or per row.
func Generate(cfg GeneratorConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x51a5_cafe_f00d_beef))
	nodes, nRes := cfg.Nodes, cfg.Resources

	resources := make([]string, nRes)
	for r := range resources {
		switch r {
		case 0:
			resources[r] = "cpu"
		case 1:
			resources[r] = "mem"
		default:
			resources[r] = fmt.Sprintf("res%d", r)
		}
	}

	// Initialize profiles, indexed [profile·R + resource]: base levels
	// spread across [0.15, 0.15+spread].
	profiles := make([]profileState, cfg.Profiles*nRes)
	for g := 0; g < cfg.Profiles; g++ {
		baseCPU := 0.15 + cfg.ProfileSpread*float64(g)/float64(max(cfg.Profiles-1, 1))
		for r := 0; r < nRes; r++ {
			base := baseCPU
			if r > 0 {
				// Other resources: partially independent level.
				base = 0.15 + cfg.ProfileSpread*rng.Float64()
				base = crossResourceCorr*baseCPU + (1-crossResourceCorr)*base
			}
			profiles[g*nRes+r] = profileState{
				base:  base,
				amp:   cfg.DiurnalAmp * (0.5 + rng.Float64()),
				phase: 2 * math.Pi * rng.Float64(),
			}
		}
	}

	// Node state: profile membership, and per resource (indexed
	// [node·R + resource]) a static offset, slow AR(1) wander and transient
	// task bursts. Idle machines replace the profile signal with a constant
	// low level and rare activity.
	membership := make([]int, nodes)
	state := make([]nodeState, nodes*nRes)
	idleLevel := make([]float64, nodes) // negative = active machine
	for i := range membership {
		membership[i] = rng.IntN(cfg.Profiles)
		for r := 0; r < nRes; r++ {
			state[i*nRes+r].offset = cfg.OffsetStd * rng.NormFloat64()
		}
		idleLevel[i] = -1
		if rng.Float64() < cfg.IdleProb {
			idleLevel[i] = 0.01 + 0.04*rng.Float64()
		}
	}
	// Twin machines mirror an earlier machine's pre-quantization signal.
	twinOf := make([]int, nodes)
	for i := range twinOf {
		twinOf[i] = -1
		if i > 0 && rng.Float64() < cfg.TwinProb {
			twinOf[i] = rng.IntN(i)
		}
	}

	data := newFrame(cfg.Steps, nodes, nRes)
	values := make([]float64, cfg.Profiles*nRes) // this step's profile values
	// pre holds this step's pre-quantization values, [node·R + resource], so
	// twin machines can mirror their target.
	pre := make([]float64, nodes*nRes)
	for t := 0; t < cfg.Steps; t++ {
		// Advance profiles.
		for k := range profiles {
			ps := &profiles[k]
			ps.wander = 0.995*ps.wander + 0.004*rng.NormFloat64()
			if ps.burstLeft > 0 {
				ps.burstLeft--
			} else if rng.Float64() < cfg.BurstProb {
				ps.burstLeft = 1 + rng.IntN(2*cfg.BurstLen)
				ps.burstMag = 0.1 + 0.2*rng.Float64()
				if rng.Float64() < 0.4 {
					ps.burstMag = -ps.burstMag
				}
			}
			v := ps.base +
				ps.amp*math.Sin(2*math.Pi*float64(t)/float64(cfg.DiurnalPeriod)+ps.phase) +
				ps.wander
			if ps.burstLeft > 0 {
				v += ps.burstMag
			}
			values[k] = v
		}
		// Node churn and measurement.
		for i, vals := range data[t] {
			if cfg.Profiles > 1 && rng.Float64() < cfg.ChurnProb {
				next := rng.IntN(cfg.Profiles - 1)
				if next >= membership[i] {
					next++
				}
				membership[i] = next
			}
			lo, hi := i*nRes, (i+1)*nRes
			p, ns := pre[lo:hi:hi], state[lo:hi:hi]
			switch {
			case twinOf[i] >= 0:
				// Replica machine: mirrors its target's signal with only
				// tiny divergence — the multicollinearity case.
				src := pre[twinOf[i]*nRes:]
				for r := range p {
					p[r] = src[r] + 0.002*rng.NormFloat64()
				}
			case idleLevel[i] >= 0:
				// Idle machine: constant level, rare short activity spikes
				// (e.g. cron jobs), no profile signal. After quantization
				// the reported value is exactly constant most of the time.
				for r := range p {
					s := &ns[r]
					v := idleLevel[i]
					if s.burstLeft > 0 {
						s.burstLeft--
						v += s.burstMag
					} else if rng.Float64() < cfg.NodeBurstProb/5 {
						s.burstLeft = 1 + rng.IntN(2*cfg.NodeBurstLen)
						s.burstMag = 0.1 + 0.3*rng.Float64()
					}
					p[r] = v
				}
			default:
				prof := values[membership[i]*nRes:]
				for r := range p {
					s := &ns[r]
					s.wander = 0.995*s.wander + cfg.NodeWanderStd*rng.NormFloat64()
					if s.burstLeft > 0 {
						s.burstLeft--
					} else if rng.Float64() < cfg.NodeBurstProb {
						s.burstLeft = 1 + rng.IntN(2*cfg.NodeBurstLen)
						s.burstMag = 0.15 + 0.3*rng.Float64()
						if rng.Float64() < 0.4 {
							s.burstMag = -s.burstMag
						}
					}
					v := prof[r] + s.offset + s.wander + cfg.NoiseStd*rng.NormFloat64()
					if s.burstLeft > 0 {
						v += s.burstMag
					}
					p[r] = v
				}
			}
			for r, v := range p {
				if cfg.Quantum > 0 {
					v = math.Round(v/cfg.Quantum) * cfg.Quantum
				}
				vals[r] = clamp01(v)
			}
		}
	}
	return &Dataset{Name: cfg.Name, Resources: resources, Data: data}, nil
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// Preset identifies one of the evaluation datasets.
type Preset struct {
	// Name of the dataset the preset imitates.
	Name string
	// PaperNodes and PaperSteps are the full scale reported in §VI-A1.
	PaperNodes, PaperSteps int
	cfg                    GeneratorConfig
}

// AlibabaLike imitates the Alibaba-2018 trace: 4,000 machines over 8 days at
// 1-minute sampling (11,519 steps as used in Table II), with heavy bursts
// and frequent task migration.
func AlibabaLike() Preset {
	return Preset{
		Name: "alibaba", PaperNodes: 4000, PaperSteps: 11519,
		cfg: GeneratorConfig{
			Name: "alibaba", Resources: 2, Profiles: 8,
			DiurnalPeriod: 1440, ChurnProb: 0.012,
			BurstProb: 0.02, BurstLen: 40,
			NodeBurstProb: 0.12, NodeBurstLen: 2,
			NoiseStd: 0.004, OffsetStd: 0.03, ProfileSpread: 0.55,
		},
	}
}

// BitbrainsLike imitates the Bitbrains GWA-T-12 Rnd trace: 500 machines over
// one month at 5-minute sampling (8,259 steps as used in Table II).
func BitbrainsLike() Preset {
	return Preset{
		Name: "bitbrains", PaperNodes: 500, PaperSteps: 8259,
		cfg: GeneratorConfig{
			Name: "bitbrains", Resources: 2, Profiles: 5,
			DiurnalPeriod: 288, ChurnProb: 0.004,
			BurstProb: 0.008, BurstLen: 25,
			NodeBurstProb: 0.1, NodeBurstLen: 2,
			NoiseStd: 0.004, OffsetStd: 0.03, ProfileSpread: 0.5,
		},
	}
}

// GoogleLike imitates the Google cluster-usage v2 trace: 12,476 machines over
// 29 days at 5-minute sampling (8,350 steps as used in Table II).
func GoogleLike() Preset {
	return Preset{
		Name: "google", PaperNodes: 12476, PaperSteps: 8350,
		cfg: GeneratorConfig{
			Name: "google", Resources: 2, Profiles: 10,
			DiurnalPeriod: 288, ChurnProb: 0.009,
			BurstProb: 0.015, BurstLen: 30,
			NodeBurstProb: 0.12, NodeBurstLen: 2,
			NoiseStd: 0.004, OffsetStd: 0.025, ProfileSpread: 0.6,
		},
	}
}

// SensorLike imitates the Intel Berkeley lab dataset used in Fig. 1:
// temperature and humidity at 54 motes over 12 days. All nodes share one
// strong environmental signal, so pairwise correlations are high — the
// opposite of the cluster traces.
func SensorLike() Preset {
	return Preset{
		Name: "sensor", PaperNodes: 54, PaperSteps: 3456,
		cfg: GeneratorConfig{
			Name: "sensor", Resources: 2, Profiles: 1,
			DiurnalPeriod: 288, ChurnProb: -1, // membership never changes
			BurstProb: 0.002, BurstLen: 10,
			NodeBurstProb: -1, NodeWanderStd: 0.002, IdleProb: -1, TwinProb: -1,
			NoiseStd: 0.015, OffsetStd: 0.08, ProfileSpread: 0.01,
		},
	}
}

// Generate materializes the preset at the given scale: nodes/steps of zero
// mean paper scale; otherwise they override. The seed keeps runs
// reproducible.
func (p Preset) Generate(nodes, steps int, seed uint64) (*Dataset, error) {
	cfg := p.cfg
	cfg.Nodes = p.PaperNodes
	cfg.Steps = p.PaperSteps
	if nodes > 0 {
		cfg.Nodes = nodes
	}
	if steps > 0 {
		cfg.Steps = steps
	}
	cfg.Seed = seed
	// Sensor profile amplitude boost: one strong shared diurnal signal.
	d, err := Generate(cfg)
	if err != nil {
		return nil, err
	}
	return d, nil
}
