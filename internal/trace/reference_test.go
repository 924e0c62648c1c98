package trace

// This file preserves the slice-per-row generator, verbatim, as the
// reference oracle for the differential tests that pin the flat-frame
// Generate bit-identical: the same RNG draws in the same order and the same
// arithmetic for every value. Do not "fix" or optimize it: its exact draw
// and arithmetic order is the contract.

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// referenceGenerate is Generate as it was before the flat frame.
func referenceGenerate(cfg GeneratorConfig) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, cfg.Seed^0x51a5_cafe_f00d_beef))

	resources := make([]string, cfg.Resources)
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

	// Initialize profiles: base levels spread across [0.15, 0.15+spread].
	profiles := make([][]profileState, cfg.Profiles) // [profile][resource]
	for g := range profiles {
		profiles[g] = make([]profileState, cfg.Resources)
		baseCPU := 0.15 + cfg.ProfileSpread*float64(g)/float64(max(cfg.Profiles-1, 1))
		for r := range profiles[g] {
			base := baseCPU
			if r > 0 {
				// Other resources: partially independent level.
				base = 0.15 + cfg.ProfileSpread*rng.Float64()
				base = crossResourceCorr*baseCPU + (1-crossResourceCorr)*base
			}
			profiles[g][r] = profileState{
				base:  base,
				amp:   cfg.DiurnalAmp * (0.5 + rng.Float64()),
				phase: 2 * math.Pi * rng.Float64(),
			}
		}
	}

	// Node state: profile membership, static offset, slow AR(1) wander, and
	// transient per-node task bursts. Idle machines replace the profile
	// signal with a constant low level and rare activity.
	membership := make([]int, cfg.Nodes)
	offsets := make([][]float64, cfg.Nodes)
	nodeWander := make([][]float64, cfg.Nodes)
	nodeBurstLeft := make([][]int, cfg.Nodes)
	nodeBurstMag := make([][]float64, cfg.Nodes)
	idleLevel := make([]float64, cfg.Nodes) // negative = active machine
	for i := range membership {
		membership[i] = rng.IntN(cfg.Profiles)
		offsets[i] = make([]float64, cfg.Resources)
		nodeWander[i] = make([]float64, cfg.Resources)
		nodeBurstLeft[i] = make([]int, cfg.Resources)
		nodeBurstMag[i] = make([]float64, cfg.Resources)
		for r := range offsets[i] {
			offsets[i][r] = cfg.OffsetStd * rng.NormFloat64()
		}
		idleLevel[i] = -1
		if rng.Float64() < cfg.IdleProb {
			idleLevel[i] = 0.01 + 0.04*rng.Float64()
		}
	}
	// Twin machines mirror an earlier machine's pre-quantization signal.
	twinOf := make([]int, cfg.Nodes)
	for i := range twinOf {
		twinOf[i] = -1
		if i > 0 && rng.Float64() < cfg.TwinProb {
			twinOf[i] = rng.IntN(i)
		}
	}

	data := make([][][]float64, cfg.Steps)
	values := make([][]float64, cfg.Profiles) // per-step profile values
	for g := range values {
		values[g] = make([]float64, cfg.Resources)
	}
	for t := 0; t < cfg.Steps; t++ {
		// Advance profiles.
		for g := range profiles {
			for r := range profiles[g] {
				ps := &profiles[g][r]
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
				values[g][r] = v
			}
		}
		// Node churn and measurement. pre holds the pre-quantization values
		// of this step so twin machines can mirror their target.
		row := make([][]float64, cfg.Nodes)
		pre := make([][]float64, cfg.Nodes)
		for i := 0; i < cfg.Nodes; i++ {
			if cfg.Profiles > 1 && rng.Float64() < cfg.ChurnProb {
				next := rng.IntN(cfg.Profiles - 1)
				if next >= membership[i] {
					next++
				}
				membership[i] = next
			}
			vals := make([]float64, cfg.Resources)
			pre[i] = make([]float64, cfg.Resources)
			for r := range vals {
				var v float64
				switch {
				case twinOf[i] >= 0:
					// Replica machine: mirrors its target's signal with only
					// tiny divergence — the multicollinearity case.
					v = pre[twinOf[i]][r] + 0.002*rng.NormFloat64()
				case idleLevel[i] >= 0:
					// Idle machine: constant level, rare short activity
					// spikes (e.g. cron jobs), no profile signal. After
					// quantization the reported value is exactly constant
					// most of the time.
					v = idleLevel[i]
					if nodeBurstLeft[i][r] > 0 {
						nodeBurstLeft[i][r]--
						v += nodeBurstMag[i][r]
					} else if rng.Float64() < cfg.NodeBurstProb/5 {
						nodeBurstLeft[i][r] = 1 + rng.IntN(2*cfg.NodeBurstLen)
						nodeBurstMag[i][r] = 0.1 + 0.3*rng.Float64()
					}
				default:
					nodeWander[i][r] = 0.995*nodeWander[i][r] + cfg.NodeWanderStd*rng.NormFloat64()
					if nodeBurstLeft[i][r] > 0 {
						nodeBurstLeft[i][r]--
					} else if rng.Float64() < cfg.NodeBurstProb {
						nodeBurstLeft[i][r] = 1 + rng.IntN(2*cfg.NodeBurstLen)
						nodeBurstMag[i][r] = 0.15 + 0.3*rng.Float64()
						if rng.Float64() < 0.4 {
							nodeBurstMag[i][r] = -nodeBurstMag[i][r]
						}
					}
					v = values[membership[i]][r] + offsets[i][r] + nodeWander[i][r] +
						cfg.NoiseStd*rng.NormFloat64()
					if nodeBurstLeft[i][r] > 0 {
						v += nodeBurstMag[i][r]
					}
				}
				pre[i][r] = v
				if cfg.Quantum > 0 {
					v = math.Round(v/cfg.Quantum) * cfg.Quantum
				}
				vals[r] = clamp01(v)
			}
			row[i] = vals
		}
		data[t] = row
	}
	return &Dataset{Name: cfg.Name, Resources: resources, Data: data}, nil
}
