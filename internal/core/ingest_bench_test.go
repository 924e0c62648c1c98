package core

import (
	"math"
	"testing"

	"orcf/internal/transmit"
)

// foreignAdaptive is an Adaptive policy under a type the ingest walk does not
// know: it takes the walk's generic arm (gather the stored row, call Decide
// through the interface) with the same decisions as the policy it embeds.
type foreignAdaptive struct{ *transmit.Adaptive }

// BenchmarkIngest times layer 1 of a step alone — checkStep and the ingest
// walk, whose policies decide slot by slot, the store staged but nothing
// clustered — at N = 10 000 and reports ns per node, so a regression of the
// walk (a gather, a per-node loop, a dispatch coming back) shows without the
// repository benchmark. The foreign case is the walk's generic policy arm;
// the silent case leaves 30 % of the rows nil, a different 30 % each step.
// The arrivals case is the central node alone: an edge-less System whose
// walk takes StepArrivals' flags instead of deciding, every row contacted and
// a different 30 % of them arrived each step.
func BenchmarkIngest(b *testing.B) {
	const n = 10000
	cases := []struct {
		name    string
		d       int
		joint   bool
		foreign bool
		silent  int // rows out of 10 that are nil
		arrived int // rows out of 10 that arrived; 0: the policies decide
	}{
		{name: "d2-scalar-adaptive", d: 2},
		{name: "d4-joint-adaptive", d: 4, joint: true},
		{name: "d2-scalar-foreign", d: 2, foreign: true},
		{name: "d2-scalar-30pct-silent", d: 2, silent: 3},
		{name: "d2-scalar-arrivals", d: 2, arrived: 3},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			cfg := Config{
				Nodes: n, Resources: c.d, K: 3, JointClustering: c.joint,
				Policy: func(int) (transmit.Policy, error) {
					p, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.3})
					if err != nil || !c.foreign {
						return p, err
					}
					return foreignAdaptive{p}, nil
				},
			}
			newSys := NewSystem
			if c.arrived > 0 {
				newSys = NewCentral
			}
			sys, err := newSys(cfg)
			if err != nil {
				b.Fatal(err)
			}
			inputs := make([][][]float64, 16)
			arrivals := make([][]bool, len(inputs))
			for s := range inputs {
				inputs[s] = make([][]float64, n)
				arrivals[s] = make([]bool, n)
				for i := range inputs[s] {
					arrivals[s][i] = (i+s)%10 < c.arrived
					if (i+s)%10 < c.silent {
						continue
					}
					row := make([]float64, c.d)
					for r := range row {
						row[r] = 0.2 + 0.3*float64((i+r)%3) + 0.05*math.Sin(float64(s)*math.Pi/8+float64(i))
					}
					inputs[s][i] = row
				}
			}
			step := 0
			ingest := func() {
				x, arrived := inputs[step%len(inputs)], arrivals[step%len(inputs)]
				step++
				if c.arrived == 0 {
					arrived = nil
				}
				if err := sys.checkStep(x, arrived); err != nil {
					b.Fatal(err)
				}
				sys.t++
				sys.ingest(x, arrived)
			}
			for range 64 {
				ingest()
			}
			b.ResetTimer()
			for range b.N {
				ingest()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/node")
		})
	}
}
