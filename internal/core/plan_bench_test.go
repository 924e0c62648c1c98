package core

import (
	"fmt"
	"testing"

	"orcf/internal/trace"
)

// BenchmarkPlanBuild times one fleet plan build — what every publishing step
// pays after the ring commit — and reports ns per slot (make bench runs it
// with -cpu 1, on one worker), at the zoo_durable and ingest_serve fleet
// sizes, under per-resource clustering at d = 2 (the paper's configuration,
// one dimension per tracker) and joint clustering at d = 4. The fleet replays the repository benchmark's trace
// generator for a full look-back window past training, so the mode rule, the
// offset sums and the α clamp of the nodes that changed cluster all run.
func BenchmarkPlanBuild(b *testing.B) {
	for _, c := range []struct {
		name  string
		d     int
		joint bool
	}{{"scalar-d2", 2, false}, {"joint-d4", 4, true}} {
		for _, n := range []int{512, 4096} {
			b.Run(fmt.Sprintf("N=%d-%s", n, c.name), func(b *testing.B) {
				cfg := churnConfig(n)
				cfg.Resources = c.d
				cfg.JointClustering = c.joint
				cfg.SnapshotHorizon = 12
				sys, err := NewSystem(cfg)
				if err != nil {
					b.Fatal(err)
				}
				steps := cfg.InitialCollection + 2*cfg.MPrime
				ds, err := trace.Generate(trace.GeneratorConfig{
					Name: "plan-bench", Nodes: n, Steps: steps, Resources: c.d, Seed: 1,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, x := range ds.Data {
					if _, err := sys.Step(x); err != nil {
						b.Fatal(err)
					}
				}
				snap := sys.Snapshot()
				if !snap.Ready() {
					b.Fatal("models not trained after the warm-up")
				}
				env := sys.reconEnv()
				for b.Loop() {
					env.plan(snap.plan.cent)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/slot")
			})
		}
	}
}
