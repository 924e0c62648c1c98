package serve

// The StoreStepper's arrival flags (central eq. 5 accounting) must be
// insensitive to HOW measurements reached the store — applied one at a time,
// or coalesced into batches over TCP. Identical store states at each tick
// must produce a bit-identical pipeline.

import (
	"reflect"
	"testing"
	"time"

	"orcf/internal/core"
	"orcf/internal/transport"
)

func tickCfg(nodes int) core.Config {
	return core.Config{
		Nodes: nodes, Resources: 2, K: 2, InitialCollection: 10,
		RetrainEvery: 15, MPrime: 3, Seed: 11, SnapshotHorizon: 4,
	}
}

func TestStoreStepperBatchedDeliveryBitIdentical(t *testing.T) {
	t.Parallel()
	const (
		nodes = 5
		steps = 30
	)

	// Reference run: measurements applied directly to a store (the
	// "unbatched, serial" expectation).
	direct := transport.NewStore()
	directStepper, err := NewStoreStepper(direct, tickCfg(nodes))
	if err != nil {
		t.Fatal(err)
	}

	// Networked run: the same measurements travel as batches over TCP.
	netStore := transport.NewStore()
	collector, err := transport.NewServer(netStore, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := collector.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()
	netStepper, err := NewStoreStepper(netStore, tickCfg(nodes))
	if err != nil {
		t.Fatal(err)
	}
	clients := make([]*transport.BatchClient, nodes)
	for n := range clients {
		clients[n], err = transport.DialBatch(addr, n, transport.BatchOptions{
			BatchSize: 8, Linger: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer clients[n].Close()
	}

	val := func(step, node, r int) float64 {
		return float64((step*7+node*3+r)%13) / 13
	}
	for step := 1; step <= steps; step++ {
		for n := 0; n < nodes; n++ {
			v := []float64{val(step, n, 0), val(step, n, 1)}
			// A node transmits on a per-node cadence so some ticks see
			// fresh arrivals and others do not (the arrival flags' job);
			// everyone reports at step 1 so the steppers can start.
			if step == 1 || step%(n+1) == 0 {
				direct.Apply(transport.Measurement{Node: n, Step: step, Values: append([]float64(nil), v...)})
				if err := clients[n].Send(step, v); err != nil {
					t.Fatal(err)
				}
			} else {
				direct.Advance(n, step)
				clients[n].Advance(step)
			}
		}
		// Barrier: batched delivery may lag, so wait until the networked
		// store caught up with the direct one before ticking either.
		for n := 0; n < nodes; n++ {
			if err := clients[n].Flush(); err != nil {
				t.Fatal(err)
			}
		}
		waitFor(t, func() bool {
			return reflect.DeepEqual(stripValuesAliasing(netStore.Stats()), stripValuesAliasing(direct.Stats()))
		}, 5*time.Second, "networked store never converged to the direct store")

		dRes, dOK, dErr := directStepper.Tick()
		nRes, nOK, nErr := netStepper.Tick()
		if dErr != nil || nErr != nil || !dOK || !nOK {
			t.Fatalf("step %d: direct(ok=%v err=%v) net(ok=%v err=%v)", step, dOK, dErr, nOK, nErr)
		}
		if !reflect.DeepEqual(dRes, nRes) {
			t.Fatalf("step %d: batched delivery diverged from direct delivery\n direct %+v\n net    %+v",
				step, dRes, nRes)
		}
	}

	// The snapshots (and therefore every served forecast) agree too.
	dSnap, nSnap := directStepper.System().Snapshot(), netStepper.System().Snapshot()
	if dSnap == nil || nSnap == nil {
		t.Fatal("snapshots not published")
	}
	if dSnap.Generation() != nSnap.Generation() {
		t.Fatalf("snapshot generations %d vs %d", dSnap.Generation(), nSnap.Generation())
	}
}

// stripValuesAliasing normalizes Stats maps for DeepEqual: the maps are
// value-copies already, but Latest.Values are shared slices whose identity
// differs between stores while contents must match.
func stripValuesAliasing(in map[int]transport.NodeStat) map[int]transport.NodeStat {
	out := make(map[int]transport.NodeStat, len(in))
	for k, v := range in {
		v.Latest.Values = append([]float64(nil), v.Latest.Values...)
		out[k] = v
	}
	return out
}
