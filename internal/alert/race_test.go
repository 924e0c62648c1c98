package alert

import (
	"runtime"
	"sync"
	"testing"

	"orcf/internal/core"
)

// TestEngineConcurrentWithSteppingAndChurn drives rule evaluation, /v1/alerts
// style reads, and stats collection from many goroutines while the single
// stepping goroutine keeps publishing snapshots and churning fleet
// membership. Under -race (RACE_PKGS covers this package) it proves the
// engine's locking composes with the snapshot plane's immutability: readers
// never need the stepper's cooperation. Not parallel: it runs at GOMAXPROCS
// 2 at least, so the steps fan out.
func TestEngineConcurrentWithSteppingAndChurn(t *testing.T) {
	prev := runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0)))
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	const steps = 120
	sys := newTestSystem(t, 6, func(c *core.Config) { c.InitialCollection = 5 })
	engine, err := New(Config{
		Rules: &RuleSet{StepsPerHour: 1, Rules: []Rule{
			{Name: "cluster-hot", Kind: KindThreshold, Scope: ScopeCluster, Cluster: -1,
				Above: true, Threshold: 0.6, FireStreak: 2, ClearStreak: 2, ClearMargin: 0.05, Horizon: 1},
			{Name: "node-hot", Kind: KindThreshold, Scope: ScopeNode,
				Above: true, Threshold: 0.6, FireStreak: 2, ClearStreak: 2, ClearMargin: 0.05, Horizon: 3},
		}},
		Sinks: []Sink{&CollectorSink{}}, MaxHorizon: 8,
	})
	if err != nil {
		t.Fatal(err)
	}

	snaps := make(chan *core.Snapshot, steps)
	var wg sync.WaitGroup

	// The one stepping goroutine: oscillating load plus join/leave churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(snaps)
		next := 100
		for i := 0; i < steps; i++ {
			v := 0.2
			if i/10%2 == 1 {
				v = 0.9
			}
			roster := sys.Roster()
			x := make([][]float64, roster.Slots())
			for s := range x {
				if _, live := roster.IDAt(s); live {
					x[s] = []float64{v}
				}
			}
			if _, err := sys.Step(x); err != nil {
				t.Error(err)
				return
			}
			switch {
			case i%15 == 7:
				if err := sys.AddNodes(next); err != nil {
					t.Error(err)
					return
				}
				next++
			case i%15 == 14 && next > 100:
				if err := sys.RemoveNodes(next - 1); err != nil {
					t.Error(err)
					return
				}
			}
			if snap := sys.Snapshot(); snap != nil {
				snaps <- snap
			}
		}
	}()

	// Evaluators race each other for the same generations (the gen guard
	// makes duplicates no-ops) while stepping continues.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snaps {
				if _, err := engine.Evaluate(snap); err != nil {
					t.Error(err)
					return
				}
				// Re-evaluating the latest published snapshot mid-step is
				// exactly what serve-plane callers do.
				if _, err := engine.Evaluate(sys.Snapshot()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}

	// Readers poll the query-plane views concurrently with everything above.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = engine.Active()
					_ = engine.Stats()
				}
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()
	st := engine.Stats()
	if st.Evaluations == 0 {
		t.Fatal("no evaluations happened")
	}
	if st.Firing < 0 || st.Fires < st.Resolves {
		t.Fatalf("impossible accounting: %+v", st)
	}
}
