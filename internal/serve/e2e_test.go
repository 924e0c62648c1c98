package serve

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"orcf/internal/core"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

func waitFor(t *testing.T, cond func() bool, within time.Duration, msg string) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndCollectAndServe runs the full distributed composition in one
// process: node agents filter a trace through the adaptive policy (§V-A)
// and stream the surviving measurements to a TCP collector (what
// cmd/nodeagent does), a StoreStepper drives the pipeline from the store
// (what cmd/forecastd does), and the serving plane answers HTTP queries —
// which must agree exactly with calling System.Forecast directly.
func TestEndToEndCollectAndServe(t *testing.T) {
	t.Parallel()
	const (
		nodes = 10
		steps = 40
	)

	store := transport.NewStore()
	collector, err := transport.NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := collector.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer collector.Close()

	stepper, err := NewStoreStepper(store, core.Config{
		Nodes: nodes, Resources: 2, K: 3, InitialCollection: 20, RetrainEvery: 25,
		MPrime: 3, Seed: 9, SnapshotHorizon: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Source: stepper.System()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()

	// Edge side: one TCP client + adaptive policy per node.
	clients := make([]*transport.BatchClient, nodes)
	policies := make([]transmit.Policy, nodes)
	stored := make([][]float64, nodes)
	for i := range clients {
		if clients[i], err = transport.DialBatch(addr, i, transport.BatchOptions{}); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Close()
		if policies[i], err = transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.5}); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewPCG(33, 0))
	sent := make([]int, nodes) // last transmitted step per node
	for step := 1; step <= steps; step++ {
		x := testStep(rng, nodes)
		for i := range clients {
			if !policies[i].Decide(step, x[i], stored[i]) {
				continue
			}
			if err := clients[i].Send(step, x[i]); err != nil {
				t.Fatal(err)
			}
			if err := clients[i].Flush(); err != nil {
				t.Fatal(err)
			}
			stored[i] = append(stored[i][:0], x[i]...)
			sent[i] = step
		}
		// The collector applies measurements asynchronously; wait until every
		// transmission of this step landed before ticking the pipeline.
		waitFor(t, func() bool {
			for i, s := range sent {
				if s == 0 {
					continue
				}
				if m, ok := store.Latest(i); !ok || m.Step < s {
					return false
				}
			}
			return true
		}, 5*time.Second, "collector never ingested this step's transmissions")

		res, ok, err := stepper.Tick()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("tick %d refused: not all nodes reported (adaptive policy must transmit at t=1)", step)
		}
		if res.T != step {
			t.Fatalf("pipeline step %d, want %d", res.T, step)
		}
	}

	sys := stepper.System()
	if !sys.Ready() {
		t.Fatal("system not ready after warmup")
	}

	// The served forecast must agree exactly with the direct call: both run
	// the same reconstruction over the same snapshot window, and JSON
	// round-trips float64 exactly.
	direct, err := sys.Forecast(4)
	if err != nil {
		t.Fatal(err)
	}
	var fr ForecastResponse
	getJSON(t, hs.URL+"/v1/forecast?h=4", &fr)
	if fr.Generation != sys.Snapshot().Generation() || fr.Step != steps {
		t.Fatalf("forecast meta %+v", fr)
	}
	for hi := range direct {
		for i := range direct[hi] {
			for d := range direct[hi][i] {
				if direct[hi][i][d] != fr.Forecast[hi][i][d] {
					t.Fatalf("served [%d][%d][%d]=%v, System.Forecast says %v",
						hi, i, d, fr.Forecast[hi][i][d], direct[hi][i][d])
				}
			}
		}
	}

	// Node view: the served measurement is the store's latest for that node,
	// and the realized frequency reflects the adaptive policy's filtering
	// (strictly between "never" and "always" — and it must not be the 100%
	// a central re-run of the policy on dense data would report).
	var nr NodeResponse
	getJSON(t, hs.URL+"/v1/nodes/3", &nr)
	m, _ := store.Latest(3)
	if len(nr.Measurement) != 2 || nr.Measurement[0] != m.Values[0] || nr.Measurement[1] != m.Values[1] {
		t.Fatalf("node measurement %v, store has %v", nr.Measurement, m.Values)
	}
	if len(nr.Clusters) != 2 {
		t.Fatalf("node clusters %v", nr.Clusters)
	}
	if nr.Frequency <= 0 || nr.Frequency >= 1 {
		t.Fatalf("node frequency %v, want in (0,1): arrivals must mirror the edge policy", nr.Frequency)
	}

	var st StatsResponse
	getJSON(t, hs.URL+"/v1/stats", &st)
	if st.Step != steps || !st.Ready || st.Nodes != nodes {
		t.Fatalf("stats %+v", st)
	}
	if st.MeanFrequency <= 0.2 || st.MeanFrequency >= 1 {
		t.Fatalf("mean frequency %v implausible for budget 0.5", st.MeanFrequency)
	}
}
