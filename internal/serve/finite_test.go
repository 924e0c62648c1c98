package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/obs"
	"orcf/internal/transport"
)

// TestTickRejectsMalformedMeasurement pins what a record the pipeline cannot
// digest costs: the wire decoder admits any float bits and any width, zero
// included, so a NaN, an infinity or a wrong-dims record reaches the store
// as a node's latest. The tick succeeds, the sender goes without a row for
// as long as the record stays its latest, the record is counted once however
// many ticks meet it, a node whose first record is malformed is not joined —
// and every step result and forecast equals, bit for bit, those of a run in
// which the bad agent sent nothing at all.
func TestTickRejectsMalformedMeasurement(t *testing.T) {
	t.Parallel()
	const (
		nodes     = 4
		badNode   = 1
		newNode   = 9
		badFrom   = 13 // badNode's malformed record is its latest in [badFrom, badUntil)
		badUntil  = 15
		joinTick  = 17 // newNode's first well-formed record
		lastTick  = 20
		wantCount = 2 // one record of badNode, one of newNode
	)
	for name, bad := range map[string][]float64{
		"NaN":        {0.3, math.NaN()},
		"+Inf":       {math.Inf(1), 0.3},
		"-Inf":       {0.3, math.Inf(-1)},
		"1e160":      {0.3, 1e160},
		"past -100":  {math.Nextafter(-100, math.Inf(-1)), 0.3},
		"dims short": {0.3},
		"dims long":  {0.3, 0.3, 0.3},
		"dims zero":  {},
	} {
		// run steps a fleet through the scenario; with malformed the bad
		// agents send bad, without they stay silent.
		type tickOut struct {
			res      string // the StepResult's slices are views valid until the next Step
			forecast [][][]float64
		}
		run := func(malformed bool) ([]tickOut, *StoreStepper, *obs.Registry) {
			cfg := tickCfg(nodes)
			cfg.AbsenceTimeout = 3 // silence is an absence tick, not a repeat of the last value
			store := transport.NewStore()
			stepper, err := NewStoreStepper(store, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			stepper.RegisterMetrics(reg)
			var out []tickOut
			for tick := 1; tick <= lastTick; tick++ {
				ids := []int{0, 2, 3}
				if tick < badFrom || tick >= badUntil {
					ids = append(ids, badNode)
				}
				if tick >= joinTick {
					ids = append(ids, newNode)
				}
				fillStore(store, ids, tick)
				if malformed && tick == badFrom {
					store.Apply(transport.Measurement{Node: badNode, Step: tick, Values: bad})
				}
				if malformed && tick == badUntil {
					store.Apply(transport.Measurement{Node: newNode, Step: tick, Values: bad})
				}
				res, ok, err := stepper.Tick()
				if err != nil || !ok {
					t.Fatalf("%s: malformed=%v tick %d: ok=%v err=%v", name, malformed, tick, ok, err)
				}
				if tick >= badFrom && tick < badUntil && stepper.x[badNode] != nil {
					t.Fatalf("%s: malformed=%v tick %d: node %d was fed a row", name, malformed, tick, badNode)
				}
				if tick < joinTick && isMember(stepper.System(), newNode) {
					t.Fatalf("%s: malformed=%v tick %d: node %d joined without a well-formed record", name, malformed, tick, newNode)
				}
				o := tickOut{res: fmt.Sprintf("%+v", *res)}
				if stepper.System().Ready() {
					if o.forecast, err = stepper.System().Forecast(3); err != nil {
						t.Fatal(err)
					}
				}
				out = append(out, o)
			}
			return out, stepper, reg
		}
		got, stepper, reg := run(true)
		want, _, _ := run(false)
		for i := range want {
			if got[i].res != want[i].res {
				t.Fatalf("%s: tick %d: step result differs from the silent run:\n got %s\nwant %s",
					name, i+1, got[i].res, want[i].res)
			}
			if !forecastsBitEqual(got[i].forecast, want[i].forecast) {
				t.Fatalf("%s: tick %d: forecast differs from the silent run", name, i+1)
			}
		}
		if !isMember(stepper.System(), newNode) {
			t.Errorf("%s: node %d did not join on its well-formed record", name, newNode)
		}
		if n := stepper.rejected.Value(); n != wantCount {
			t.Errorf("%s: %d rejected records counted, want %d", name, n, wantCount)
		}
		var prom strings.Builder
		if err := reg.WritePrometheus(&prom); err != nil {
			t.Fatal(err)
		}
		if line := fmt.Sprintf("orcf_ingest_rejected_records_total %d\n", wantCount); !strings.Contains(prom.String(), line) {
			t.Errorf("%s: /metrics lacks %q", name, line)
		}
	}
}

// TestTickSurvivesHugeFiniteRecord: one node sending a finite value that a
// model fit cannot take is kept out like a NaN — 1e160, whose square
// overflows an AR fit's normal equations, and 1e7, which swamps
// lagged-ridge's fixed ridge penalty so its normal equations fail to factor.
// Every tick succeeds, through the first fit and two retrains, each such
// record is counted once, and a node at the bound, 100, is admitted.
func TestTickSurvivesHugeFiniteRecord(t *testing.T) {
	t.Parallel()
	const (
		nodes    = 8
		hugeFrom = 5
		lastTick = 45
	)
	for _, tc := range []struct {
		zoo  []string
		huge float64
	}{
		{[]string{"sample-and-hold", "ar"}, 1e160},
		{[]string{"lagged-ridge"}, 1e7},
	} {
		zoo, err := forecast.Zoo(tc.zoo...)
		if err != nil {
			t.Fatal(err)
		}
		cfg := core.Config{Nodes: nodes, Resources: 1, K: 2, InitialCollection: 20, RetrainEvery: 10, Seed: 3, Zoo: zoo}
		store := transport.NewStore()
		stepper, err := NewStoreStepper(store, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for tick := 1; tick <= lastTick; tick++ {
			for id := 0; id < nodes; id++ {
				v := 0.2 + 0.5*float64(id%2) + 0.01*float64((tick+id)%7)
				switch {
				case tick < hugeFrom:
				case id == 0:
					v = tc.huge
				case id == 1:
					v = 100
				}
				store.Apply(transport.Measurement{Node: id, Step: tick, Values: []float64{v}})
			}
			if _, ok, err := stepper.Tick(); err != nil || !ok {
				t.Fatalf("%v, node 0 at %g: tick %d: ok=%v err=%v", tc.zoo, tc.huge, tick, ok, err)
			}
		}
		if !stepper.System().Ready() {
			t.Fatalf("%v: never trained", tc.zoo)
		}
		if n, want := stepper.rejected.Value(), int64(lastTick-hugeFrom+1); n != want {
			t.Errorf("%v: %d rejected records counted, want %d (node 0's from tick %d on)", tc.zoo, n, want, hugeFrom)
		}
	}
}

// TestMalformedFirstRecordKeepsGateShut pins the bootstrap side of the same
// rule: a malformed first record is no report, so the first step waits for a
// well-formed one instead of starting below K or failing.
func TestMalformedFirstRecordKeepsGateShut(t *testing.T) {
	t.Parallel()
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, tickCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	store.Apply(transport.Measurement{Node: 0, Step: 1, Values: []float64{0.1, 0.2}})
	store.Apply(transport.Measurement{Node: 1, Step: 1, Values: []float64{0.3, math.NaN()}})
	for i := 0; i < 2; i++ {
		if _, ok, err := stepper.Tick(); ok || err != nil {
			t.Fatalf("tick on a malformed first record: ok=%v err=%v, want a closed gate", ok, err)
		}
	}
	if n := stepper.rejected.Value(); n != 1 {
		t.Errorf("%d rejected records counted over two ticks, want 1", n)
	}
	store.Apply(transport.Measurement{Node: 1, Step: 2, Values: []float64{0.3, 0.4}})
	if _, ok, err := stepper.Tick(); !ok || err != nil {
		t.Fatalf("tick after the well-formed record: ok=%v err=%v", ok, err)
	}
}

// TestFiniteGuards pins the response-side guards: inputs that are already
// finite come back unchanged (no copy), non-finite elements are zeroed in a
// copy, and the original is never mutated (response paths hold
// snapshot-owned, frozen slices).
func TestFiniteGuards(t *testing.T) {
	t.Parallel()
	if got := Finite64(3.5); got != 3.5 {
		t.Errorf("Finite64(3.5) = %v", got)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if got := Finite64(bad); got != 0 {
			t.Errorf("Finite64(%v) = %v, want 0", bad, got)
		}
	}

	clean := []float64{1, 2, 3}
	if got := FiniteRow(clean); &got[0] != &clean[0] {
		t.Error("FiniteRow copied an already-finite row")
	}
	dirty := []float64{1, math.NaN(), 3}
	fixed := FiniteRow(dirty)
	if &fixed[0] == &dirty[0] {
		t.Error("FiniteRow repaired in place instead of copying")
	}
	if !math.IsNaN(dirty[1]) {
		t.Error("FiniteRow mutated its argument")
	}
	if fixed[0] != 1 || fixed[1] != 0 || fixed[2] != 3 {
		t.Errorf("FiniteRow = %v, want [1 0 3]", fixed)
	}

	rows := [][]float64{{1, 2}, {math.Inf(1), 4}, {5, 6}}
	fixedRows := FiniteRows(rows)
	if &fixedRows[0] == &rows[0] {
		t.Error("FiniteRows repaired in place instead of copying")
	}
	if !math.IsInf(rows[1][0], 1) {
		t.Error("FiniteRows mutated its argument")
	}
	if fixedRows[1][0] != 0 || fixedRows[1][1] != 4 || fixedRows[0][0] != 1 || fixedRows[2][1] != 6 {
		t.Errorf("FiniteRows = %v", fixedRows)
	}
	cleanRows := [][]float64{{1}, {}, {2}}
	if got := FiniteRows(cleanRows); &got[0] != &cleanRows[0] {
		t.Error("FiniteRows copied already-finite rows (empty row mishandled?)")
	}
}
