package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"orcf/internal/core"
	"orcf/internal/forecast"
)

// referenceForecastBody is the pre-streaming /v1/forecast handler body, kept
// as the oracle: materialise the fleet tensor with Snapshot.Forecast, select
// the defined rows, fence them through FiniteRows and hand the struct to
// encoding/json. node < 0 asks for the fleet response.
func referenceForecastBody(t *testing.T, snap *core.Snapshot, h, node int) []byte {
	t.Helper()
	f, err := snap.Forecast(h)
	if err != nil {
		t.Fatal(err)
	}
	resp := ForecastResponse{Generation: snap.Generation(), Step: snap.Steps(), Horizon: h}
	resp.Forecast = make([][][]float64, h)
	if node >= 0 {
		slot, ok := snap.SlotOf(node)
		if !ok {
			t.Fatalf("node %d unknown", node)
		}
		for hi := range resp.Forecast {
			resp.Forecast[hi] = FiniteRows([][]float64{f[hi][slot]})
		}
		resp.Node = &node
	} else {
		roster := snap.Roster()
		resp.Nodes = make([]int, 0, roster.Live())
		var slots []int
		for i := 0; i < snap.Nodes(); i++ {
			id, live := roster.IDAt(i)
			if !live || math.IsNaN(f[0][i][0]) {
				continue
			}
			resp.Nodes = append(resp.Nodes, id)
			slots = append(slots, i)
		}
		for hi := range resp.Forecast {
			rows := make([][]float64, len(slots))
			for e, i := range slots {
				rows[e] = f[hi][i]
			}
			resp.Forecast[hi] = FiniteRows(rows)
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// seriesModel is a forecast.Model whose forecast is a fixed series, whatever
// it was fitted on: it puts chosen values — including ones no real model
// emits — at chosen horizons of the centroid forecasts.
type seriesModel struct{ series []float64 }

func (m seriesModel) Fit([]float64) error { return nil }
func (m seriesModel) Update(float64)      {}
func (m seriesModel) Name() string        { return "series" }
func (m seriesModel) Forecast(h int) ([]float64, error) {
	return append([]float64(nil), m.series[:h]...), nil
}

// seriesSystem builds a ready nine-node fleet of three tight groups whose
// every centroid forecast is series. Each node sits exactly on its centroid
// (dyadic levels, so the means are exact), which makes every eq. (12) offset
// zero and every node forecast the series itself, clamped to [0, 1].
func seriesSystem(t *testing.T, series []float64) *core.System {
	t.Helper()
	sys, err := core.NewSystem(core.Config{
		Nodes: 9, Resources: 2, K: 3, MPrime: 3, InitialCollection: 10,
		Policy: alwaysPolicy, Seed: 7, SnapshotHorizon: len(series),
		Zoo: forecast.Pinned(func() forecast.Model { return seriesModel{series} }),
	})
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, 9)
	for i := range x {
		level := 0.25 * float64(1+i/3)
		x[i] = []float64{level, level}
	}
	for step := 0; step < 14; step++ {
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	if !sys.Ready() {
		t.Fatal("series system not ready")
	}
	return sys
}

// churnedSystem is a ready fleet with a tombstoned slot (node 3 removed), a
// joiner still warming up (node 100, silent since it joined into the
// recycled slot of node 5) and everyone else forecasting normally.
func churnedSystem(t *testing.T) *core.System {
	t.Helper()
	const nodes = 10
	sys, rng := readySystem(t, nodes, 6, 30)
	if err := sys.RemoveNodes(3, 5); err != nil {
		t.Fatal(err)
	}
	step := func() {
		x := testStep(rng, nodes)
		for i := range x {
			if id, live := sys.Roster().IDAt(i); !live || id == 100 {
				x[i] = nil
			}
		}
		if _, err := sys.Step(x); err != nil {
			t.Fatal(err)
		}
	}
	step()
	if err := sys.AddNodes(100); err != nil {
		t.Fatal(err)
	}
	step()
	step()
	snap := sys.Snapshot()
	if slot, ok := snap.SlotOf(100); !ok || snap.WindowFill(slot) != 0 {
		t.Fatalf("joiner 100: slot ok=%v, want a member with an empty window", ok)
	}
	return sys
}

// TestForecastBodyMatchesEncodingJSON pins the streamed /v1/forecast bodies
// — fleet and ?node=, every horizon — byte for byte against the struct +
// encoding/json path they replaced.
func TestForecastBodyMatchesEncodingJSON(t *testing.T) {
	t.Parallel()
	inf := math.Inf(1)
	cases := []struct {
		name string
		sys  func(t *testing.T) *core.System
		// want lists substrings the h = MaxHorizon fleet body must contain,
		// so the case keeps producing the values it is there for.
		want []string
	}{
		{name: "plain", sys: func(t *testing.T) *core.System {
			sys, _ := readySystem(t, 10, 6, 30)
			return sys
		}},
		{name: "tombstone and warming joiner", sys: churnedSystem, want: []string{`"nodes":[0,1,2,4,6,7,8,9]`}},
		{name: "clamped to exactly 0 and 1, exponent form", sys: func(t *testing.T) *core.System {
			return seriesSystem(t, []float64{0.5, -3, 7, 1e-7, 0, 1})
		}, want: []string{`[0.5,0.5]`, `[0,0]`, `[1,1]`, `[1e-7,1e-7]`}},
		{name: "clamped negatives, >1, huge and non-finite", sys: func(t *testing.T) *core.System {
			return seriesSystem(t, []float64{0.5, -0.5, 1.5, inf, -inf, math.NaN(), 2.5e-9, 1e21, 123456789012345680000})
		}, want: []string{`[0.5,0.5]`, `[0,0]`, `[1,1]`, `[2.5e-9,2.5e-9]`}},
		{name: "every node undefined at horizon 1", sys: func(t *testing.T) *core.System {
			return seriesSystem(t, []float64{math.NaN(), 0.5, 0.25})
		}, want: []string{`"horizon":3,"forecast":[[],[],[]]}`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sys := tc.sys(t)
			srv, err := New(Config{Source: sys})
			if err != nil {
				t.Fatal(err)
			}
			snap := sys.Snapshot()
			body := func(path string) []byte {
				rec := httptest.NewRecorder()
				srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s: %d (%s)", path, rec.Code, rec.Body.String())
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Fatalf("GET %s: content type %q", path, ct)
				}
				return rec.Body.Bytes()
			}
			for h := 1; h <= snap.MaxHorizon(); h++ {
				got := body(fmt.Sprintf("/v1/forecast?h=%d", h))
				if want := referenceForecastBody(t, snap, h, -1); !bytes.Equal(got, want) {
					t.Fatalf("fleet h=%d:\n got %s\nwant %s", h, got, want)
				}
				if h == snap.MaxHorizon() {
					for _, sub := range tc.want {
						if !bytes.Contains(got, []byte(sub)) {
							t.Errorf("fleet h=%d body lacks %s:\n%s", h, sub, got)
						}
					}
				}
				roster := snap.Roster()
				for slot := 0; slot < snap.Nodes(); slot++ {
					id, live := roster.IDAt(slot)
					if !live || snap.WindowFill(slot) == 0 {
						continue
					}
					got := body(fmt.Sprintf("/v1/forecast?h=%d&node=%d", h, id))
					if want := referenceForecastBody(t, snap, h, id); !bytes.Equal(got, want) {
						t.Fatalf("node %d h=%d:\n got %s\nwant %s", id, h, got, want)
					}
				}
			}
		})
	}
}

// TestForecastBodySpansTasks streams a fleet body nine formatting tasks long,
// serially and with buffer rings of 4, 6 and 8 entries that it wraps, so the
// task boundaries, the ring reuse and the write order are under the
// byte-identity check. Not parallel: it sets GOMAXPROCS.
func TestForecastBodySpansTasks(t *testing.T) {
	sys, _ := readySystem(t, 1500, 6, 25)
	want := referenceForecastBody(t, sys.Snapshot(), 6, -1)
	if tasks := 6 * 1500 * 2 / taskValues; tasks < 8 {
		t.Fatalf("body is only %d tasks long", tasks)
	}
	for _, procs := range []int{1, 2, 3, 4} {
		setMaxProcs(t, procs)
		sys, _ := readySystem(t, 1500, 6, 25)
		srv, err := New(Config{Source: sys})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/forecast?h=6", nil))
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("GOMAXPROCS=%d: streamed fleet body differs from the encoding/json body", procs)
		}
	}
}

// TestStreamTasksPastStalledWorker holds the worker of one task until the
// others have formatted the len(ring)−1 tasks after it — as far ahead as
// the fan-out lets them run — with more workers than CPUs, and checks that
// the tasks still come out whole and in order. Not parallel: it sets
// GOMAXPROCS.
func TestStreamTasksPastStalledWorker(t *testing.T) {
	const tasks = 200
	var want bytes.Buffer
	for task := 0; task < tasks; task++ {
		fmt.Fprintf(&want, "<%d>", task)
	}
	for _, workers := range []int{2, 3, 8} {
		setMaxProcs(t, workers)
		ringLen := 2 * workers
		stalled := ringLen + 1
		var ahead sync.WaitGroup
		ahead.Add(ringLen - 1)
		var got bytes.Buffer
		streamTasks(&got, tasks, func(b []byte, task int) []byte {
			switch {
			case task == stalled:
				ahead.Wait()
			case task > stalled && task < stalled+ringLen:
				defer ahead.Done()
			}
			return fmt.Appendf(b, "<%d>", task)
		})
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d: tasks written out of order:\n%s", workers, got.Bytes())
		}
	}
}

// TestForecastBodyLargeRoster: a fleet whose "nodes" list alone outgrows one
// buffer is spilled mid-list and still matches byte for byte.
func TestForecastBodyLargeRoster(t *testing.T) {
	t.Parallel()
	sys, _ := readySystem(t, 13000, 2, 22)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/forecast?h=1", nil))
	want := referenceForecastBody(t, sys.Snapshot(), 1, -1)
	if list := bytes.Index(want, []byte(`],"forecast"`)); list < bufSize {
		t.Fatalf("nodes list ends at byte %d, inside the first %d-byte buffer", list, bufSize)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatal("large-roster fleet body differs from the encoding/json body")
	}
}

// failingWriter accepts okWrites Writes and fails every later one.
type failingWriter struct {
	discardWriter
	okWrites, writes int
}

func (f *failingWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes > f.okWrites {
		return 0, errors.New("client went away")
	}
	return len(p), nil
}

// TestForecastStopsAfterFailedWrite: once the client is gone the handler
// stops formatting and writing instead of pushing the rest of the body at it,
// on a fan-out of two. Not parallel: it sets GOMAXPROCS.
func TestForecastStopsAfterFailedWrite(t *testing.T) {
	setMaxProcs(t, 2)
	sys, _ := readySystem(t, 1500, 6, 25)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	for _, okWrites := range []int{0, 1, 3} {
		// Write 1 is the header, the later ones are formatting tasks.
		w := &failingWriter{discardWriter: discardWriter{header: make(http.Header)}, okWrites: okWrites}
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/forecast?h=6", nil))
		if w.writes != okWrites+1 {
			t.Fatalf("%d Writes after allowing %d, want the failed one to be the last", w.writes, okWrites)
		}
	}
}

// TestNodeForecastAllocsIndependentOfFleetSize guards the point of the
// per-node path: a ?node= request does the same work — here, the same number
// of allocations — whether the fleet has 256 members or 4096.
func TestNodeForecastAllocsIndependentOfFleetSize(t *testing.T) {
	allocs := func(nodes int) float64 {
		sys, _ := readySystem(t, nodes, 12, 25)
		srv, err := New(Config{Source: sys})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/forecast?h=12&node=%d", nodes-1), nil)
		return testing.AllocsPerRun(200, func() { srv.ServeHTTP(w, req) })
	}
	small, large := allocs(256), allocs(4096)
	if small != large {
		t.Fatalf("?node= request: %v allocations at N=256, %v at N=4096", small, large)
	}
	t.Logf("?node= request: %v allocations at either fleet size", small)
}

// TestFleetForecastBytesIndependentOfFleetSize pins a fleet /v1/forecast at
// the same allocated bytes for N = 256 and N = 4096: the slot list, the
// formatting ring and its buffers are pooled and the query string is read in
// place, so the body is streamed from the plan without garbage that grows
// with the fleet. Both sizes take the streamed path: at GOMAXPROCS 1 the body
// is formatted inline, at GOMAXPROCS 2 on the formatting ring, as forecastd
// serves it on any multi-core host. It runs serially, so no other test's
// garbage lands between readings. A pool keeps one item per P that other Ps
// cannot take, so at GOMAXPROCS 2 a handler that moves between Ps can miss
// once mid-reading, and a window can catch a GC emptying the pools; each
// size keeps the cheapest of several windows, while garbage that grows with
// the fleet would show in every one.
func TestFleetForecastBytesIndependentOfFleetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	perRequest := func(nodes int) float64 {
		sys, _ := readySystem(t, nodes, 5, 25)
		srv, err := New(Config{Source: sys})
		if err != nil {
			t.Fatal(err)
		}
		w := &discardWriter{header: make(http.Header)}
		req := httptest.NewRequest(http.MethodGet, "/v1/forecast?h=5", nil)
		for range 8 { // fill the pools on every P
			srv.ServeHTTP(w, req)
		}
		const windows, requests = 4, 64
		least := math.Inf(1)
		for range windows {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range requests {
				srv.ServeHTTP(w, req)
			}
			runtime.ReadMemStats(&after)
			least = min(least, float64(after.TotalAlloc-before.TotalAlloc)/requests)
		}
		return least
	}
	for _, procs := range []int{1, 2} {
		setMaxProcs(t, procs)
		small, large := perRequest(256), perRequest(4096)
		t.Logf("GOMAXPROCS=%d: fleet request %.0f B at N = 256, %.0f B at N = 4096", procs, small, large)
		if math.Abs(large-small) > 256 {
			t.Fatalf("GOMAXPROCS=%d: a fleet request allocates %.0f B at N = 256 and %.0f B at N = 4096, want the same within 256 B",
				procs, small, large)
		}
	}
}

// TestNodeBodyIsFleetRows checks that a ?node= body is that node's rows of
// the fleet body, byte for byte, at every horizon: both are read from the
// one plan the snapshot was published with. The churned fleet adds a
// recycled slot, a tombstone and a warming joiner the fleet body omits.
func TestNodeBodyIsFleetRows(t *testing.T) {
	t.Parallel()
	type body struct {
		Generation uint64              `json:"generation"`
		Horizon    int                 `json:"horizon"`
		Node       *int                `json:"node"`
		Nodes      []int               `json:"nodes"`
		Forecast   [][]json.RawMessage `json:"forecast"`
	}
	systems := map[string]func(t *testing.T) *core.System{
		"plain": func(t *testing.T) *core.System {
			sys, _ := readySystem(t, 10, 6, 30)
			return sys
		},
		"churned": churnedSystem,
	}
	for name, build := range systems {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sys := build(t)
			srv, err := New(Config{Source: sys})
			if err != nil {
				t.Fatal(err)
			}
			snap := sys.Snapshot()
			compared := 0
			for h := 1; h <= snap.MaxHorizon(); h++ {
				var fleet body
				get(t, srv, fmt.Sprintf("/v1/forecast?h=%d", h), http.StatusOK, &fleet)
				if len(fleet.Forecast) != h {
					t.Fatalf("h=%d: fleet body has %d horizons", h, len(fleet.Forecast))
				}
				for e, id := range fleet.Nodes {
					var node body
					get(t, srv, fmt.Sprintf("/v1/forecast?h=%d&node=%d", h, id), http.StatusOK, &node)
					if node.Generation != fleet.Generation || node.Horizon != h || node.Node == nil || *node.Node != id || node.Nodes != nil {
						t.Fatalf("h=%d node %d: header %+v, fleet generation %d", h, id, node, fleet.Generation)
					}
					for hi := range fleet.Forecast {
						if len(node.Forecast[hi]) != 1 || !bytes.Equal(node.Forecast[hi][0], fleet.Forecast[hi][e]) {
							t.Fatalf("h=%d node %d horizon %d: node body %s, fleet row %s",
								h, id, hi+1, node.Forecast[hi], fleet.Forecast[hi][e])
						}
					}
					compared++
				}
			}
			if compared == 0 {
				t.Fatal("no node was compared")
			}
		})
	}
}

// TestPlanCounter pins what /v1/stats' cache block counts: every fleet
// request is served from the plan its snapshot was published with, so each
// is a hit — the first of a generation too — and misses stay 0; ?node=
// requests are not counted.
func TestPlanCounter(t *testing.T) {
	t.Parallel()
	sys, rng := readySystem(t, 8, 6, 30)
	srv, err := New(Config{Source: sys})
	if err != nil {
		t.Fatal(err)
	}
	expect := func(when string, hits, misses int64) {
		t.Helper()
		if st := srv.Stats().Cache; st.Hits != hits || st.Misses != misses {
			t.Fatalf("%s: hits=%d misses=%d, want %d/%d", when, st.Hits, st.Misses, hits, misses)
		}
	}
	get(t, srv, "/v1/forecast?h=2&node=3", http.StatusOK, nil)
	expect("after a node request", 0, 0)
	if st := srv.Stats().Cache; st.HitRatio != 0 {
		t.Fatalf("hit ratio %v before any fleet request, want 0", st.HitRatio)
	}
	get(t, srv, "/v1/forecast?h=2", http.StatusOK, nil)
	expect("after the first fleet request", 1, 0)
	get(t, srv, "/v1/forecast?h=5", http.StatusOK, nil)
	get(t, srv, "/v1/forecast?h=2&node=3", http.StatusOK, nil)
	expect("after another horizon of the same generation", 2, 0)
	if _, err := sys.Step(testStep(rng, 8)); err != nil {
		t.Fatal(err)
	}
	get(t, srv, "/v1/forecast?h=5", http.StatusOK, nil)
	expect("after a new generation", 3, 0)
	if st := srv.Stats().Cache; st.HitRatio != 1 {
		t.Fatalf("hit ratio %v, want 1", st.HitRatio)
	}
}

// appendJSONFloat appends v as putJSONFloat writes it: the tests and
// benchmarks of the float writer call it one value at a time.
func appendJSONFloat(b []byte, v float64) []byte {
	b, pos := room(b, jsonFloatRoom)
	return b[:putJSONFloat(b, pos, v)]
}

// FuzzAppendJSONFloat holds the hand-rolled float encoder to encoding/json
// on every float64 bit pattern (non-finite values go through the same fence
// on both sides).
func FuzzAppendJSONFloat(f *testing.F) {
	for _, v := range []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999999999999e-7, 1e-7,
		1e21, 9.999999999999999e20, 1e-9, 1e-10, 1.5e-300, 1e100, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.30000000000000004} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		want, err := json.Marshal(Finite64(v))
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("bits %#x (%g): appendJSONFloat %q, encoding/json %q", bits, v, got, want)
		}
	})
}

// servedLo and servedHi bound the bit patterns of [1e-6, 1): with +0 and 1,
// every value a clamped plan serves.
var servedLo, servedHi = math.Float64bits(1e-6), math.Float64bits(1)

// servedValue folds a raw bit pattern into [1e-6, 1), keeping one already
// inside unchanged.
func servedValue(bits uint64) float64 {
	if bits < servedLo || bits >= servedHi {
		bits = servedLo + bits%(servedHi-servedLo)
	}
	return math.Float64frombits(bits)
}

// FuzzAppendJSONFloatServedRange is FuzzAppendJSONFloat confined to the
// range every served value lives in, where uniform raw bits land ≈ 1 % of
// the time: 20 of the 2048 binary exponents. Its committed corpus holds 1e-6,
// 1 − ulp, 2^−1 … 2^−19 (the asymmetric rounding interval), short decimals
// ± 1 ulp and 0.75, whose exact scaled digits end in zeros; 1e-6's
// predecessor, the largest value left to strconv, is in FuzzAppendJSONFloat's.
func FuzzAppendJSONFloatServedRange(f *testing.F) {
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := servedValue(bits)
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got := appendJSONFloat(nil, v); !bytes.Equal(got, want) {
			t.Fatalf("bits %#x (%g): appendJSONFloat %q, encoding/json %q", bits, v, got, want)
		}
	})
}

// TestAppendJSONFloatServedRange holds appendJSONFloat to strconv — which
// encoding/json calls with these arguments for every value in [1e-6, 1) —
// over the classes where shortest-digit algorithms go wrong and ten million
// seeded values spread evenly over the range's bit patterns (200 000 under
// -short).
func TestAppendJSONFloatServedRange(t *testing.T) {
	t.Parallel()
	var got, want []byte
	check := func(v float64) {
		if v != 0 && (v < 1e-6 || v > 1) {
			return // served values are +0, 1 and [1e-6, 1)
		}
		got = appendJSONFloat(got[:0], v)
		want = strconv.AppendFloat(want[:0], v, 'f', -1, 64)
		if !bytes.Equal(got, want) {
			t.Fatalf("bits %#x: appendJSONFloat %q, strconv %q", math.Float64bits(v), got, want)
		}
	}
	around := func(v float64) {
		check(math.Nextafter(v, 0))
		check(v)
		check(math.Nextafter(v, 1))
	}
	check(0)
	around(1e-6)
	around(1)
	// Powers of two: the asymmetric rounding interval below each.
	for k := 1; k <= 20; k++ {
		around(math.Ldexp(1, -k))
	}
	// Short decimals k/10^n, which strconv must print as typed, and their
	// neighbours, whose shortest forms run to 16–17 digits.
	for n, pow := 1, 10.0; n <= 6; n, pow = n+1, pow*10 {
		for k := 1.0; k < pow; k++ {
			around(k / pow)
		}
	}
	values := 10_000_000
	if testing.Short() {
		values = 200_000
	}
	rng := rand.New(rand.NewPCG(21, 0))
	for i := 0; i < values; i++ {
		check(math.Float64frombits(servedLo + rng.Uint64N(servedHi-servedLo)))
	}
}
