package serve

import (
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"orcf/internal/core"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

// A store script drives a transport.Store + StoreStepper and the oracle pair
// of oracle_test.go through the same operations. Byte 0 picks the
// configuration; every following group of four bytes is one operation
// [kind, node, step, values]:
//
//	kind   % 4: Apply, Advance, Forget, Tick
//	node   % 9: IDs 0…7, or -1
//	step   % 8: 0–3 the node's next step, 4 a jump of 2–5 steps, 5 a
//	            restarted agent (step 1 or 2), 6 the same step again, 7 a
//	            non-positive step (0, -1 or -2); step / 8 is the argument
//	values % 8: 0–3 two finite values, 4 a NaN, 5 an infinity, 6 one or
//	            three values, 7 none; values / 8 is the argument
//
// Scripts are cut at maxScriptOps operations.
const (
	opApply = iota
	opAdvance
	opForget
	opTick

	maxScriptOps = 256
)

// scriptNodes are the node IDs a script addresses.
var scriptNodes = [...]int{0, 1, 2, 3, 4, 5, 6, 7, -1}

// scriptConfig is the pipeline a script steps: byte bit 0 turns liveness
// tracking on, bit 1 pre-registers nodes 0–2 (else the fleet starts empty
// and waits for K reporters), bit 2 publishes snapshots.
func scriptConfig(b byte) core.Config {
	cfg := core.Config{
		Resources: 2, K: 2, MPrime: 2, InitialCollection: 6, RetrainEvery: 5,
		Seed: 7,
	}
	if b&1 != 0 {
		cfg.AbsenceTimeout = 2
	}
	if b&2 != 0 {
		cfg.Nodes = 3
	}
	if b&4 != 0 {
		cfg.SnapshotHorizon = 2
	}
	return cfg
}

// scriptCover counts the situations a script reached, so a test can check
// that its scripts exercise what the oracle is there to compare.
type scriptCover struct {
	joins, evictions, rejoins, restartedRejoins int
	malformedFirst, heartbeatOnly, nonPositive  int
	reusedByOther                               int
	// The cases a tick that reads only written entries must get right: a
	// member fed the tick before whose latest record is now malformed, or
	// whose entry was forgotten from outside; a stale duplicate Apply, and
	// a clock-only Advance, to a member under an AbsenceTimeout.
	malformedFed, forgottenFed, staleMember, heartbeatMember int
}

func (c *scriptCover) add(o scriptCover) {
	c.joins += o.joins
	c.evictions += o.evictions
	c.rejoins += o.rejoins
	c.restartedRejoins += o.restartedRejoins
	c.malformedFirst += o.malformedFirst
	c.heartbeatOnly += o.heartbeatOnly
	c.nonPositive += o.nonPositive
	c.reusedByOther += o.reusedByOther
	c.malformedFed += o.malformedFed
	c.forgottenFed += o.forgottenFed
	c.staleMember += o.staleMember
	c.heartbeatMember += o.heartbeatMember
}

// tenant is who held a store entry when the script last looked.
type tenant struct {
	gen uint32
	id  int
}

// runStoreScript plays a script against both pairs and fails tb at the first
// difference: after every operation the store views (Stats, Snapshot, Len,
// Latest), after every Tick also the step result bit for bit, the rows and
// arrival flags fed to Step, the roster and the rejected counter.
func runStoreScript(tb testing.TB, script []byte) scriptCover {
	tb.Helper()
	var cover scriptCover
	if len(script) == 0 {
		return cover
	}
	cfg := scriptConfig(script[0])
	store := transport.NewStore()
	stepper, err := NewStoreStepper(store, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	ostore := newOracleStore()
	oracle, err := newOracleStepper(ostore, cfg)
	if err != nil {
		tb.Fatal(err)
	}

	agentStep := make(map[int]int)  // per node: the step its agent is at
	maxFed := make(map[int]int)     // per node: its newest step as a member, up to its first eviction
	evicted := make(map[int]bool)   // nodes evicted so far
	tenants := make(map[int]tenant) // store entry → last tenant seen
	fed := make(map[int]bool)       // members fed a row by the last tick
	ops := script[1:]
	for n := 0; len(ops) >= 4 && n < maxScriptOps; n, ops = n+1, ops[4:] {
		kind, node := ops[0]%4, scriptNodes[int(ops[1])%len(scriptNodes)]
		switch kind {
		case opApply:
			m := transport.Measurement{Node: node, Step: scriptStep(agentStep, node, ops[2]), Values: scriptValues(ops[3])}
			if prev, ok := ostore.Latest(node); ok && prev.Step >= m.Step && cfg.AbsenceTimeout > 0 && isMember(oracle.sys, node) {
				cover.staleMember++
			}
			store.Apply(m)
			ostore.Apply(m)
		case opAdvance:
			step := scriptStep(agentStep, node, ops[2])
			if step > ostore.clock[node] && cfg.AbsenceTimeout > 0 && isMember(oracle.sys, node) {
				cover.heartbeatMember++
			}
			store.Advance(node, step)
			ostore.Advance(node, step)
		case opForget:
			if _, known := ostore.clock[node]; known && fed[node] {
				cover.forgottenFed++
			}
			store.Forget(node)
			oracle.forget(node)
		case opTick:
			before := oracle.sys.Members()
			for id, m := range ostore.latest {
				if !isMember(oracle.sys, id) && id >= 0 && !wellFormed(m.Values, 2) {
					cover.malformedFirst++
				}
				if m.Step <= 0 {
					cover.nonPositive++
				}
			}
			for id := range ostore.clock {
				if _, ok := ostore.latest[id]; !ok {
					cover.heartbeatOnly++
				}
			}
			for id := range fed {
				if m, ok := ostore.latest[id]; ok && !wellFormed(m.Values, 2) {
					cover.malformedFed++
				}
			}
			res, ok, err := stepper.Tick()
			ores, ook, oerr := oracle.Tick()
			if ok != ook || (err == nil) != (oerr == nil) || err != nil && err.Error() != oerr.Error() {
				tb.Fatalf("op %d tick: ok=%v err=%v, oracle ok=%v err=%v", n, ok, err, ook, oerr)
			}
			if err != nil {
				return cover
			}
			if !stepResultsBitEqual(res, ores) {
				tb.Fatalf("op %d tick: step result\n got %+v\nwant %+v", n, res, ores)
			}
			if ok {
				compareFed(tb, n, stepper, oracle)
				clear(fed)
				for slot, row := range oracle.x[:oracle.sys.Slots()] {
					if id, live := oracle.sys.Roster().IDAt(slot); live && row != nil {
						fed[id] = true
					}
				}
				for _, id := range res.Evicted {
					cover.evictions++
					evicted[id] = true
				}
				for _, id := range oracle.sys.Members() {
					if slices.Contains(before, id) {
						continue
					}
					cover.joins++
					if evicted[id] {
						cover.rejoins++
						if m, _ := ostore.Latest(id); m.Step <= maxFed[id] {
							cover.restartedRejoins++
						}
					}
				}
				for _, id := range oracle.sys.Members() {
					if m, ok := ostore.Latest(id); ok && !evicted[id] {
						maxFed[id] = max(maxFed[id], m.Step)
					}
				}
			}
			if got, want := stepper.rejected.Value(), int64(oracle.rejected); got != want {
				tb.Fatalf("op %d tick: %d rejected records counted, oracle %d", n, got, want)
			}
		}
		compareStores(tb, n, store, ostore)
		store.EachReported(func(entry int, gen uint32, stat transport.NodeStat) {
			if was, seen := tenants[entry]; seen && gen != was.gen && stat.Latest.Node != was.id {
				cover.reusedByOther++
			}
			tenants[entry] = tenant{gen: gen, id: stat.Latest.Node}
		})
	}
	return cover
}

// scriptStep turns a step byte into the step the node's agent sends.
func scriptStep(agentStep map[int]int, node int, b byte) int {
	mode, arg := b%8, int(b/8)
	switch {
	case mode < 4:
		agentStep[node]++
	case mode == 4:
		agentStep[node] += 2 + arg%4
	case mode == 5:
		agentStep[node] = 1 + arg%2
	case mode == 7:
		return -(arg % 3)
	}
	return agentStep[node]
}

// scriptValues turns a values byte into a record's values.
func scriptValues(b byte) []float64 {
	mode, arg := b%8, int(b/8)
	a := float64(arg) / 31
	switch mode {
	case 4:
		return []float64{math.NaN(), a}
	case 5:
		return []float64{a, [...]float64{math.Inf(1), math.Inf(-1), 1e160, -1e160}[arg%4]}
	case 6:
		return make([]float64, 1+2*(arg%2))
	case 7:
		return make([]float64, 0)
	}
	return []float64{a, 1 - a}
}

// wellFormed reports whether a record of values may enter a pipeline of
// dims resources: that many values, each within ±100 (NaN and ±Inf are
// not).
func wellFormed(values []float64, dims int) bool {
	if len(values) != dims {
		return false
	}
	for _, v := range values {
		if !(math.Abs(v) <= 100) {
			return false
		}
	}
	return true
}

// compareStores fails tb unless the store and the oracle store agree on every
// view a caller can take.
func compareStores(tb testing.TB, op int, store *transport.Store, ostore *oracleStore) {
	tb.Helper()
	if got, want := store.Stats(), ostore.Stats(); !reflect.DeepEqual(statBits(got), statBits(want)) {
		tb.Fatalf("op %d: Stats\n got %+v\nwant %+v", op, got, want)
	}
	if got, want := store.Snapshot(), ostore.Snapshot(); !reflect.DeepEqual(snapshotBits(got), snapshotBits(want)) {
		tb.Fatalf("op %d: Snapshot\n got %+v\nwant %+v", op, got, want)
	}
	if got, want := store.Len(), ostore.Len(); got != want {
		tb.Fatalf("op %d: Len %d, want %d", op, got, want)
	}
	for _, id := range scriptNodes {
		m, ok := store.Latest(id)
		om, ook := ostore.Latest(id)
		if ok != ook || !reflect.DeepEqual(measurementBits(m), measurementBits(om)) {
			tb.Fatalf("op %d: Latest(%d) = %+v %v, want %+v %v", op, id, m, ok, om, ook)
		}
	}
}

// bitsMeasurement is a measurement with its values as IEEE-754 bits, so
// that reflect.DeepEqual compares a NaN by its bits: the store returns
// copies, never the slice the oracle holds. A zero-width record reads the
// same with nil or empty Values, which no caller tells apart.
type bitsMeasurement struct {
	Node, Step int
	Values     []uint64
}

func measurementBits(m transport.Measurement) bitsMeasurement {
	out := bitsMeasurement{Node: m.Node, Step: m.Step, Values: make([]uint64, len(m.Values))}
	for i, v := range m.Values {
		out.Values[i] = math.Float64bits(v)
	}
	return out
}

func snapshotBits(in map[int]transport.Measurement) map[int]bitsMeasurement {
	out := make(map[int]bitsMeasurement, len(in))
	for id, m := range in {
		out[id] = measurementBits(m)
	}
	return out
}

// bitsStat is a NodeStat with its Latest as a bitsMeasurement.
type bitsStat struct {
	Latest             bitsMeasurement
	Updates, LocalStep int
	Frequency          float64
}

func statBits(in map[int]transport.NodeStat) map[int]bitsStat {
	out := make(map[int]bitsStat, len(in))
	for id, st := range in {
		out[id] = bitsStat{measurementBits(st.Latest), st.Updates, st.LocalStep, st.Frequency}
	}
	return out
}

// compareFed fails tb unless both steppers fed Step the same rows, bit for
// bit, the same arrival flags and the same roster.
func compareFed(tb testing.TB, op int, stepper *StoreStepper, oracle *oracleStepper) {
	tb.Helper()
	roster, oroster := stepper.sys.Roster(), oracle.sys.Roster()
	if roster.Slots() != oroster.Slots() {
		tb.Fatalf("op %d: %d slots, oracle %d", op, roster.Slots(), oroster.Slots())
	}
	for slot := 0; slot < roster.Slots(); slot++ {
		id, live := roster.IDAt(slot)
		oid, olive := oroster.IDAt(slot)
		if id != oid || live != olive {
			tb.Fatalf("op %d: slot %d holds %d (live %v), oracle %d (live %v)", op, slot, id, live, oid, olive)
		}
		if stepper.arrived[slot] != oracle.arrived[slot] {
			tb.Fatalf("op %d: slot %d arrived %v, oracle %v", op, slot, stepper.arrived[slot], oracle.arrived[slot])
		}
		if !bitsEqual(stepper.x[slot], oracle.x[slot]) || (stepper.x[slot] == nil) != (oracle.x[slot] == nil) {
			tb.Fatalf("op %d: slot %d fed %v, oracle %v", op, slot, stepper.x[slot], oracle.x[slot])
		}
	}
}

func bitsEqual(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// stepResultsBitEqual compares two step results, centroids by their bits.
func stepResultsBitEqual(a, b *core.StepResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.T != b.T || !slices.Equal(a.Transmitted, b.Transmitted) || !slices.Equal(a.Present, b.Present) ||
		!slices.Equal(a.Evicted, b.Evicted) || len(a.PerResource) != len(b.PerResource) {
		return false
	}
	for tr, rs := range a.PerResource {
		ors := b.PerResource[tr]
		if !slices.Equal(rs.Assignments, ors.Assignments) ||
			!slices.EqualFunc(rs.Centroids, ors.Centroids, bitsEqual) {
			return false
		}
	}
	return true
}

// Scripts written out by hand, one per situation the oracle must see.
func apply(node, step, values byte) []byte { return []byte{opApply, node, step, values} }
func advance(node, step byte) []byte       { return []byte{opAdvance, node, step, 0} }
func forget(node byte) []byte              { return []byte{opForget, node, 0, 0} }
func tick() []byte                         { return []byte{opTick, 0, 0, 0} }

// Step and values bytes of the hand-written scripts.
const (
	stepNext    = 0     // the node's next step
	stepRestart = 5     // a restarted agent: step 1
	stepSame    = 6     // the same step again
	stepZero    = 7     // step 0
	stepNeg     = 7 + 8 // step -1
	valGood     = 8 * 10
	valNaN      = 4
	valInf      = 5
	valShort    = 6
	valEmpty    = 7
)

func script(cfg byte, ops ...[]byte) []byte {
	return slices.Concat(append([][]byte{{cfg}}, ops...)...)
}

// repeat is n rounds of ops.
func repeat(n int, ops ...[]byte) []byte {
	var out []byte
	for i := 0; i < n; i++ {
		out = append(out, slices.Concat(ops...)...)
	}
	return out
}

// handScripts pairs each hand-written script with the situation it must
// reach.
func handScripts() []struct {
	name    string
	script  []byte
	reaches func(scriptCover) bool
} {
	round := func(ids ...byte) []byte {
		var ops [][]byte
		for _, id := range ids {
			ops = append(ops, apply(id, stepNext, valGood))
		}
		return slices.Concat(append(ops, tick())...)
	}
	return []struct {
		name    string
		script  []byte
		reaches func(scriptCover) bool
	}{
		{
			// Pre-registered 0–2, 3 joins, 2 goes silent and is evicted,
			// then rejoins from a restarted agent at step 1.
			name: "join-evict-rejoin-restarted",
			script: script(3, repeat(4, round(0, 1, 2)), repeat(3, round(0, 1, 2, 3)),
				repeat(4, round(0, 1, 3)), apply(2, stepRestart, valGood), tick(), repeat(3, round(0, 1, 2, 3))),
			reaches: func(c scriptCover) bool { return c.joins > 0 && c.evictions > 0 && c.restartedRejoins > 0 },
		},
		{
			// A newcomer whose first records are malformed (every kind) is
			// not joined until a well-formed one arrives; a member's
			// malformed record costs it an absence tick.
			name: "malformed-first-record",
			script: script(3, repeat(3, round(0, 1, 2)),
				apply(4, stepNext, valNaN), tick(), apply(4, stepNext, valInf), tick(), apply(4, stepNext, valShort), tick(),
				apply(4, stepNext, valEmpty), tick(), apply(1, stepNext, valEmpty), round(0, 2), apply(4, stepNext, valGood), tick(),
				repeat(2, round(0, 1, 2, 4))),
			reaches: func(c scriptCover) bool { return c.malformedFirst >= 4 && c.joins > 0 },
		},
		{
			// A node heard only through heartbeats waits; its first
			// measurement joins it.
			name: "heartbeat-only",
			script: script(1|2, repeat(3, round(0, 1, 2)), advance(5, stepNext), tick(), advance(5, stepNext), tick(),
				apply(5, stepNext, valGood), round(0, 1, 2), repeat(3, round(0, 1, 2, 5))),
			reaches: func(c scriptCover) bool { return c.heartbeatOnly > 0 && c.joins > 0 },
		},
		{
			// Records with non-positive steps reach the store (a fresh node
			// stores one; a member's is stale) and never move the clock.
			name: "non-positive-steps",
			script: script(2, apply(0, stepZero, valGood), apply(1, stepNeg, valGood), apply(2, stepNext, valGood), tick(),
				apply(6, stepNeg, valGood), apply(6, stepZero, valGood), advance(6, stepNeg), round(0, 1, 2),
				apply(0, stepSame, valGood), round(0, 1, 2, 6)),
			reaches: func(c scriptCover) bool { return c.nonPositive > 0 && c.joins > 0 },
		},
		{
			// An elastic fleet: 6 is forgotten from outside and its entry
			// goes to 7, then 6 comes back into another one; eviction frees
			// 1's entry for 3.
			name: "forget-reuse-by-other",
			script: script(1|4, repeat(2, round(0, 1, 6)), forget(6), apply(7, stepNext, valGood), tick(),
				apply(6, stepRestart, valGood), round(0, 1, 7), repeat(4, round(0, 6, 7)), apply(3, stepNext, valGood),
				repeat(3, round(0, 3, 6, 7))),
			reaches: func(c scriptCover) bool { return c.reusedByOther >= 2 && c.evictions > 0 },
		},
		{
			// Without liveness tracking a member nobody wrote keeps last
			// tick's row, so a malformed record replacing the one member 1
			// was fed must take its row away, for as long as it stands.
			name: "malformed-after-fed",
			script: script(2, repeat(3, round(0, 1, 2)), apply(1, stepNext, valNaN), round(0, 2), round(0, 2),
				round(0, 1, 2), apply(1, stepNext, valShort), round(0, 2), repeat(2, round(0, 1, 2))),
			reaches: func(c scriptCover) bool { return c.malformedFed >= 2 },
		},
		{
			// Member 1, fed the tick before, is forgotten from outside and
			// takes its row back until it reports again. Then 2 and 1 are
			// forgotten and 2 comes back first, into 1's lower entry: 2's old
			// entry must not take back the row its new one just fed.
			name: "forget-fed-member",
			script: script(2, repeat(3, round(0, 1, 2)), forget(1), round(0, 2), tick(), repeat(2, round(0, 1, 2)),
				forget(2), forget(1), apply(2, stepRestart, valGood), apply(0, stepNext, valGood), tick(), tick(),
				repeat(2, round(0, 1, 2))),
			reaches: func(c scriptCover) bool { return c.forgottenFed >= 3 && c.reusedByOther > 0 },
		},
		{
			// Under an AbsenceTimeout a stale duplicate writes member 1's
			// entry but moves neither its step nor its clock: an absence
			// tick, not a contact.
			name: "stale-duplicate-member",
			script: script(1|2, repeat(3, round(0, 1, 2)), apply(1, stepSame, valGood), round(0, 2),
				apply(1, stepSame, valGood), apply(1, stepZero, valGood), round(0, 2), repeat(2, round(0, 1, 2))),
			reaches: func(c scriptCover) bool { return c.staleMember >= 3 },
		},
		{
			// Under an AbsenceTimeout a heartbeat alone keeps member 1
			// contacted: it is fed its stored row, not arrived.
			name: "heartbeat-member",
			script: script(1|2, repeat(3, round(0, 1, 2)), advance(1, stepNext), round(0, 2), advance(1, stepNext),
				round(0, 2), round(0, 2), repeat(2, round(0, 1, 2))),
			reaches: func(c scriptCover) bool { return c.heartbeatMember >= 2 },
		},
	}
}

// randomScript draws a script whose operations lean toward a small busy
// fleet: most Applies are well-formed next steps of nodes 0–5.
func randomScript(rng *rand.Rand, ops int) []byte {
	out := []byte{byte(rng.IntN(8))}
	for i := 0; i < ops; i++ {
		var kind byte
		switch r := rng.IntN(100); {
		case r < 62:
			kind = opApply
		case r < 72:
			kind = opAdvance
		case r < 75:
			kind = opForget
		default:
			kind = opTick
		}
		node := byte(rng.IntN(6))
		if rng.IntN(8) == 0 {
			node = byte(rng.IntN(len(scriptNodes)))
		}
		step := byte(rng.IntN(4) + 8*rng.IntN(32))
		if rng.IntN(5) == 0 {
			step = byte(rng.IntN(256))
		}
		values := byte(8 * rng.IntN(32))
		if rng.IntN(12) == 0 {
			values = byte(rng.IntN(256))
		}
		out = append(out, kind, node, step, values)
	}
	return out
}

// TestStoreStepperMatchesOracle drives the one store and its stepper against
// the map-based pair they replaced, on hand-written scripts for join,
// eviction through AbsenceTimeout, a rejoin with a restarted step counter, a
// malformed first record, a heartbeat-only node, non-positive steps, a
// freed entry reused by another ID, and the traps of a tick that reads only
// written entries — a malformed record or an outside Forget for a member fed
// the tick before, a stale duplicate and a lone heartbeat for a member under
// an AbsenceTimeout — then on random scripts — every step
// result bit-identical, and every store view equal after every operation.
func TestStoreStepperMatchesOracle(t *testing.T) {
	t.Parallel()
	for _, hs := range handScripts() {
		if c := runStoreScript(t, hs.script); !hs.reaches(c) {
			t.Errorf("%s: script did not reach its situation: %+v", hs.name, c)
		}
	}
	scripts := 300
	if testing.Short() {
		scripts = 60
	}
	rng := rand.New(rand.NewPCG(23, 0x73746f7265))
	var total scriptCover
	for i := 0; i < scripts; i++ {
		total.add(runStoreScript(t, randomScript(rng, 40+rng.IntN(160))))
	}
	t.Logf("random scripts reached %+v", total)
	if total.evictions == 0 || total.rejoins == 0 || total.malformedFirst == 0 ||
		total.heartbeatOnly == 0 || total.nonPositive == 0 || total.reusedByOther == 0 {
		t.Errorf("random scripts left a situation unexercised: %+v", total)
	}
}

// FuzzStoreStepperMatchesOracle is the same differential over arbitrary
// scripts. Its committed corpus holds the hand-written scripts.
func FuzzStoreStepperMatchesOracle(f *testing.F) {
	for _, hs := range handScripts() {
		f.Add(hs.script)
	}
	f.Fuzz(func(t *testing.T, script []byte) {
		runStoreScript(t, script)
	})
}

// TestStoreManyWriters is the store's race test: writers Apply and Advance
// overlapping node IDs — half of them a record at a time, half a whole
// frame per step through ApplyFrame, as the server does — while a stepper
// ticks over the store reading the entries written since its last tick, a
// forgetter churns a range of IDs the writers also fill, and readers take
// every view. Once the writers stop and the churned range is forgotten, the
// store must equal one fed the same records serially.
func TestStoreManyWriters(t *testing.T) {
	t.Parallel()
	const (
		nodes   = 48
		churned = 16 // IDs [nodes, nodes+churned) are applied and forgotten concurrently
		writers = 4
		steps   = 60
	)
	store := transport.NewStore()
	cfg := core.Config{Resources: 2, K: 2, MPrime: 2, InitialCollection: 1 << 20, Seed: 3}
	stepper, err := NewStoreStepper(store, cfg)
	if err != nil {
		t.Fatal(err)
	}
	value := func(id, step int) []float64 {
		v := float64((id*7+step*3)%29) / 29
		return []float64{v, 1 - v}
	}

	var writing, background sync.WaitGroup
	var ticks atomic.Int64
	stop := make(chan struct{})
	// Writer w owns the Applies of the IDs ≡ w (mod writers), so each ID's
	// records arrive in step order, and advances every ID's clock: the
	// clocks see all writers at once. Writers keep pace with the stepping
	// loop, so ticks interleave with the writes however the goroutines are
	// scheduled.
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func() {
			defer writing.Done()
			for step := 1; step <= steps; step++ {
				for ticks.Load() < int64(step/2) {
					runtime.Gosched()
				}
				var frame []transport.Measurement
				for id := w; id < nodes+churned; id += writers {
					if step%(1+id%3) == 0 || step == 1 {
						m := transport.Measurement{Node: id, Step: step, Values: value(id, step)}
						if w%2 == 0 {
							frame = append(frame, m)
						} else {
							store.Apply(m)
						}
					}
				}
				if w%2 == 0 {
					if n := store.ApplyFrame(frame, -1, 0); n != len(frame) {
						t.Errorf("writer %d step %d: %d of %d records applied", w, step, n, len(frame))
					}
				}
				for id := 0; id < nodes; id++ {
					store.Advance(id, step+w)
				}
			}
		}()
	}
	background.Add(3)
	go func() { // the stepping loop
		defer background.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, _, err := stepper.Tick(); err != nil {
				t.Error(err)
				return
			}
			ticks.Add(1)
			runtime.Gosched()
		}
	}()
	go func() { // churn
		defer background.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			store.Forget(nodes + i%churned)
			runtime.Gosched()
		}
	}()
	go func() { // readers
		defer background.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = store.Stats()
			_, _ = store.Latest(i % (nodes + churned))
			_ = store.Snapshot()
			_ = store.Len()
			runtime.Gosched()
		}
	}()
	writing.Wait()
	close(stop)
	background.Wait()
	for id := nodes; id < nodes+churned; id++ {
		store.Forget(id)
	}

	want := transport.NewStore()
	for step := 1; step <= steps; step++ {
		for id := 0; id < nodes; id++ {
			if step%(1+id%3) == 0 || step == 1 {
				want.Apply(transport.Measurement{Node: id, Step: step, Values: value(id, step)})
			}
		}
	}
	for id := 0; id < nodes; id++ {
		want.Advance(id, steps+writers-1)
	}
	if got, exp := stripValuesAliasing(store.Stats()), stripValuesAliasing(want.Stats()); !reflect.DeepEqual(got, exp) {
		t.Fatalf("store after concurrent writers\n got %+v\nwant %+v", got, exp)
	}
	if store.Len() != nodes {
		t.Fatalf("Len %d, want %d", store.Len(), nodes)
	}
}

// TestCollectorBytesPerNode pins the central node's memory per node: the
// live heap of a Store plus the StoreStepper that owns the core.System, after
// warm ticks, at N = 8192 less N = 4096, over 4096 — and, beside it, that of
// the core.System alone stepped with the same rows, so the difference is
// what the collection plane adds: store entries, the ID index, the records'
// values, watermarks, the step frame and the arrival flags. Snapshots are
// off (SnapshotHorizon 0): this is the state that stepping keeps.
func TestCollectorBytesPerNode(t *testing.T) {
	// Measured on linux/amd64 with go1.24: 588 B in all, 350 B of it core's.
	// The 32 B margin is below the 56 B per node that the look-back ring's
	// seven slots of two trackers' memberships add back at int width.
	const (
		ceiling          = 620 // bytes per node, store + stepper + core
		collectorCeiling = 330 // bytes per node the collection plane adds to core
	)
	cfg := func(n int) core.Config {
		return core.Config{Nodes: n, Resources: 2, K: 3, InitialCollection: 20, Seed: 1}
	}
	value := func(id, step int) []float64 {
		v := float64((id*13+step)%97) / 97
		return []float64{v, 1 - v}
	}
	const ticks = 8
	reports := func(id, step int) bool { return step == 1 || (id+step)%3 == 0 }
	collector := func(n int) uint64 {
		base := heapLive()
		store := transport.NewStore()
		stepper, err := NewStoreStepper(store, cfg(n))
		if err != nil {
			t.Fatal(err)
		}
		for step := 1; step <= ticks; step++ {
			for id := 0; id < n; id++ {
				if reports(id, step) {
					store.Apply(transport.Measurement{Node: id, Step: step, Values: value(id, step)})
				} else {
					store.Advance(id, step)
				}
			}
			if _, ok, err := stepper.Tick(); err != nil || !ok {
				t.Fatalf("N=%d tick %d: ok=%v err=%v", n, step, ok, err)
			}
		}
		held := heapLive() - base
		runtime.KeepAlive(stepper)
		return held
	}
	coreOnly := func(n int) uint64 {
		base := heapLive()
		c := cfg(n)
		c.Policy = func(int) (transmit.Policy, error) { return transmit.Always{}, nil }
		sys, err := core.NewSystem(c)
		if err != nil {
			t.Fatal(err)
		}
		x := make([][]float64, n)
		for step := 1; step <= ticks; step++ {
			for id := range x {
				if reports(id, step) {
					x[id] = value(id, step)
				}
			}
			if _, err := sys.Step(x); err != nil {
				t.Fatal(err)
			}
		}
		x = nil
		held := heapLive() - base
		runtime.KeepAlive(sys)
		return held
	}
	perNode := func(measure func(int) uint64) float64 {
		return float64(measure(8192)-measure(4096)) / 4096
	}
	total, inCore := perNode(collector), perNode(coreOnly)
	t.Logf("heap per node: %.0f B store + stepper + core, %.0f B core alone, %.0f B collection plane",
		total, inCore, total-inCore)
	if total > ceiling || total-inCore > collectorCeiling {
		t.Fatalf("%.0f B per node (ceiling %d), %.0f B of it the collection plane's (ceiling %d)",
			total, ceiling, total-inCore, collectorCeiling)
	}
}

// heapLive is the live heap after a full collection.
func heapLive() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
