package transport

import (
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
)

// applyRecordByRecord is how the server applied a batch frame before
// ApplyFrame: one Apply per record, a bound connection's frame cut at the
// first record of another node, then the frame's local step as an Advance of
// the connection's node. It returns the records applied.
func applyRecordByRecord(s *Store, recs []Measurement, owner, localStep int) int {
	for n, m := range recs {
		if owner >= 0 && m.Node != owner {
			return n
		}
		s.Apply(m)
	}
	if owner >= 0 && localStep > 0 {
		s.Advance(owner, localStep)
	}
	return len(recs)
}

// visit is one EachWritten callback, values as bits.
type visit struct {
	entry      int
	gen        uint32
	node, step int
	values     []uint64
	updates    int
	localStep  int
}

func drainWritten(s *Store, all bool) []visit {
	var out []visit
	s.EachWritten(all, func(entry int, gen uint32, st NodeStat) {
		v := visit{entry: entry, gen: gen, node: st.Latest.Node, step: st.Latest.Step, updates: st.Updates, localStep: st.LocalStep}
		for _, x := range st.Latest.Values {
			v.values = append(v.values, math.Float64bits(x))
		}
		out = append(out, v)
	})
	return out
}

// TestApplyFrameMatchesRecordByRecord drives two stores with the same random
// frames — duplicates and stale steps inside a frame, frames of bound and of
// multiplexed connections, bound frames cut by a foreign node ID, Forgets
// that free entries for reuse, clock-only Advances — one through ApplyFrame,
// the other record by record, and requires every view to agree after every
// frame: Stats, Snapshot, Latest, Len, the records-applied count and the
// applied, stale and advance counters, and the entries EachWritten visits.
func TestApplyFrameMatchesRecordByRecord(t *testing.T) {
	t.Parallel()
	const nodes = 12
	rng := rand.New(rand.NewPCG(51, 0x6672616d65))
	for run := 0; run < 40; run++ {
		got, want := NewStore(), NewStore()
		steps := make([]int, nodes)
		var cuts, reuses int
		for op := 0; op < 300; op++ {
			switch r := rng.IntN(20); {
			case r == 0:
				id := rng.IntN(nodes)
				got.Forget(id)
				want.Forget(id)
				reuses++
			case r == 1:
				id, step := rng.IntN(nodes), rng.IntN(2*op+2)-2
				got.Advance(id, step)
				want.Advance(id, step)
			default:
				owner := -1
				if rng.IntN(2) == 0 {
					owner = rng.IntN(nodes)
				}
				recs := make([]Measurement, rng.IntN(6))
				for i := range recs {
					id := owner
					if owner < 0 || rng.IntN(25) == 0 {
						id = rng.IntN(nodes)
					}
					switch rng.IntN(6) {
					case 0: // stale: a step at or below the newest
						steps[id] -= rng.IntN(3)
					case 1: // a jump
						steps[id] += 2 + rng.IntN(4)
					default:
						steps[id]++
					}
					recs[i] = Measurement{Node: id, Step: steps[id], Values: []float64{rng.Float64(), float64(op)}}
				}
				localStep := rng.IntN(2*op+2) - 1
				n := got.ApplyFrame(recs, owner, localStep)
				if wantN := applyRecordByRecord(want, recs, owner, localStep); n != wantN {
					t.Fatalf("run %d op %d: ApplyFrame applied %d records, record by record %d", run, op, n, wantN)
				}
				if n < len(recs) {
					cuts++
				}
			}
			if g, w := got.Stats(), want.Stats(); !reflect.DeepEqual(g, w) {
				t.Fatalf("run %d op %d: Stats\n got %+v\nwant %+v", run, op, g, w)
			}
			if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
				t.Fatalf("run %d op %d: Snapshot\n got %+v\nwant %+v", run, op, g, w)
			}
			for id := 0; id < nodes; id++ {
				g, gok := got.Latest(id)
				w, wok := want.Latest(id)
				if gok != wok || !reflect.DeepEqual(g, w) {
					t.Fatalf("run %d op %d: Latest(%d) = %+v %v, want %+v %v", run, op, id, g, gok, w, wok)
				}
			}
			if got.Len() != want.Len() {
				t.Fatalf("run %d op %d: Len %d, want %d", run, op, got.Len(), want.Len())
			}
			gm, wm := got.Metrics(), want.Metrics()
			for _, c := range []struct {
				name     string
				got, exp int64
			}{
				{"applied", gm.Applied.Value(), wm.Applied.Value()},
				{"stale", gm.Stale.Value(), wm.Stale.Value()},
				{"advances", gm.Advances.Value(), wm.Advances.Value()},
				{"forgotten", gm.Forgotten.Value(), wm.Forgotten.Value()},
			} {
				if c.got != c.exp {
					t.Fatalf("run %d op %d: %s counter %d, want %d", run, op, c.name, c.got, c.exp)
				}
			}
			if rng.IntN(4) == 0 {
				all := rng.IntN(8) == 0
				if g, w := drainWritten(got, all), drainWritten(want, all); !reflect.DeepEqual(g, w) {
					t.Fatalf("run %d op %d: EachWritten(%v)\n got %+v\nwant %+v", run, op, all, g, w)
				}
			}
		}
		if cuts == 0 || reuses == 0 || got.Metrics().Stale.Value() == 0 {
			t.Fatalf("run %d reached %d cut frames, %d forgets, %d stale records", run, cuts, reuses, got.Metrics().Stale.Value())
		}
	}
}

// TestEachWrittenVisitsWhatWasWritten pins the written set: EachWritten
// visits, in ascending entry order, exactly the entries an Apply (stale or
// not), a clock-moving Advance or a Forget wrote since the last call, each
// once; an Advance that moves nothing marks nothing; all visits every entry
// holding a measurement and empties the set too.
func TestEachWrittenVisitsWhatWasWritten(t *testing.T) {
	t.Parallel()
	s := NewStore()
	entries := func(all bool) []int {
		var out []int
		s.EachWritten(all, func(entry int, _ uint32, _ NodeStat) { out = append(out, entry) })
		return out
	}
	for id := 0; id < 200; id++ {
		s.Apply(Measurement{Node: id, Step: 2, Values: []float64{1}})
	}
	if got := entries(false); len(got) != 200 || !slices.IsSorted(got) {
		t.Fatalf("first walk visited %d entries (sorted %v), want 200 in order", len(got), slices.IsSorted(got))
	}
	if got := entries(false); len(got) != 0 {
		t.Fatalf("second walk visited %v, want nothing", got)
	}
	s.Apply(Measurement{Node: 130, Step: 2, Values: []float64{9}}) // stale duplicate
	s.Advance(7, 1)                                                // behind the clock: writes nothing
	s.Advance(64, 5)
	s.Forget(3)
	s.Advance(500, 4) // a heartbeat-only newcomer takes the freed entry 3
	s.Apply(Measurement{Node: 63, Step: 3, Values: []float64{1}})
	s.Apply(Measurement{Node: 63, Step: 4, Values: []float64{1}})
	if got, want := entries(false), []int{3, 63, 64, 130}; !slices.Equal(got, want) {
		t.Fatalf("walk visited %v, want %v", got, want)
	}
	s.Apply(Measurement{Node: 10, Step: 3, Values: []float64{1}})
	if got := entries(true); len(got) != 199 {
		t.Fatalf("walk of all visited %d entries, want the 199 holding a measurement", len(got))
	}
	if got := entries(false); len(got) != 0 {
		t.Fatalf("walk after a walk of all visited %v, want nothing", got)
	}
}
