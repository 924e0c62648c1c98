package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"testing"

	"orcf/internal/forecast"
	"orcf/internal/transmit"
)

// stateDigest fingerprints the System's exported state: the gob encoding of
// ExportState with the ensembles' wall-clock training times zeroed.
func stateDigest(t *testing.T, sys *System) uint64 {
	t.Helper()
	st, err := sys.ExportState()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range st.Ensembles {
		e.TrainTime = 0
	}
	h := fnv.New64a()
	if err := gob.NewEncoder(h).Encode(st); err != nil {
		t.Fatal(err)
	}
	return h.Sum64()
}

// opsView is what a rejected call must leave as it was.
type opsView struct {
	steps  int
	digest uint64
	ids    []int
	alive  []bool
	gen    uint64
}

func opsViewOf(t *testing.T, sys *System) opsView {
	t.Helper()
	v := opsView{steps: sys.Steps(), digest: stateDigest(t, sys)}
	v.ids, v.alive = rosterOf(sys)
	if snap := sys.Snapshot(); snap != nil {
		v.gen = snap.Generation()
	}
	return v
}

// rosterOf is the System's slot → ID layout as a WAL record holds it.
func rosterOf(sys *System) (ids []int, alive []bool) {
	r := sys.Roster()
	for i := range r.Slots() {
		id, ok := r.IDAt(i)
		ids, alive = append(ids, id), append(alive, ok)
	}
	return ids, alive
}

func (v opsView) equal(w opsView) bool {
	return v.steps == w.steps && v.digest == w.digest && v.gen == w.gen &&
		slices.Equal(v.ids, w.ids) && slices.Equal(v.alive, w.alive)
}

// checkRoster requires the roster to be an ID ⇄ slot bijection over the live
// members, agreeing with the System's own lookups, and the free list to hold
// the tombstoned slots in ascending order, the order AddNodes fills them in.
func checkRoster(t *testing.T, sys *System) {
	t.Helper()
	r := sys.Roster()
	live := 0
	var tombstones []int
	for i := range r.Slots() {
		id, ok := r.IDAt(i)
		if !ok {
			tombstones = append(tombstones, i)
			continue
		}
		live++
		if slot, found := r.SlotOf(id); !found || slot != i {
			t.Fatalf("slot %d holds node %d, but SlotOf(%d) = %d, %v", i, id, id, slot, found)
		}
		if slot, found := sys.SlotOf(id); !found || slot != i {
			t.Fatalf("slot %d holds node %d, but System.SlotOf(%d) = %d, %v", i, id, id, slot, found)
		}
	}
	if !slices.Equal(sys.free, tombstones) {
		t.Fatalf("free list %v, tombstoned slots %v", sys.free, tombstones)
	}
	members := r.Members()
	if live != r.Live() || live != len(members) || live != sys.LiveNodes() || r.Slots() != sys.Slots() {
		t.Fatalf("roster: %d live slots, Live %d, %d members, LiveNodes %d, %d/%d slots",
			live, r.Live(), len(members), sys.LiveNodes(), r.Slots(), sys.Slots())
	}
	for _, id := range members {
		if slot, ok := r.SlotOf(id); !ok {
			t.Fatalf("member %d has no slot", id)
		} else if got, alive := r.IDAt(slot); !alive || got != id {
			t.Fatalf("member %d maps to slot %d, which holds %d (live %v)", id, slot, got, alive)
		}
	}
}

// checkStepResult requires a step's assignments to equal the snapshot it
// published and, once the models are trained, the snapshot's forecasts to
// equal System.Forecast and the pre-plan reconstruction (the oracle
// referenceReconstruct over the published centroid table) bit for bit, NaN
// rows included.
func checkStepResult(t *testing.T, sys *System, res *StepResult, gen uint64) {
	t.Helper()
	snap := sys.Snapshot()
	if snap == nil || snap.Generation() != gen+1 || snap.Steps() != sys.Steps() || res.T != sys.Steps() {
		t.Fatalf("step %d (result T %d) published %+v after generation %d", sys.Steps(), res.T, snap, gen)
	}
	for tr, pr := range res.PerResource {
		if len(pr.Assignments) != sys.Slots() {
			t.Fatalf("tracker %d: %d assignments for %d slots", tr, len(pr.Assignments), sys.Slots())
		}
		for i, a := range pr.Assignments {
			if got := snap.Assignment(tr, i); got != a {
				t.Fatalf("step %d tracker %d slot %d: StepResult says %d, snapshot %d", sys.Steps(), tr, i, a, got)
			}
		}
	}
	if !sys.Ready() {
		return
	}
	h := snap.MaxHorizon()
	want, err := sys.Forecast(h)
	if err != nil {
		t.Fatal(err)
	}
	got, err := snap.Forecast(h)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTensor(got, want) {
		t.Fatalf("step %d: snapshot forecast %v, System.Forecast %v", sys.Steps(), got, want)
	}
	ref, err := referenceReconstruct(sys.reconEnv(), snap.plan.cent, h)
	if err != nil {
		t.Fatal(err)
	}
	if !sameTensor(got, ref) {
		t.Fatalf("step %d: snapshot forecast %v, reference reconstruction %v", sys.Steps(), got, ref)
	}
}

// sameTensor compares two forecast tensors bit for bit.
func sameTensor(a, b [][][]float64) bool {
	return slices.EqualFunc(a, b, func(x, y [][]float64) bool {
		return slices.EqualFunc(x, y, func(u, v []float64) bool {
			return slices.EqualFunc(u, v, func(p, q float64) bool { return math.Float64bits(p) == math.Float64bits(q) })
		})
	})
}

// sameResult compares two step results field by field, floats by bit.
func sameResult(a, b *StepResult) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.T != b.T || !slices.Equal(a.Transmitted, b.Transmitted) || !slices.Equal(a.Present, b.Present) ||
		!slices.Equal(a.Evicted, b.Evicted) || len(a.PerResource) != len(b.PerResource) {
		return false
	}
	for tr := range a.PerResource {
		if !slices.Equal(a.PerResource[tr].Assignments, b.PerResource[tr].Assignments) ||
			!sameTensor([][][]float64{a.PerResource[tr].Centroids}, [][][]float64{b.PerResource[tr].Centroids}) {
			return false
		}
	}
	return true
}

// coinPolicy is a custom policy that declines at random, a member's first
// report included: each decision is a hash of the salt, the step and the
// reported value, so a restored twin decides as the original does, and the
// policy carries no state.
type coinPolicy struct{ salt uint64 }

func (p coinPolicy) Decide(t int, x, _ []float64) bool {
	h := p.salt + uint64(t)*0x9e3779b97f4a7c15 + math.Float64bits(x[0])
	h = (h ^ h>>31) * 0xbf58476d1ce4e5b9
	return (h^h>>29)&1 == 0
}

func (coinPolicy) MarshalState() ([]byte, error) { return nil, nil }

func (coinPolicy) UnmarshalState(data []byte) error {
	if len(data) != 0 {
		return transmit.ErrBadState
	}
	return nil
}

// refusingModel is sample-and-hold with a Fit that fails on a
// data-dependent condition: it refuses a series whose newest value is above
// 0.8, as a black-box family may refuse data it cannot fit.
type refusingModel struct{ *forecast.SampleAndHold }

var errFitRefused = errors.New("fit refused: newest value above 0.8")

func (m refusingModel) Fit(series []float64) error {
	if len(series) > 0 && series[len(series)-1] > 0.8 {
		return errFitRefused
	}
	return m.SampleAndHold.Fit(series)
}

// opsInput hands out the fuzz bytes; a byte past the end reads as 0.
type opsInput struct{ data []byte }

func (in *opsInput) next() byte {
	if len(in.data) == 0 {
		return 0
	}
	b := in.data[0]
	in.data = in.data[1:]
	return b
}

func (in *opsInput) intn(n int) int { return int(in.next()) % n }

// FuzzSystemOps drives a small System (N ≤ 12, K ≤ 3, one or two resources,
// scalar or joint clustering, sample-and-hold or refusingModel,
// SnapshotHorizon 3, a warm-up of 2–6 steps, the default Adaptive policy or
// coinPolicy, which declines first reports too) through up to 64
// operations decoded from the bytes:
// Step and StepArrivals with in-range rows; the same with one malformed row
// or flag (NaN, ±Inf, beyond ±100, wrong width, a report for a dead slot,
// an arrival without a row, the wrong number of rows or flags), which must
// be rejected; AddNodes of fresh IDs and of departed ones, which land in
// tombstoned slots while any are free; RemoveNodes; roster calls that must
// be rejected (duplicate, negative or unknown IDs); reconcileRoster with
// the roster of an earlier step, and with a shrunk roster or one that binds
// a live slot to another ID (and departs a slot besides), which must be
// rejected; and ExportState → RestoreState into a fresh System, a twin
// that from then on receives every operation too. A NewCentral twin runs
// beside it from the start: it takes each accepted step as StepArrivals of
// the step's rows and transmissions, and every roster call.
//
// After each operation: a step of in-range rows that checkStep accepts has
// succeeded; a rejected call has left Steps, the state digest, the roster
// and the published generation as they were; a step's assignments equal
// its snapshot's, and once the models are trained the snapshot forecasts
// equal System.Forecast and referenceReconstruct bit for bit; an accepted reconcileRoster has laid
// the roster out as the record; the restored twin answers every call as
// the original does, with the same result and the same state digest; the
// NewCentral twin does too, its state equal but for the policies'; the
// roster is an ID ⇄ slot bijection with its free list sorted.
//
// One exception is known (ROADMAP item 3): a step that refusingModel's Fit
// fails returns errFitRefused after the trackers have committed, so the
// System is discarded, as Step's doc says, and the input ends there. Once a
// failed fit no longer fails the step, that case becomes a failure.
func FuzzSystemOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &opsInput{data: data}
		nodes := 1 + in.intn(12)
		cfg := Config{
			Nodes:             nodes,
			K:                 1 + in.intn(min(3, nodes)),
			Resources:         1 + in.intn(2),
			JointClustering:   in.intn(2) == 1,
			MPrime:            -1 + in.intn(5),
			InitialCollection: 2 + in.intn(5),
			RetrainEvery:      1 + in.intn(4),
			AbsenceTimeout:    in.intn(3),
			IncrementalRefit:  in.intn(2) == 1,
			SnapshotHorizon:   3,
			Seed:              uint64(in.next()),
		}
		// Bit 0 picks the policy and bit 3 the zoo.
		ext := in.next()
		if ext&1 == 1 {
			cfg.Policy = func(slot int) (transmit.Policy, error) {
				return coinPolicy{salt: uint64(slot)<<8 | cfg.Seed}, nil
			}
		}
		refusing := ext&8 != 0
		if refusing {
			cfg.Zoo = forecast.Pinned(func() forecast.Model { return refusingModel{forecast.NewSampleAndHold()} })
		}
		sys, err := NewSystem(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		central, err := NewCentral(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var twin *System
		// rosters holds the roster of every accepted step, as the WAL
		// records it.
		type roster struct {
			ids   []int
			alive []bool
		}
		var rosters []roster
		nextID := nodes
		d := cfg.Resources

		// rows builds one in-range step: silent members and dead slots nil.
		rows := func(s *System) ([][]float64, []bool) {
			x, arrived := make([][]float64, s.Slots()), make([]bool, s.Slots())
			r := s.Roster()
			for i := range x {
				b := in.next()
				if _, ok := r.IDAt(i); !ok || b%4 == 0 {
					continue
				}
				x[i] = []float64{float64(b) / 255, float64(b*37) / 255}[:d]
				arrived[i] = b%3 != 0
			}
			return x, arrived
		}
		departed := func() []int {
			var out []int
			for id := range nextID {
				if _, ok := sys.SlotOf(id); !ok {
					out = append(out, id)
				}
			}
			return out
		}

		for op := 0; op < 64 && len(in.data) > 0; op++ {
			kind := in.intn(10)
			before := opsViewOf(t, sys)
			var desc string
			var call func(s *System) (*StepResult, error)
			var stepX [][]float64 // an accepted step's rows, for the NewCentral twin
			var record roster     // what reconcileRoster lays the roster out as
			mustReject, checked := false, false
			switch kind {
			case 0, 1, 2: // a step of in-range rows
				x, arrived := rows(sys)
				stepX = x
				if kind != 2 {
					arrived = nil
				}
				checked = sys.checkStep(x, arrived) == nil
				if kind == 2 {
					desc = fmt.Sprintf("StepArrivals(%v, %v)", x, arrived)
					call = func(s *System) (*StepResult, error) { return s.StepArrivals(x, arrived) }
				} else {
					desc = fmt.Sprintf("Step(%v)", x)
					call = func(s *System) (*StepResult, error) { return s.Step(x) }
				}
			case 3: // a step with one malformed row or flag
				x, arrived := rows(sys)
				fault, slot := in.intn(8), in.intn(len(x)) // slots never shrink below the initial N ≥ 1
				arrivals := in.intn(2) == 1
				switch {
				case fault == 0:
					x = append(x, make([]float64, d))
					arrived = append(arrived, true)
				case fault == 1:
					arrived = arrived[:len(arrived)-1]
					arrivals = true
				case fault == 2 && x[slot] == nil:
					arrived[slot] = true
					arrivals = true
				default:
					if _, ok := sys.Roster().IDAt(slot); !ok && fault == 3 {
						x[slot] = make([]float64, d) // a report for a dead slot
						break
					}
					row := make([]float64, d)
					switch fault {
					case 4:
						row = append(row, 0.5)
					case 5:
						row[d-1] = math.NaN()
					case 6:
						row[0] = math.Inf(1 - 2*in.intn(2))
					default:
						row[0] = math.Nextafter(100, 200) * float64(1-2*in.intn(2))
					}
					x[slot] = row
				}
				mustReject = true
				if arrivals {
					desc = fmt.Sprintf("StepArrivals(%v, %v)", x, arrived)
					call = func(s *System) (*StepResult, error) { return s.StepArrivals(x, arrived) }
				} else {
					desc = fmt.Sprintf("Step(%v)", x)
					call = func(s *System) (*StepResult, error) { return s.Step(x) }
				}
			case 4, 5: // joiners: fresh IDs, or departed ones rejoining
				ids := []int{nextID}
				if gone := departed(); kind == 5 && len(gone) > 0 {
					ids[0] = gone[in.intn(len(gone))]
				} else {
					nextID++
				}
				desc = fmt.Sprintf("AddNodes(%v)", ids)
				call = func(s *System) (*StepResult, error) { return nil, s.AddNodes(ids...) }
			case 6: // a live member departs
				members := sys.Members()
				if len(members) == 0 {
					continue
				}
				id := members[in.intn(len(members))]
				desc = fmt.Sprintf("RemoveNodes(%d)", id)
				call = func(s *System) (*StepResult, error) { return nil, s.RemoveNodes(id) }
			case 7: // roster calls that must fail
				members := sys.Members()
				var ids []int
				add := true
				switch sel := in.intn(4); {
				case sel == 0 && len(members) > 0:
					ids = []int{nextID, members[in.intn(len(members))]}
				case sel == 1:
					ids = []int{nextID, nextID}
				case sel == 2:
					ids = []int{-1 - in.intn(3)}
				default:
					ids, add = []int{nextID + 1 + in.intn(4)}, false
				}
				mustReject = true
				if add {
					desc = fmt.Sprintf("AddNodes(%v)", ids)
					call = func(s *System) (*StepResult, error) { return nil, s.AddNodes(ids...) }
				} else {
					desc = fmt.Sprintf("RemoveNodes(%v)", ids)
					call = func(s *System) (*StepResult, error) { return nil, s.RemoveNodes(ids...) }
				}
			case 9: // a recorded roster replayed, or one that must be rejected
				ids, alive := rosterOf(sys)
				switch sel := in.intn(3); {
				case sel == 0 && len(rosters) > 0:
					r := rosters[in.intn(len(rosters))]
					ids, alive = r.ids, r.alive
				case sel == 1: // a shrink
					ids, alive = ids[:len(ids)-1], alive[:len(alive)-1]
					mustReject = true
				default: // a live slot bound to another ID, another slot departing
					members := sys.Members()
					if len(members) == 0 {
						continue
					}
					i, _ := sys.SlotOf(members[in.intn(len(members))])
					ids[i] = nextID
					if j := in.intn(len(ids)); j != i {
						alive[j] = false
					}
					mustReject = true
				}
				record = roster{ids, alive}
				desc = fmt.Sprintf("reconcileRoster(%v, %v)", ids, alive)
				call = func(s *System) (*StepResult, error) { return nil, s.reconcileRoster(ids, alive) }
			default: // restore a twin from the original's state
				st, err := sys.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if twin, err = NewSystem(cfg); err != nil {
					t.Fatal(err)
				}
				if err := twin.RestoreState(st); err != nil {
					t.Fatalf("op %d: restore at step %d: %v", op, sys.Steps(), err)
				}
				if got := opsViewOf(t, twin); !got.equal(before) {
					t.Fatalf("op %d: restored twin %+v, original %+v", op, got, before)
				}
				checkRoster(t, twin)
				continue
			}

			res, err := call(sys)
			switch {
			case refusing && errors.Is(err, errFitRefused):
				return // the known exception: the System is discarded
			case checked && err != nil:
				t.Fatalf("op %d %s: checkStep accepted it, the step failed: %v", op, desc, err)
			case err != nil:
				if !errors.Is(err, ErrBadInput) && !errors.Is(err, ErrBadConfig) {
					t.Fatalf("op %d %s: %v", op, desc, err)
				}
				if after := opsViewOf(t, sys); !after.equal(before) {
					t.Fatalf("op %d %s: rejected (%v), but the system moved: %+v → %+v", op, desc, err, before, after)
				}
			case mustReject:
				t.Fatalf("op %d %s: accepted", op, desc)
			case res != nil:
				checkStepResult(t, sys, res, before.gen)
				rosters = append(rosters, roster{before.ids, before.alive})
			case kind == 9:
				ids, alive := rosterOf(sys)
				laidOut := slices.Equal(alive, record.alive)
				for i := range ids {
					laidOut = laidOut && (!alive[i] || ids[i] == record.ids[i])
				}
				if !laidOut {
					t.Fatalf("op %d %s: accepted, roster now %v %v", op, desc, ids, alive)
				}
			}
			checkRoster(t, sys)
			switch {
			case res != nil:
				cres, cerr := central.StepArrivals(stepX, res.Transmitted)
				if cerr != nil || !sameResult(res, cres) {
					t.Fatalf("op %d %s: %+v, NewCentral twin's StepArrivals %v %+v", op, desc, res, cerr, cres)
				}
			case kind >= 4:
				if _, cerr := call(central); (err == nil) != (cerr == nil) {
					t.Fatalf("op %d %s: %v, NewCentral twin %v", op, desc, err, cerr)
				}
			}
			if a, b := policyFreeDigest(t, sys), policyFreeDigest(t, central); a != b {
				t.Fatalf("op %d %s: policy-free state digest %x, NewCentral twin's %x", op, desc, a, b)
			}
			if twin == nil {
				continue
			}
			twinGen := opsViewOf(t, twin).gen
			twinRes, twinErr := call(twin)
			if (err == nil) != (twinErr == nil) || !sameResult(res, twinRes) {
				t.Fatalf("op %d %s: original %v %+v, restored twin %v %+v", op, desc, err, res, twinErr, twinRes)
			}
			if twinRes != nil {
				checkStepResult(t, twin, twinRes, twinGen)
			}
			if a, b := stateDigest(t, sys), stateDigest(t, twin); a != b {
				t.Fatalf("op %d %s: state digest %x, restored twin %x", op, desc, a, b)
			}
		}
	})
}
