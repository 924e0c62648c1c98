package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"orcf/internal/transmit"
)

// deadband is a transmission policy the ingest walk does not know, so it is
// decided through Policy.Decide: transmit when nothing is stored, or when some
// resource moved by more than width since the stored row. Its state is the
// number of decisions it was asked for.
type deadband struct {
	width float64
	calls uint64
}

func (p *deadband) Decide(_ int, x, z []float64) bool {
	p.calls++
	for r := range z {
		if math.Abs(x[r]-z[r]) > p.width {
			return true
		}
	}
	return z == nil
}

func (p *deadband) MarshalState() ([]byte, error) {
	return binary.LittleEndian.AppendUint64(nil, p.calls), nil
}

func (p *deadband) UnmarshalState(data []byte) error {
	if len(data) != 8 {
		return transmit.ErrBadState
	}
	p.calls = binary.LittleEndian.Uint64(data)
	return nil
}

// once transmits at its first opportunity only, so the central node holds
// an initial value and nothing after it: the lower bound of a policy.
type once struct{ sent bool }

func (p *once) Decide(int, []float64, []float64) bool {
	first := !p.sent
	p.sent = true
	return first
}

func (p *once) MarshalState() ([]byte, error) {
	if p.sent {
		return []byte{1}, nil
	}
	return []byte{0}, nil
}

func (p *once) UnmarshalState(data []byte) error {
	if len(data) != 1 || data[0] > 1 {
		return transmit.ErrBadState
	}
	p.sent = data[0] == 1
	return nil
}

// mixedPolicy builds the heterogeneous fleet of
// TestIngestKernelMatchesReference by slot: runs of Adaptive policies (slots
// 0–2, 4, 7–8, 10–12) whose budget B differs from slot to slot, separated by
// one each of Uniform, Always, once and the foreign deadband.
func mixedPolicy(slot int) (transmit.Policy, error) {
	switch slot % 10 {
	case 3:
		return transmit.NewUniform(0.4)
	case 5:
		return transmit.Always{}, nil
	case 6:
		return &once{}, nil
	case 9:
		return &deadband{width: 0.08}, nil
	}
	return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.15 + 0.1*float64(slot%4)})
}

// kernelFleetInput is one step's rows at dimension d: smooth per-node
// signals, members whose ID is a multiple of four holding one value for good
// (an exact-zero penalty once stored), and at step 46 every node trading
// levels with its neighbour.
func kernelFleetInput(roster *Roster, step, d int, silent map[int]bool) [][]float64 {
	x := make([][]float64, roster.Slots())
	for i := range x {
		id, live := roster.IDAt(i)
		if !live || silent[id] {
			continue
		}
		switch {
		case id%4 == 0:
			x[i] = churnRow(id, 0, d)
		case step == 46:
			x[i] = churnRow(id+1, step+15, d)
		default:
			x[i] = churnRow(id, step, d)
		}
	}
	return x
}

// TestIngestKernelMatchesReference runs the differential oracle of
// TestStepMatchesReferenceExactly over what the fused layer-1 walk
// specialises on: every unrolled width and the generic loop (d = 1, 2, 3, 4,
// 5, 8) in both store layouts, with a fleet of identical Adaptive policies and
// with the heterogeneous fleet of mixedPolicy. The fleet has silent rows, an
// absence-timeout eviction, administrative removals (one a tombstone that
// stays inside a run of Adaptive slots), recycled slots and growth, and at
// step 36 the System under test is replaced by a fresh one restored from its
// own exported state. After every step the result, the central store, the
// meters, every policy's state bytes and the exported state must equal the
// reference pipeline's.
func TestIngestKernelMatchesReference(t *testing.T) {
	t.Parallel()
	for _, d := range []int{1, 2, 3, 4, 5, 8} {
		for _, joint := range []bool{false, true} {
			for _, mixed := range []bool{false, true} {
				t.Run(fmt.Sprintf("d=%d joint=%v mixed=%v", d, joint, mixed), func(t *testing.T) {
					t.Parallel()
					cfg := churnConfig(12)
					cfg.Resources = d
					cfg.AbsenceTimeout = 3
					cfg.JointClustering = joint
					cfg.IncrementalRefit = d%2 == 0
					if mixed {
						cfg.Policy = mixedPolicy
					}
					ref := newReferenceSystem(t, cfg)
					sys, err := NewSystem(cfg)
					if err != nil {
						t.Fatal(err)
					}
					both := func(op string, fn func(add, remove func(ids ...int) error) error) {
						t.Helper()
						if err := fn(ref.AddNodes, ref.RemoveNodes); err != nil {
							t.Fatalf("%s: reference: %v", op, err)
						}
						if err := fn(sys.AddNodes, sys.RemoveNodes); err != nil {
							t.Fatalf("%s: %v", op, err)
						}
					}
					silent := map[int]bool{}
					sentByInline, sentByForeign := 0, 0
					for step := 1; step <= 60; step++ {
						switch step {
						case 14:
							silent[1] = true // evicted by the absence timeout at step 16
						case 18, 19: // a silent row that comes back before the timeout
							silent[7] = step == 18
						case 20:
							both("remove", func(_, remove func(...int) error) error { return remove(8) })
						case 24: // recycles slot 1
							both("join", func(add, _ func(...int) error) error { return add(100) })
						case 28: // 101 recycles slot 8, 102 grows the fleet and reports from step 30
							both("join", func(add, _ func(...int) error) error { return add(101, 102) })
							silent[102] = true
						case 30:
							delete(silent, 102)
						case 50: // a tombstone that stays, in the middle of the Adaptive run 10–12
							both("remove", func(_, remove func(...int) error) error { return remove(11) })
						case 36:
							st, err := sys.ExportState()
							if err != nil {
								t.Fatal(err)
							}
							if sys, err = NewSystem(cfg); err != nil {
								t.Fatal(err)
							}
							if err := sys.RestoreState(st); err != nil {
								t.Fatalf("restore at step %d: %v", step, err)
							}
						}
						x := kernelFleetInput(sys.Roster(), step, d, silent)
						want, err := ref.Step(x)
						if err != nil {
							t.Fatalf("step %d: reference: %v", step, err)
						}
						got, err := sys.Step(x)
						if err != nil {
							t.Fatalf("step %d: %v", step, err)
						}
						if got.T != want.T || !slices.Equal(got.Transmitted, want.Transmitted) ||
							!slices.Equal(got.Present, want.Present) || !slices.Equal(got.Evicted, want.Evicted) {
							t.Fatalf("step %d: result header differs:\n got %+v\nwant %+v", step, got, want)
						}
						sameClusterings(t, step, got, want)
						if !reflect.DeepEqual(sys.Stored(), ref.Stored()) {
							t.Fatalf("step %d: central stores differ:\n got %v\nwant %v", step, sys.Stored(), ref.Stored())
						}
						gotState, err := sys.ExportState()
						if err != nil {
							t.Fatal(err)
						}
						wantState, err := ref.ExportState()
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(gotState.Meters, wantState.Meters) {
							t.Fatalf("step %d: meters %v, reference %v", step, gotState.Meters, wantState.Meters)
						}
						if !slices.Equal(gotState.AbsentFor, wantState.AbsentFor) {
							t.Fatalf("step %d: absence counters %v, reference %v", step, gotState.AbsentFor, wantState.AbsentFor)
						}
						for i, w := range wantState.Policies {
							if !bytes.Equal(gotState.Policies[i], w) {
								t.Fatalf("step %d: slot %d policy %T state %x, reference %x",
									step, i, sys.policies[i], gotState.Policies[i], w)
							}
						}
						if g, w := coreStateDigest(gotState), coreStateDigest(wantState); g != w {
							t.Fatalf("step %d: ExportState digest %016x, reference %016x", step, g, w)
						}
						for i, sent := range got.Transmitted {
							if _, inline := sys.policies[i].(*transmit.Adaptive); sent && inline {
								sentByInline++
							} else if sent {
								sentByForeign++
							}
						}
					}
					if sys.Evictions() != 3 || sys.Slots() != 13 {
						t.Fatalf("scenario lost coverage: %d evictions, %d slots", sys.Evictions(), sys.Slots())
					}
					if sentByInline == 0 || (sentByForeign > 0) != mixed {
						t.Fatalf("scenario lost coverage: %d transmissions decided inline, %d through Decide", sentByInline, sentByForeign)
					}
				})
			}
		}
	}
}

// TestIngestKernelDecidesAtTheThreshold puts the virtual queue on, one ulp
// below and one ulp above V_t·F for random rows of every width in both
// layouts: a penalty that is off by one ulp in the walk (a reordered sum, a
// reciprocal for the division) flips one of the three decisions against
// Adaptive.Decide. FuzzDecideKernelMatchesPolicy draws the queue
// independently of the rows and all but never lands there.
func TestIngestKernelDecidesAtTheThreshold(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewPCG(19, 7))
	cfg := transmit.AdaptiveConfig{Budget: 0.3}
	for trial := 0; trial < 400; trial++ {
		d, step := 1+trial%8, 1+rng.IntN(5000)
		x, z := make([]float64, d), make([]float64, d)
		var sum float64
		for r := range x {
			x[r], z[r] = rng.Float64(), rng.Float64()
			sum += (x[r] - z[r]) * (x[r] - z[r])
		}
		// Near enough: an ulp beside the true threshold is still within two
		// of it, and Decide on the twin is the oracle either way. V0 = 0.5
		// and γ = 0.65 are written out: eq. 9's weight at the paper's γ.
		at := 0.5 * math.Pow(float64(step)+1, 0.65) * (sum / float64(d))
		for _, queue := range []float64{math.Nextafter(at, math.Inf(-1)), at, math.Nextafter(at, math.Inf(1))} {
			checkKernelDecision(t, cfg, queue, step, trial%16 >= 8, x, z)
		}
	}
}

// recordedCall is one Policy.Decide call as a recorder saw it; x and z are
// copies, z nil when the policy was handed nil.
type recordedCall struct {
	t, slot int
	x, z    []float64
}

// recorder is a foreign policy that appends every call to a log shared by
// the fleet and transmits on its first call and whenever t+slot is a
// multiple of three.
type recorder struct {
	slot int
	log  *[]recordedCall
}

func (p *recorder) Decide(t int, x, z []float64) bool {
	*p.log = append(*p.log, recordedCall{t: t, slot: p.slot, x: slices.Clone(x), z: slices.Clone(z)})
	return z == nil || (t+p.slot)%3 == 0
}

// TestIngestCallsForeignPoliciesInSlotOrder pins what a policy the walk does
// not decide inline may rely on: exactly one Decide(t, x, z) per reporting
// live slot and step, in ascending slot order, z nil until the policy's first
// transmission and the stored row afterwards, x the reported row — with
// Adaptive slots, silent rows and a tombstone in between.
func TestIngestCallsForeignPoliciesInSlotOrder(t *testing.T) {
	t.Parallel()
	for _, joint := range []bool{false, true} {
		t.Run(fmt.Sprintf("joint=%v", joint), func(t *testing.T) {
			t.Parallel()
			const n, d = 9, 3
			var log []recordedCall
			inline := func(slot int) bool { return slot == 2 || slot == 5 }
			sys, err := NewSystem(Config{
				Nodes: n, Resources: d, K: 2, JointClustering: joint,
				Policy: func(slot int) (transmit.Policy, error) {
					if inline(slot) {
						return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.5})
					}
					return &recorder{slot: slot, log: &log}, nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			held := make([][]float64, n) // the store as the recorders' decisions imply it
			for step := 1; step <= 30; step++ {
				if step == 9 {
					if err := sys.RemoveNodes(4); err != nil {
						t.Fatal(err)
					}
					held[4] = nil
				}
				x := make([][]float64, n)
				var want []recordedCall
				for i := range x {
					if !isMember(sys, i) || (step+2*i)%5 == 0 { // tombstone, or silent this step
						continue
					}
					x[i] = churnRow(i, step, d)
					if !inline(i) {
						want = append(want, recordedCall{t: step, slot: i, x: x[i], z: held[i]})
					}
				}
				log = log[:0]
				res, err := sys.Step(x)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if !reflect.DeepEqual(log, want) {
					t.Fatalf("step %d: Decide calls\n got %+v\nwant %+v", step, log, want)
				}
				for _, c := range want {
					sent := c.z == nil || (c.t+c.slot)%3 == 0
					if res.Transmitted[c.slot] != sent {
						t.Fatalf("step %d slot %d: transmitted %v, the policy said %v", step, c.slot, res.Transmitted[c.slot], sent)
					}
					if sent {
						held[c.slot] = c.x
					}
				}
				stored := sys.Stored()
				for i, z := range held {
					if !inline(i) && !slices.Equal(stored[i], z) {
						t.Fatalf("step %d slot %d: store holds %v, want %v", step, i, stored[i], z)
					}
				}
			}
		})
	}
}
