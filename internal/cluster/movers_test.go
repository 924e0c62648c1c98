package cluster

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
)

// moverScript is the fleet a movers-pass script steps: slot i belongs to
// group i%3 and reports that group's level unless a step moves it.
type moverScript struct {
	present []bool
	forget  []int // slots to ForgetSlot before the next update
	restore bool  // restore the tracker from its own export before the update
}

// moverStep is one scripted update: a membership change, the slots that
// report another group's level (slot → group), and the branch the update
// must take at M = 1 — "movers" (tallyMovers and commitMovers), "warm" (a
// warm step through tally and commit) or "full" (a K-means refit).
type moverStep struct {
	name string
	op   func(s *moverScript)
	move map[int]int
	want string
}

// moverSteps reaches every branch of the movers pass: accepted with the
// identity mapping with and without movers (three of twelve at the default
// threshold of 0.25 fill the mover list exactly), accepted with a non-identity
// mapping, rejected by churn and by an emptied cluster, and the membership
// events that must leave it (a leave, a rejoin, a recycled slot, fleet
// growth, a restore) and the settled step that takes it again.
var moverSteps = []moverStep{
	{name: "first step", want: "full"},
	{name: "no movers", want: "movers"},
	{name: "one mover", move: map[int]int{0: 1}, want: "movers"},
	{name: "mover returns", want: "movers"},
	{name: "movers at the threshold", move: map[int]int{0: 1, 3: 1, 1: 2}, want: "movers"},
	{name: "threshold movers return", want: "movers"},
	{name: "two clusters swap", move: map[int]int{0: 1, 3: 1, 6: 1, 9: 1, 1: 0, 4: 0, 7: 0, 10: 0}, want: "warm"},
	{name: "swap back", want: "warm"},
	{name: "no movers after swaps", want: "movers"},
	{name: "churn past threshold", move: map[int]int{0: 1, 3: 1, 1: 2, 4: 2}, want: "full"},
	{name: "settled after refit", move: map[int]int{0: 1, 3: 1, 1: 2, 4: 2}, want: "movers"},
	{name: "churn back", want: "full"},
	{name: "emptied cluster", move: map[int]int{2: 1, 5: 1, 8: 1, 11: 1}, want: "full"},
	{name: "settled after emptied", move: map[int]int{2: 1, 5: 1, 8: 1, 11: 1}, want: "movers"},
	{name: "groups return", want: "movers"},
	{name: "leave", op: func(s *moverScript) { s.present[5] = false; s.forget = []int{5} }, want: "warm"},
	{name: "masked", want: "warm"},
	{name: "back unforgotten", op: func(s *moverScript) { s.present[5] = true }, want: "full"},
	{name: "settled after return", want: "movers"},
	{name: "leave again", op: func(s *moverScript) { s.present[5] = false; s.forget = []int{5} }, want: "warm"},
	{name: "rejoin", op: func(s *moverScript) { s.present[5] = true; s.forget = []int{5} }, want: "full"},
	{name: "settled after rejoin", move: map[int]int{0: 1}, want: "movers"},
	{name: "slot recycled", op: func(s *moverScript) { s.forget = []int{7} }, want: "full"},
	{name: "settled after recycle", want: "movers"},
	{name: "fleet grows", op: func(s *moverScript) { s.present = append(s.present, true) }, want: "full"},
	{name: "settled after growth", move: map[int]int{12: 1}, want: "movers"},
	{name: "restored", op: func(s *moverScript) { s.restore = true }, move: map[int]int{12: 1}, want: "warm"},
	{name: "settled after restore", want: "movers"},
	{name: "mover after restore", move: map[int]int{2: 0}, want: "movers"},
}

// TestMoversPassMatchesReference pins the movers pass bit-identical to the
// preserved pre-change tracker on every branch of moverSteps — assignments,
// centroid bits, history, run counters, RefitStats and RNG stream after
// every update — and that at M = 1 it actually ran where the script says,
// through the in-package counter commitMovers keeps. At M = 2 and with
// HistoryDepth 8 it must never run.
func TestMoversPassMatchesReference(t *testing.T) {
	t.Parallel()
	for _, cfg := range []Config{
		{K: 3, Incremental: true},
		{K: 3, Incremental: true, Similarity: SimilarityJaccard},
		{K: 3, Incremental: true, IncrementalChurn: 0.9},
		{K: 3, M: 2, Incremental: true},
		{K: 3, Incremental: true, HistoryDepth: 8},
	} {
		t.Run(fmt.Sprintf("%+v", cfg), func(t *testing.T) { moverScriptMatchesReference(t, cfg) })
	}
}

// moverScriptMatchesReference steps moverSteps through cfg. The branches are
// checked at the default churn threshold, where the script's rejections
// happen; at M > 1 or with more than one history row a "movers" step must
// take the general warm path.
func moverScriptMatchesReference(t *testing.T, cfg Config) {
	general := cfg.M > 1 || cfg.HistoryDepth > 1
	checkBranches := cfg.IncrementalChurn == 0
	const seed = 11
	src := rand.NewPCG(seed, seed^0xabcdef)
	tr, err := NewTracker(cfg, rand.New(src))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReferenceTracker(cfg, testRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	s := &moverScript{present: make([]bool, 12)}
	for i := range s.present {
		s.present[i] = true
	}
	var cents []float64
	for step, sc := range moverSteps {
		tag := fmt.Sprintf("step %d (%s)", step, sc.name)
		if sc.op != nil {
			sc.op(s)
		}
		for _, slot := range s.forget {
			tr.ForgetSlot(slot)
			ref.ForgetSlot(slot)
		}
		s.forget = nil
		if s.restore {
			s.restore = false
			tr, src = restoredTracker(t, tr, src, cents)
		}
		points := make([][]float64, len(s.present))
		for i := range points {
			g, ok := sc.move[i]
			if !ok {
				g = i % 3
			}
			if s.present[i] {
				points[i] = []float64{float64(g)*10 + float64(i)*0.01}
			}
		}
		present := s.present
		if !slices.Contains(present, false) {
			present = nil
		}
		want, err := ref.UpdateMasked(points, present)
		if err != nil {
			t.Fatalf("%s: reference: %v", tag, err)
		}
		warm0, full0, movers0 := tr.warmSteps, tr.fullSteps, tr.moverSteps
		var assign []int
		assign, cents, err = tr.UpdateFlat(flatten(points, present, 1), len(points), 1, present)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		sameStep(t, tag, &Step{T: tr.t, Assignments: assign, Centroids: [][]float64{cents[:1], cents[1:2], cents[2:3]}}, want)
		sameTrackerState(t, tag, tr, ref)

		got := "full"
		switch {
		case tr.moverSteps > movers0:
			got = "movers"
		case tr.warmSteps > warm0:
			got = "warm"
		}
		if tr.warmSteps+tr.fullSteps != warm0+full0+1 {
			t.Fatalf("%s: RefitStats moved by %d", tag, tr.warmSteps+tr.fullSteps-warm0-full0)
		}
		if general && got == "movers" {
			t.Fatalf("%s: the movers pass ran at M = %d, HistoryDepth = %d", tag, tr.cfg.M, tr.cfg.HistoryDepth)
		}
		wantBranch := sc.want
		if general && wantBranch == "movers" {
			wantBranch = "warm"
		}
		if checkBranches && got != wantBranch {
			t.Fatalf("%s: took the %s branch, want %s", tag, got, wantBranch)
		}
	}
	if ref.rng.Uint64() != tr.rng.Uint64() {
		t.Fatal("RNG streams diverged")
	}
	if !general && tr.moverSteps == 0 {
		t.Fatal("the movers pass never ran")
	}
}

// restoredTracker is a fresh tracker restored from tr's exported state, its
// last centroids and a copy of its RNG source, with tr's RefitStats carried
// over (they are not part of State).
func restoredTracker(t *testing.T, tr *Tracker, src *rand.PCG, cents []float64) (*Tracker, *rand.PCG) {
	t.Helper()
	b, err := src.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	src2 := rand.NewPCG(0, 0)
	if err := src2.UnmarshalBinary(b); err != nil {
		t.Fatal(err)
	}
	tr2, err := NewTracker(tr.cfg, rand.New(src2))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr2.RestoreState(tr.ExportState(), cents); err != nil {
		t.Fatal(err)
	}
	tr2.warmSteps, tr2.fullSteps = tr.warmSteps, tr.fullSteps
	return tr2, src2
}
