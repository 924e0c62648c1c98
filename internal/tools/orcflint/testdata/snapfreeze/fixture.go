package core

import "sync"

type ringSlot struct {
	tail int
}

// Snapshot mimics the published, reader-shared core.Snapshot: once built it
// is served lock-free and must never be written again.
type Snapshot struct {
	gen   int
	freq  []float64
	slots []*ringSlot

	planOnce sync.Once
	plan     []int32
}

// Roster mimics core.Roster, the frozen membership view.
type Roster struct {
	byID map[int]int
}

// assembleSnapshot is an allow-listed publisher: it may write fields freely.
func assembleSnapshot(n int) *Snapshot {
	snap := &Snapshot{freq: make([]float64, n)}
	snap.gen = 1
	for i := range snap.freq {
		snap.freq[i] = float64(i)
	}
	return snap
}

// forecastSnapshot is the other allow-listed publisher.
func forecastSnapshot(snap *Snapshot) {
	snap.gen++
}

// buildPlan is the allow-listed lazy builder: the one sanctioned write after
// publication, reached only through the snapshot's sync.Once.
func (snap *Snapshot) buildPlan() {
	snap.plan = make([]int32, len(snap.freq))
}

// lazyPlan runs the builder under the Once and only reads the field itself.
func (snap *Snapshot) lazyPlan() []int32 {
	snap.planOnce.Do(snap.buildPlan)
	return snap.plan
}

// inlinePlan writes the field from its own closure: a Once does not make an
// arbitrary function a publisher.
func (snap *Snapshot) inlinePlan() []int32 {
	snap.planOnce.Do(func() {
		snap.plan = make([]int32, len(snap.freq)) // want "write through frozen Snapshot field"
	})
	return snap.plan
}

// mutate reintroduces the PR 5 stale-tail class: post-publication writes
// through Snapshot fields, both direct and via a local slice alias.
func mutate(snap *Snapshot) {
	snap.gen = 2     // want "write through frozen Snapshot field"
	snap.freq[0] = 1 // want "write through frozen Snapshot field"
	tail := snap.freq
	tail[1] = 2 // want "write through frozen Snapshot-aliased"
	snap.gen++  // want "write through frozen Snapshot field"
}

func mutateRoster(r *Roster) {
	r.byID[1] = 2 // want "write through frozen Roster field"
}

// fresh builds by composite literal, which is always allowed.
func fresh() Roster {
	return Roster{byID: map[int]int{1: 1}}
}

// readOnly consumes snapshot fields without writing; local copies of scalar
// values are fine.
func readOnly(snap *Snapshot) float64 {
	total := 0.0
	for _, f := range snap.freq {
		total += f
	}
	return total
}
