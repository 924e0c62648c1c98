package core

type ringSlot struct {
	tail int
}

// Snapshot mimics the published, reader-shared core.Snapshot: once built it
// is served lock-free and must never be written again.
type Snapshot struct {
	gen    int
	freq   []float64
	newest ringSlot
	plan   []int32
}

// Roster mimics core.Roster, the frozen membership view.
type Roster struct {
	byID map[int]int
}

// System stands in for the publishing core.System.
type System struct {
	ring []ringSlot
	snap *Snapshot
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

// publish is the allow-listed publisher that runs after the ring commit: it
// copies the newest ring slot and writes the plan before the snapshot is
// stored for readers.
func (s *System) publish(snap *Snapshot) {
	snap.newest = s.ring[0]
	snap.plan = make([]int32, len(snap.freq))
	s.snap = snap
}

// replan writes the plan of a snapshot that is already published: only the
// publishers may write it.
func (s *System) replan() {
	s.snap.plan = nil // want "write through frozen Snapshot field"
	plan := s.snap.plan
	plan[0] = -1 // want "write through frozen Snapshot-aliased"
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
