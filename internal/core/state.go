package core

import (
	"errors"
	"fmt"
	"hash/fnv"

	"orcf/internal/cluster"
	"orcf/internal/forecast"
	"orcf/internal/parallel"
	"orcf/internal/transmit"
)

// StateVersion identifies the State layout; persisted states with a
// different version are rejected on restore. Version 2 added the fleet
// membership roster (stable IDs, liveness, absence counters) and the
// per-slot presence masks of the look-back window, so restore reconciles
// the recorded roster instead of requiring an exactly-matching fleet size.
const StateVersion = 2

// ErrNotPersistent reports a transmission policy that does not implement
// transmit.Persistent, or clusterers built by Config.Clusterer, so the
// system's state cannot be exported.
var ErrNotPersistent = errors.New("core: state export not supported")

// errForeignClusterers is ErrNotPersistent for a System whose clusterers
// Config.Clusterer built: core holds neither their state nor their RNG.
var errForeignClusterers = fmt.Errorf("core: clusterers built by Config.Clusterer: %w", ErrNotPersistent)

// ErrBadState reports a State that cannot restore this system (version,
// fingerprint, or shape mismatch).
var ErrBadState = errors.New("core: invalid state")

// State is the complete serializable state of a System: everything Step and
// Forecast read that evolves over time. A fresh System built from the same
// Config and restored from a State continues bit-identically to the run that
// exported it — step N, export, restore, step N+1 equals an uninterrupted
// run (the crash-consistency property internal/persist builds on).
//
// Model weights are deliberately absent: forecasting models are
// reconstructed by deterministic refit on the persisted centroid series
// (see forecast.EnsembleState), which keeps the format independent of the
// configured model family.
type State struct {
	// Version is the State layout version (StateVersion).
	Version int
	// Fingerprint guards against restoring under a different configuration;
	// see Config.Fingerprint.
	Fingerprint uint64
	// T is the number of processed steps.
	T int
	// Gen is the published snapshot generation (0 when publishing was
	// disabled or no step had completed).
	Gen uint64
	// IDs is the membership roster: the stable node ID bound to each dense
	// slot (tombstoned slots record their last occupant).
	IDs []int
	// Alive flags the slots holding live members.
	Alive []bool
	// AbsentFor carries each live member's consecutive report-less steps
	// (toward the absence timeout); zero for tombstones.
	AbsentFor []int
	// Evictions is the lifetime departure count.
	Evictions uint64
	// ZSet flags the slots whose measurement is held in the central store.
	ZSet []bool
	// Z holds the central store z_t, one row per slot (nil when unset).
	Z [][]float64
	// Window is the eq. (12) look-back, newest first (at most M'+1 slots).
	Window []SlotState
	// Meters carries the per-slot eq. (5) frequency counters.
	Meters []MeterState
	// Policies holds each live member policy's opaque mutable state (nil
	// for tombstoned slots, and for every slot of an edge-less System).
	Policies [][]byte
	// TrackerRNGs holds each tracker's marshaled K-means PCG source.
	TrackerRNGs [][]byte
	// Trackers holds the per-tracker clustering state.
	Trackers []*cluster.State
	// Ensembles holds the per-tracker forecasting-ensemble state.
	Ensembles []*forecast.EnsembleState
}

// SlotState is one serialized look-back slot: the stored measurements plus
// the per-tracker assignments and centroids of that step.
type SlotState struct {
	// Z is the stored measurement matrix (Slots × Resources).
	Z [][]float64
	// Assignments maps [tracker][slot] to a stable cluster index (-1 =
	// absent from clustering at that step).
	Assignments [][]int
	// Centroids holds [tracker][cluster][dim] centroid coordinates.
	Centroids [][][]float64
	// Present flags the slots clustered at that step.
	Present []bool
}

// MeterState is a serialized transmit.Meter.
type MeterState struct {
	// Steps is the number of observed decisions.
	Steps int
	// Transmits is the number of observed transmissions.
	Transmits int
}

// Fingerprint returns a stable hash of every configuration field that shapes
// persisted state: topology (Resources, K, M, M'), schedules, the
// similarity measure, the clustering seed, and the ablation switches. The
// fleet size is deliberately absent — the State records the membership
// roster itself, so a restore reconciles membership instead of demanding an
// exactly-matching Nodes value. Runtime-only knobs (SnapshotHorizon,
// AbsenceTimeout) and the Policy and Clusterer factories are also excluded.
// A non-empty Zoo is hashed by its candidate names, never by its builders:
// the factories cannot be hashed. The package's policies tag their state
// bytes with their type, so one of another type rejects them on restore,
// but restoring under a differently parameterized policy or family of the
// same name is the caller's responsibility to avoid (the refit-from-series
// reconstruction will generally fail loudly, but not provably always).
func (c Config) Fingerprint() uint64 {
	c = c.withDefaults()
	if c.Similarity == 0 {
		c.Similarity = cluster.SimilarityProposed
	}
	h := fnv.New64a()
	// noclamp is the forecast clamp's retired ablation switch, written as
	// the literal it always was so that no fingerprint moves. fitw is the
	// configured FitWindow, 0 for the default window, for the same reason.
	fmt.Fprintf(h, "orcf-state-v%d|d=%d|K=%d|M=%d|Mp=%d|sim=%d|init=%d|retrain=%d|fitw=%d|joint=%t|seed=%d|noclamp=false|noalpha=%t|nomatch=%t",
		StateVersion, c.Resources, c.K, c.M, c.MPrime, int(c.Similarity),
		c.InitialCollection, c.RetrainEvery, c.FitWindow, c.JointClustering,
		c.Seed, c.DisableAlphaClamp, c.DisableMatching)
	if c.IncrementalRefit {
		// Warm-started steps skip the K-means RNG draws, so incremental runs
		// are not bit-interchangeable with full-refit runs (nor with a
		// different churn threshold). Appending only when enabled keeps every
		// pre-existing fingerprint stable.
		fmt.Fprintf(h, "|inc=1|churn=%g", c.IncrementalChurn)
	}
	if len(c.Zoo) > 0 {
		// A zoo's selection state is part of the persisted format, so the
		// candidate roster and selection tuning must match on restore. The
		// conditional append keeps the empty zoo's (sample-and-hold)
		// fingerprint what it was before zoos existed.
		fmt.Fprintf(h, "|zoo=")
		for i, cand := range c.Zoo {
			if i > 0 {
				fmt.Fprintf(h, ",")
			}
			fmt.Fprintf(h, "%s", cand.Name)
		}
		fmt.Fprintf(h, "|selw=%d|selm=%g|sels=%d|selmet=%s",
			c.Selection.Window, c.Selection.Margin, c.Selection.Streak, c.Selection.Metric)
	}
	return h.Sum64()
}

// ExportState deep-copies the system's complete mutable state. The returned
// State shares no memory with the system, so callers may serialize it on a
// background goroutine while the system keeps stepping — that is how
// internal/persist encodes checkpoints off the ingest hot path. ExportState
// itself must be called from the stepping goroutine (between Steps); the
// per-tracker copies fan out on the worker pool. It fails with
// ErrNotPersistent when any node's policy does not implement
// transmit.Persistent, or when Config.Clusterer built the clusterers.
func (s *System) ExportState() (*State, error) {
	if s.cfg.Clusterer != nil {
		return nil, errForeignClusterers
	}
	st := &State{
		Version:     StateVersion,
		Fingerprint: s.cfg.Fingerprint(),
		T:           s.t,
		Gen:         s.gen,
		IDs:         append([]int(nil), s.ids...),
		Alive:       append([]bool(nil), s.alive...),
		AbsentFor:   append([]int(nil), s.absentFor...),
		Evictions:   s.evictions,
	}

	st.Policies = make([][]byte, len(s.policies))
	for i, p := range s.policies {
		if p == nil {
			continue // tombstoned slot, or an edge-less System
		}
		pp, ok := p.(transmit.Persistent)
		if !ok {
			return nil, fmt.Errorf("core: node %d policy %T: %w", i, p, ErrNotPersistent)
		}
		b, err := pp.MarshalState()
		if err != nil {
			return nil, fmt.Errorf("core: node %d policy state: %w", i, err)
		}
		st.Policies[i] = b
	}

	st.Meters = make([]MeterState, len(s.meters))
	for i := range s.meters {
		st.Meters[i] = MeterState{Steps: s.meters[i].Steps(), Transmits: s.meters[i].Transmits()}
	}

	st.ZSet = append([]bool(nil), s.stage.present...)
	st.Z = s.Stored()

	st.Window = make([]SlotState, s.ringLen)
	for ago := 0; ago < s.ringLen; ago++ {
		st.Window[ago] = s.exportSlot(s.snapAt(ago))
	}

	st.Trackers = make([]*cluster.State, s.nTrackers)
	st.Ensembles = make([]*forecast.EnsembleState, s.nTrackers)
	st.TrackerRNGs = make([][]byte, s.nTrackers)
	err := parallel.ForEach(s.nTrackers, func(tr int) error {
		st.Trackers[tr] = s.trackers[tr].(*cluster.Tracker).ExportState()
		st.Ensembles[tr] = s.ensembles[tr].ExportState()
		rng, err := s.pcgs[tr].MarshalBinary()
		if err != nil {
			return fmt.Errorf("core: tracker %d rng: %w", tr, err)
		}
		st.TrackerRNGs[tr] = rng
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// exportSlot deep-copies one look-back slot into its serialized form.
func (s *System) exportSlot(slot *ringSlot) SlotState {
	n, d := len(slot.present), s.cfg.Resources
	out := SlotState{
		Z:           make([][]float64, n),
		Assignments: make([][]int, s.nTrackers),
		Centroids:   make([][][]float64, s.nTrackers),
		Present:     append([]bool(nil), slot.present...),
	}
	flat := make([]float64, n*d)
	for i := range out.Z {
		out.Z[i] = slot.z.row(i, flat[i*d:(i+1)*d:(i+1)*d])
	}
	for tr := range out.Assignments {
		row := make([]int, len(slot.assignments[tr]))
		for i, a := range slot.assignments[tr] {
			row[i] = int(a)
		}
		out.Assignments[tr] = row
		out.Centroids[tr] = rowViews(append([]float64(nil), slot.centroids(tr)...), s.dims)
	}
	return out
}

// RestoreState loads an exported State into a freshly constructed System
// (no steps processed). The system must have been built from the same
// Config that produced the State (checked via Fingerprint; Nodes,
// SnapshotHorizon, and AbsenceTimeout may differ) — the recorded membership
// roster replaces the construction-time fleet wholesale, so a restore never
// requires knowing the fleet size in advance. After a successful restore
// the system continues bit-identically to the exporting run; on error the
// system is unchanged only for validation failures, which include a policy
// rejecting its state bytes (ErrBadState) — a mid-restore failure (e.g. a
// tracker rejecting its state) leaves it unusable. A System built with
// Config.Clusterer restores nothing and returns ErrNotPersistent.
//
// When snapshot publishing is enabled, restore also republishes the
// snapshot for generation State.Gen, so the serving plane is warm
// immediately after recovery instead of waiting for the next step.
func (s *System) RestoreState(st *State) error {
	if s.cfg.Clusterer != nil {
		return errForeignClusterers
	}
	if err := s.validateState(st); err != nil {
		return err
	}
	// The live slots' policies are built and loaded before anything
	// changes, so state bytes a policy rejects — written by another policy
	// type, say — leave the system as it was.
	policies := make([]transmit.Policy, len(st.IDs))
	for i := range policies {
		if !st.Alive[i] {
			continue
		}
		p, err := s.newPolicy(i)
		if err != nil {
			return err
		}
		if pp, ok := p.(transmit.Persistent); ok {
			if err := pp.UnmarshalState(st.Policies[i]); err != nil {
				return fmt.Errorf("core: node %d policy state: %w: %w", i, ErrBadState, err)
			}
		} else if p != nil {
			return fmt.Errorf("core: slot %d policy %T: %w", i, p, ErrNotPersistent)
		}
		policies[i] = p
	}

	// Adopt the recorded roster: rebuild every per-slot structure at the
	// recorded fleet size, with the live slots' fresh policies.
	n := len(st.IDs)
	s.ids = append([]int(nil), st.IDs...)
	s.alive = append([]bool(nil), st.Alive...)
	s.absentFor = append([]int(nil), st.AbsentFor...)
	s.evictions = st.Evictions
	s.byID = make(map[int]int, n)
	s.free = nil
	s.transmitted = make([]bool, n)
	s.policies = policies
	s.meters = make([]transmit.Meter, n)
	s.pubRoster = nil
	s.rosterGen++
	for i := 0; i < n; i++ {
		if !st.Alive[i] {
			s.free = append(s.free, i) // ascending by construction
			continue
		}
		s.byID[st.IDs[i]] = i
		if err := s.meters[i].Restore(st.Meters[i].Steps, st.Meters[i].Transmits); err != nil {
			return fmt.Errorf("core: node %d meter: %w", i, err)
		}
	}

	for si := range s.ring {
		s.ring[si] = s.newRingSlot()
	}
	s.stage = s.newRingSlot()
	copy(s.stage.present, st.ZSet)
	for i, set := range st.ZSet {
		if set {
			s.stage.z.set(i, st.Z[i])
		}
	}
	s.ringLen = len(st.Window)
	if s.ringLen > 0 {
		s.head = s.ringLen - 1
		for ago := range st.Window {
			restoreSlot(&s.ring[s.ringLen-1-ago], &st.Window[ago])
		}
	}

	err := parallel.ForEach(s.nTrackers, func(tr int) error {
		// The newest look-back slot holds the centroids the tracker
		// returned last, the seed of its next warm start.
		var seed []float64
		if s.ringLen > 0 {
			seed = s.snapAt(0).centroids(tr)
		}
		if err := s.trackers[tr].(*cluster.Tracker).RestoreState(st.Trackers[tr], seed); err != nil {
			return fmt.Errorf("core: tracker %d: %w", tr, err)
		}
		if err := s.pcgs[tr].UnmarshalBinary(st.TrackerRNGs[tr]); err != nil {
			return fmt.Errorf("core: tracker %d rng: %w", tr, err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := forecast.RestoreAll(s.ensembles, st.Ensembles); err != nil {
		return fmt.Errorf("core: %w", err)
	}

	s.t = st.T
	s.gen = st.Gen
	if s.cfg.SnapshotHorizon > 0 && s.ringLen > 0 {
		if err := s.republish(); err != nil {
			return err
		}
	}
	return nil
}

// validateState checks version, fingerprint, and every shape before
// RestoreState mutates anything.
func (s *System) validateState(st *State) error {
	if st == nil {
		return fmt.Errorf("core: nil state: %w", ErrBadState)
	}
	if s.t != 0 {
		return fmt.Errorf("core: restore into system with %d steps: %w", s.t, ErrBadState)
	}
	if st.Version != StateVersion {
		return fmt.Errorf("core: state version %d, want %d: %w", st.Version, StateVersion, ErrBadState)
	}
	if fp := s.cfg.Fingerprint(); st.Fingerprint != fp {
		return fmt.Errorf("core: state fingerprint %#x does not match configuration %#x: %w",
			st.Fingerprint, fp, ErrBadState)
	}
	if st.T < 0 {
		return fmt.Errorf("core: state step count %d: %w", st.T, ErrBadState)
	}
	n, d := len(st.IDs), s.cfg.Resources
	if len(st.Alive) != n || len(st.AbsentFor) != n {
		return fmt.Errorf("core: roster sized %d/%d for %d slots: %w",
			len(st.Alive), len(st.AbsentFor), n, ErrBadState)
	}
	if len(st.ZSet) != n || len(st.Z) != n || len(st.Meters) != n || len(st.Policies) != n {
		return fmt.Errorf("core: state sized for %d/%d/%d/%d slots, want %d: %w",
			len(st.ZSet), len(st.Z), len(st.Meters), len(st.Policies), n, ErrBadState)
	}
	seen := make(map[int]bool, n)
	for i, id := range st.IDs {
		if !st.Alive[i] {
			continue
		}
		if id < 0 || seen[id] {
			return fmt.Errorf("core: roster slot %d: bad or duplicate live ID %d: %w", i, id, ErrBadState)
		}
		if s.cfg.Policy == nil && len(st.Policies[i]) != 0 {
			return fmt.Errorf("core: slot %d carries policy state, but the system is edge-less: %w", i, ErrBadState)
		}
		seen[id] = true
	}
	for i, set := range st.ZSet {
		if set && !st.Alive[i] {
			return fmt.Errorf("core: tombstoned slot %d holds a store row: %w", i, ErrBadState)
		}
		if set != (st.Z[i] != nil) || (set && len(st.Z[i]) != d) {
			return fmt.Errorf("core: node %d store row inconsistent: %w", i, ErrBadState)
		}
	}
	if len(st.Window) > len(s.ring) || (st.T > 0) != (len(st.Window) > 0) || len(st.Window) > st.T {
		return fmt.Errorf("core: %d window slots for %d steps (ring %d): %w",
			len(st.Window), st.T, len(s.ring), ErrBadState)
	}
	for w := range st.Window {
		if err := s.validateSlot(&st.Window[w], n); err != nil {
			return fmt.Errorf("core: window slot %d: %w", w, err)
		}
	}
	if len(st.Trackers) != s.nTrackers || len(st.Ensembles) != s.nTrackers ||
		len(st.TrackerRNGs) != s.nTrackers {
		return fmt.Errorf("core: state sized for %d/%d/%d trackers, want %d: %w",
			len(st.Trackers), len(st.Ensembles), len(st.TrackerRNGs), s.nTrackers, ErrBadState)
	}
	// Every tracker's ensemble observes every step and takes part in every
	// round, so their step counts, rounds and retained series agree;
	// TrainingTime reports tracker 0's accounting for all of them.
	e0 := st.Ensembles[0]
	for tr, e := range st.Ensembles {
		if e == nil || e0 == nil {
			return fmt.Errorf("core: ensemble %d: nil state: %w", tr, ErrBadState)
		}
		if e.T != e0.T || e.Ready != e0.Ready || e.LastRefit != e0.LastRefit ||
			e.SeriesStart != e0.SeriesStart || e.TrainRuns != e0.TrainRuns {
			return fmt.Errorf("core: ensemble %d out of step with ensemble 0: %w", tr, ErrBadState)
		}
	}
	return nil
}

func (s *System) validateSlot(slot *SlotState, n int) error {
	d := s.cfg.Resources
	if len(slot.Z) != n || len(slot.Present) != n {
		return fmt.Errorf("core: %d store rows / %d presence flags, want %d: %w",
			len(slot.Z), len(slot.Present), n, ErrBadState)
	}
	for _, zi := range slot.Z {
		if len(zi) != d {
			return fmt.Errorf("core: store row dim %d, want %d: %w", len(zi), d, ErrBadState)
		}
	}
	if len(slot.Assignments) != s.nTrackers || len(slot.Centroids) != s.nTrackers {
		return fmt.Errorf("core: %d/%d tracker entries, want %d: %w",
			len(slot.Assignments), len(slot.Centroids), s.nTrackers, ErrBadState)
	}
	for tr := range slot.Assignments {
		if len(slot.Assignments[tr]) != n {
			return fmt.Errorf("core: tracker %d assignments %d, want %d: %w",
				tr, len(slot.Assignments[tr]), n, ErrBadState)
		}
		for i, j := range slot.Assignments[tr] {
			if j < -1 || j >= s.cfg.K || (j < 0) == slot.Present[i] {
				return fmt.Errorf("core: slot %d assignment %d inconsistent with presence: %w",
					i, j, ErrBadState)
			}
		}
		if len(slot.Centroids[tr]) != s.cfg.K {
			return fmt.Errorf("core: tracker %d has %d centroids, want %d: %w",
				tr, len(slot.Centroids[tr]), s.cfg.K, ErrBadState)
		}
		for _, c := range slot.Centroids[tr] {
			if len(c) != s.dims {
				return fmt.Errorf("core: centroid dim %d, want %d: %w", len(c), s.dims, ErrBadState)
			}
		}
	}
	return nil
}

// restoreSlot copies a serialized slot into a live ring slot.
func restoreSlot(dst *ringSlot, src *SlotState) {
	for i, zi := range src.Z {
		dst.z.set(i, zi)
	}
	copy(dst.present, src.Present)
	for tr, row := range src.Assignments {
		for i, a := range row {
			dst.assignments[tr][i] = int32(a) // validateSlot bounds a by K
		}
		cents := dst.centroids(tr)
		for j, c := range src.Centroids[tr] {
			copy(cents[j*len(c):], c)
		}
	}
}

// republish rebuilds the snapshot plane after a restore: when a generation
// had been published, the Snapshot for it is rebuilt from the restored ring
// — the same publish a Step ends in — so readers see the pre-crash view
// immediately.
func (s *System) republish() error {
	if s.gen == 0 {
		return nil
	}
	cent, err := s.centroidForecasts(s.cfg.SnapshotHorizon)
	if err != nil {
		return err
	}
	s.publish(s.assembleSnapshot(s.gen), cent)
	return nil
}
