// Package core wires the paper's three layers into the online pipeline of
// Fig. 2: per-node adaptive transmission (§V-A) feeds the central store z_t,
// dynamic clustering (§V-B) compresses z_t into K evolving centroids per
// resource type, and per-cluster forecasting models (§V-C) predict future
// centroids. Per-node forecasts combine the forecasted centroid of the
// node's predicted cluster (the mode of its recent memberships) with the
// α-scaled per-node offset of eq. (12).
//
// The System processes one measurement tensor per time step and exposes the
// stored state, clustering, and forecasts that the evaluation harness scores
// against ground truth.
//
// The steady-state path is allocation-free where the paper's structure
// allows it: the central store and the eq. (12) look-back ring are flat
// frames with reused backing arrays (see zFrame), each tracker clusters its
// block of the store in place, and the independent per-resource trackers run
// on a GOMAXPROCS worker pool when they refit (warm steps run them inline).
// Results are bit-identical for any pool width and either schedule because
// every tracker owns its RNG, ensemble, and output slots outright.
package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"

	"orcf/internal/cluster"
	"orcf/internal/forecast"
	"orcf/internal/parallel"
	"orcf/internal/transmit"
)

// ErrBadConfig reports an invalid system configuration.
var ErrBadConfig = errors.New("core: invalid configuration")

// ErrBadInput reports invalid step input.
var ErrBadInput = errors.New("core: invalid input")

// maxMagnitude is the largest magnitude InRange accepts.
const maxMagnitude = 100

// InRange reports whether v may enter the pipeline as a measurement value:
// finite and within [-100, 100], a band around the [0, 1] that forecasts are
// served in. It admits utilisations reported as fractions or as percentages.
// Beyond it a value means nothing to the served forecast, which is clamped
// to [0, 1], yet it can fail a model fit and so the step: 1e160 overflows
// the normal equations of the lag regressor behind ar and lagged-ridge, and
// from about 1e6 lagged-ridge's fixed ridge penalty is lost in them, so they
// fail to factor. An overflow guard would not cover the second.
func InRange(v float64) bool { return math.Abs(v) <= maxMagnitude }

// ErrNotReady is returned by Forecast during the initial collection phase.
var ErrNotReady = errors.New("core: forecasting models not trained yet")

// PolicyFactory builds the transmission policy of one node.
type PolicyFactory func(node int) (transmit.Policy, error)

// Clusterer is the per-tracker clustering a step runs (§V-B): an update over
// the tracker's block of the store and the erasure of a departed member's
// slot, with cluster.Tracker's UpdateFlat and ForgetSlot contracts.
// cluster.MinimumDistance and cluster.Static implement it too.
type Clusterer interface {
	UpdateFlat(data []float64, n, dim int, present []bool) (assign []int, cents []float64, err error)
	ForgetSlot(slot int)
}

// ClustererFactory builds the clusterer of one tracker.
type ClustererFactory func(tracker int) (Clusterer, error)

// Config assembles a System. Zero values select the paper's defaults from
// §VI-A2 where one exists.
type Config struct {
	// Nodes is the initial number of local nodes N; they receive the stable
	// node IDs 0..Nodes-1. Zero builds an empty fleet that must grow through
	// AddNodes before the first Step (an elastic deployment discovering its
	// fleet at runtime); negative is invalid.
	Nodes int
	// AbsenceTimeout evicts a fleet member after this many consecutive steps
	// without a report (a nil row in Step's input). Zero (the default) never
	// auto-evicts; membership then changes only through AddNodes/RemoveNodes.
	AbsenceTimeout int
	// Resources is the measurement dimensionality d (e.g. 2 for CPU+mem).
	// Zero means 1.
	Resources int
	// K is the number of clusters and forecasting models. Zero means 3.
	K int
	// M is the cluster-similarity look-back of eq. (10). Zero means 1.
	M int
	// MPrime is the look-back M′ for membership forecasting and offsets
	// (§V-C). Zero means 5; pass a negative value for "current step only".
	MPrime int
	// Similarity selects the cluster matching measure. Zero means the
	// paper's proposed measure.
	Similarity cluster.Similarity
	// InitialCollection is the warm-up phase length. Zero means 1000.
	InitialCollection int
	// RetrainEvery is the model retraining period. Zero means 288.
	RetrainEvery int
	// FitWindow caps the centroid history a model fit reads, most recent
	// values first; the ensembles keep at most FitWindow + RetrainEvery
	// values per (cluster, resource), so state and refit cost stay bounded
	// however long the system runs. Zero means the default window,
	// max(InitialCollection, 2·RetrainEvery): 1000 at the paper's schedule.
	FitWindow int
	// Policy builds each node's transmission policy (NewCentral ignores it).
	// Nil means the adaptive policy with B=0.3 and paper defaults.
	Policy PolicyFactory
	// Zoo lists the model families to run (resolve names via forecast.Zoo):
	// every candidate trains on each (cluster, resource) centroid series.
	// Empty means sample-and-hold. One candidate pins that family: there is
	// nothing to select, so it neither scores forecasts nor keeps selection
	// state. With two or more, the per-(cluster, resource) champion — chosen
	// online by rolling forecast accuracy with hysteresis (see Selection) —
	// serves the forecasts.
	Zoo []forecast.Candidate
	// Selection tunes the champion/challenger selector of a Zoo of two or
	// more families; NewSystem rejects a non-zero Selection with any other
	// Zoo. Zero values select the forecast package defaults.
	Selection forecast.SelectionConfig
	// JointClustering clusters full d-dimensional vectors instead of
	// per-resource scalars (the Table I ablation). Default false — the
	// paper finds scalar clustering superior.
	JointClustering bool
	// Seed drives K-means seeding.
	Seed uint64
	// Clusterer builds each tracker's clustering in place of the §V-B
	// tracker (a baseline of §VI-C, say). Nil means a cluster.Tracker built
	// from K, M, Similarity, DisableMatching, IncrementalRefit,
	// IncrementalChurn and Seed. A System built with a factory does not own
	// its clusterers' state, so ExportState and RestoreState return
	// ErrNotPersistent; RefitStats counts the cluster.Trackers among them.
	Clusterer ClustererFactory
	// SnapshotHorizon enables the read-only serving plane: when > 0, every
	// successful Step publishes an immutable Snapshot (latest z_t,
	// memberships, transmit frequencies, centroid forecasts up to this
	// horizon and the fleet forecast plan) that concurrent readers access
	// lock-free via System.Snapshot. Zero (the default) disables publishing,
	// keeping the steady-state ingest path allocation-free.
	SnapshotHorizon int
	// IncrementalRefit enables warm-started clustering: when fleet membership
	// is unchanged since the previous step and reassigning the stored
	// measurements to the previous centroids moves at most
	// IncrementalChurn·(present members), the step reuses that assignment
	// instead of running a full K-means refit (seeding, Lloyd iterations, and
	// their RNG draws are skipped). Steps that warm-start consume no RNG, so
	// runs with this enabled are not bit-comparable to runs without it; see
	// Config.Fingerprint.
	IncrementalRefit bool
	// IncrementalChurn is the warm-start acceptance threshold as a fraction
	// of the present members (see cluster.Config.IncrementalChurn). Zero
	// selects the default (cluster.DefaultIncrementalChurn); negative forces
	// a full refit every step, which is bit-identical to IncrementalRefit
	// being off (the differential-testing boundary). Ignored unless
	// IncrementalRefit is set.
	IncrementalChurn float64
	// DisableAlphaClamp uses raw offsets z−c in eq. (12) instead of the
	// α-scaled ones (ablation of §V-C's cell-containment rule).
	DisableAlphaClamp bool
	// DisableMatching turns off the Hungarian cluster re-indexing of §V-B
	// (ablation; forecasting then trains on incoherent centroid series).
	DisableMatching bool
	// PhaseObserver, when non-nil, receives wall-clock durations for every
	// Step sub-phase (ingest, cluster, refit, forecast, publish). Purely
	// observational — step results are bit-identical with or without it —
	// and free when nil (no clock reads on the hot path).
	PhaseObserver PhaseObserver
}

func (c Config) withDefaults() Config {
	if c.Resources == 0 {
		c.Resources = 1
	}
	if c.K == 0 {
		c.K = 3
	}
	if c.M == 0 {
		c.M = 1
	}
	if c.MPrime == 0 {
		c.MPrime = 5
	} else if c.MPrime < 0 {
		c.MPrime = 0
	}
	if c.InitialCollection == 0 {
		c.InitialCollection = 1000
	}
	if c.RetrainEvery == 0 {
		c.RetrainEvery = 288
	}
	if c.Policy == nil {
		c.Policy = func(int) (transmit.Policy, error) {
			return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: 0.3})
		}
	}
	if len(c.Zoo) > 0 {
		c.Selection = c.Selection.WithDefaults()
	}
	return c
}

// fitWindow resolves FitWindow for the ensembles. It is not a withDefaults
// default, so that Fingerprint keeps hashing the configured value and no
// fingerprint of a FitWindow-0 configuration moves.
func (c Config) fitWindow() int {
	if c.FitWindow != 0 {
		return c.FitWindow
	}
	return max(c.InitialCollection, 2*c.RetrainEvery)
}

// ResourceStep is the per-tracker clustering outcome of one step. Both
// fields are views of System-owned buffers; see StepResult for how long they
// stay valid.
type ResourceStep struct {
	// Assignments maps slot → stable cluster index, or -1 for slots that
	// were absent from clustering (dead, or alive but not yet stored). It
	// views the tracker's newest assignment history row, which holds the
	// values the look-back ring stores as int32.
	Assignments []int
	// Centroids holds the K centroids (dim 1 for scalar clustering, d for
	// joint clustering).
	Centroids [][]float64
}

// StepResult reports what happened in one time step.
//
// Lifetime: T and Evicted belong to the caller. Transmitted, Present and the
// PerResource entries' Assignments and Centroids are views of buffers the
// System owns — the look-back slot the step committed, the trackers' newest
// assignment history rows and a transmit-flag buffer reused every step — so
// a step of a large fleet allocates nothing fleet-sized. They are valid
// until the next call to Step, StepArrivals, Reapply, AddNodes,
// RemoveNodes or RestoreState on the same System, and must not be
// written to; copy what has to outlive that.
type StepResult struct {
	// T is the 1-based step index.
	T int
	// Transmitted flags the slots whose row was stored: what the policies
	// sent (under StepArrivals: what arrived) and every first report (Step).
	Transmitted []bool
	// Present flags the slots that participated in clustering this step
	// (live members with a stored measurement).
	Present []bool
	// Evicted lists the stable IDs of members evicted this step by the
	// absence timeout (nil when none were).
	Evicted []int
	// PerResource holds one clustering outcome per tracker: Resources
	// entries for scalar clustering, a single entry for joint clustering.
	PerResource []ResourceStep
}

// System is the end-to-end pipeline. Fleet membership is elastic: per-node
// state lives in dense "slots" addressed positionally by Step and Forecast,
// while AddNodes/RemoveNodes (and the absence timeout) bind and unbind
// stable node IDs to slots. Slots of departed members are tombstoned and
// recycled for later joiners; surviving slots never move, so churn never
// perturbs the remaining nodes' assignments, offsets, or forecasts.
type System struct {
	cfg       Config
	nTrackers int // Resources trackers for scalar clustering, 1 for joint
	dims      int // point dimensionality per tracker (1, or d for joint)
	policies  []transmit.Policy
	meters    []transmit.Meter
	trackers  []Clusterer // *cluster.Tracker unless cfg.Clusterer is set
	pcgs      []*rand.PCG // per-tracker K-means RNG sources (for state export)
	ensembles []*forecast.Ensemble

	// zrow is the scratch row a slot's stored measurement is gathered into
	// for a policy ingest does not decide inline (Adaptive policies read the
	// store in place), transmitted the flags of the rows a step stores, which
	// StepResult.Transmitted views, centRows[tr] tracker tr's K row views
	// into the in-flight step's centroids that the ensembles observe and
	// ResourceStep.Centroids returns, and assignRows[tr] the assignment row
	// tracker tr's update returned — its newest history row, which
	// ResourceStep.Assignments returns.
	zrow        []float64
	transmitted []bool
	centRows    [][][]float64
	assignRows  [][]int

	// Fleet roster: ids[i] is the stable ID bound to slot i, alive[i]
	// whether the slot holds a live member, absentFor[i] the member's
	// consecutive report-less steps, free the dead slots available for
	// reuse (ascending). byID indexes live members only. rosterGen bumps on
	// every membership change so snapshots can share an immutable roster
	// copy.
	ids       []int
	byID      map[int]int
	alive     []bool
	absentFor []int
	free      []int
	evictions uint64
	rosterGen uint64
	pubRoster *Roster // immutable copy shared by published snapshots

	// ring is the eq. (12) look-back of depth M′+1; ring[head] is the
	// current step, ringLen the number of valid slots. stage is the spare
	// slot the in-flight step writes into, and between steps it is the
	// central store z_t: stage.z holds slot i's last transmitted measurement
	// once stage.present[i] is set (rows of slots that hold none are zero).
	// It is swapped with the oldest ring slot only when the whole step
	// succeeds, so an errored step never leaves a half-written slot inside
	// the look-back window, and then re-seeded from the slot it became.
	ring    []ringSlot
	stage   ringSlot
	head    int
	ringLen int

	// Snapshot publishing (Config.SnapshotHorizon > 0): gen counts published
	// generations, and snap holds the latest published Snapshot for
	// lock-free concurrent readers.
	gen  uint64
	snap atomic.Pointer[Snapshot]

	phases phaseTimer

	// warmSum is the trackers' summed warm-start count (RefitStats) after
	// the last clustering phase, and allWarm whether that phase warm-started
	// every tracker: the next one then runs its trackers inline.
	warmSum int
	allWarm bool

	t int
}

// NewSystem validates the configuration and builds the pipeline.
func NewSystem(cfg Config) (*System, error) { return newSystem(cfg, true) }

// NewCentral builds an edge-less System, the central node alone, stepped by
// StepArrivals. It runs no policy (cfg.Policy is ignored): Step returns
// ErrBadConfig, and its State records no policy state and restores none.
func NewCentral(cfg Config) (*System, error) { return newSystem(cfg, false) }

func newSystem(cfg Config, edge bool) (*System, error) {
	if cfg.Selection != (forecast.SelectionConfig{}) && len(cfg.Zoo) < 2 {
		return nil, fmt.Errorf("core: selection tuning %+v without a zoo of two or more families: %w", cfg.Selection, ErrBadConfig)
	}
	cfg = cfg.withDefaults()
	if !edge {
		cfg.Policy = nil // the edge-less mark newPolicy and Step read
	}
	if cfg.Nodes < 0 {
		return nil, fmt.Errorf("core: %d nodes: %w", cfg.Nodes, ErrBadConfig)
	}
	if cfg.Resources < 0 {
		return nil, fmt.Errorf("core: %d resources: %w", cfg.Resources, ErrBadConfig)
	}
	if cfg.Nodes > 0 && cfg.K > cfg.Nodes {
		return nil, fmt.Errorf("core: K=%d > %d nodes: %w", cfg.K, cfg.Nodes, ErrBadConfig)
	}
	if cfg.K > math.MaxInt32 { // the ring, snapshot and plan hold memberships as int32
		return nil, fmt.Errorf("core: K=%d > %d: %w", cfg.K, math.MaxInt32, ErrBadConfig)
	}
	if cfg.AbsenceTimeout < 0 {
		return nil, fmt.Errorf("core: absence timeout %d < 0: %w", cfg.AbsenceTimeout, ErrBadConfig)
	}
	if cfg.SnapshotHorizon < 0 {
		return nil, fmt.Errorf("core: snapshot horizon %d < 0: %w", cfg.SnapshotHorizon, ErrBadConfig)
	}
	// An empty zoo runs sample-and-hold. It is resolved here rather than in
	// withDefaults so that Fingerprint keeps hashing it as no zoo at all.
	candidates := cfg.Zoo
	if len(candidates) == 0 {
		candidates = forecast.Pinned(func() forecast.Model { return forecast.NewSampleAndHold() })
	}
	s := &System{cfg: cfg, byID: make(map[int]int)}
	s.phases.ob = cfg.PhaseObserver
	s.policies = make([]transmit.Policy, cfg.Nodes)
	s.meters = make([]transmit.Meter, cfg.Nodes)
	s.ids = make([]int, cfg.Nodes)
	s.alive = make([]bool, cfg.Nodes)
	s.absentFor = make([]int, cfg.Nodes)
	s.transmitted = make([]bool, cfg.Nodes)
	for i := range s.policies {
		p, err := s.newPolicy(i)
		if err != nil {
			return nil, err
		}
		s.policies[i] = p
		s.ids[i] = i
		s.alive[i] = true
		s.byID[i] = i
	}

	s.nTrackers = cfg.Resources
	s.dims = 1
	if cfg.JointClustering {
		s.nTrackers = 1
		s.dims = cfg.Resources
	}
	s.zrow = make([]float64, cfg.Resources)
	s.centRows = make([][][]float64, s.nTrackers)
	s.assignRows = make([][]int, s.nTrackers)
	for tr := 0; tr < s.nTrackers; tr++ {
		var tracker Clusterer
		var err error
		if cfg.Clusterer != nil {
			if tracker, err = cfg.Clusterer(tr); err == nil && tracker == nil {
				err = errors.New("nil clusterer")
			}
		} else {
			pcg := rand.NewPCG(cfg.Seed, uint64(tr)+0x1234)
			s.pcgs = append(s.pcgs, pcg)
			// The tracker keeps the M assignment rows the eq. (10) matching
			// reads; the §V-C membership window is the look-back ring's.
			tracker, err = cluster.NewTracker(cluster.Config{
				K:                cfg.K,
				M:                cfg.M,
				Similarity:       cfg.Similarity,
				DisableMatching:  cfg.DisableMatching,
				Incremental:      cfg.IncrementalRefit,
				IncrementalChurn: cfg.IncrementalChurn,
			}, rand.New(pcg))
		}
		if err != nil {
			return nil, fmt.Errorf("core: tracker %d: %w: %w", tr, err, ErrBadConfig)
		}
		s.trackers = append(s.trackers, tracker)
		ens, err := forecast.NewEnsemble(forecast.EnsembleConfig{
			Clusters:          cfg.K,
			Dims:              s.dims,
			InitialCollection: cfg.InitialCollection,
			RetrainEvery:      cfg.RetrainEvery,
			FitWindow:         cfg.fitWindow(),
			Candidates:        candidates,
			Selection:         cfg.Selection,
		})
		if err != nil {
			return nil, fmt.Errorf("core: ensemble %d: %w: %w", tr, err, ErrBadConfig)
		}
		s.ensembles = append(s.ensembles, ens)
		s.centRows[tr] = make([][]float64, cfg.K)
	}

	s.ring = make([]ringSlot, cfg.MPrime+1)
	for si := range s.ring {
		s.ring[si] = s.newRingSlot()
	}
	s.stage = s.newRingSlot()
	return s, nil
}

// Roster is an immutable point-in-time view of fleet membership: the slot →
// stable-ID binding and per-slot liveness. Snapshots share one Roster until
// the membership changes.
type Roster struct {
	gen   uint64
	ids   []int
	alive []bool
	byID  map[int]int
	live  int
}

// Slots returns the dense slot count (live members plus tombstones).
func (r *Roster) Slots() int { return len(r.ids) }

// Live returns the number of live members.
func (r *Roster) Live() int { return r.live }

// IDAt returns the stable ID bound to a slot and whether the slot holds a
// live member. Retired slots report their last occupant's ID with ok=false.
func (r *Roster) IDAt(slot int) (id int, ok bool) {
	if slot < 0 || slot >= len(r.ids) {
		return 0, false
	}
	return r.ids[slot], r.alive[slot]
}

// SlotOf returns the slot a live member occupies.
func (r *Roster) SlotOf(id int) (slot int, ok bool) {
	slot, ok = r.byID[id]
	return slot, ok
}

// Members returns the live members' stable IDs in slot order (a fresh
// slice).
func (r *Roster) Members() []int {
	out := make([]int, 0, r.live)
	for i, id := range r.ids {
		if r.alive[i] {
			out = append(out, id)
		}
	}
	return out
}

// roster builds an immutable copy of the current membership, reusing the
// previous copy while no membership change occurred.
func (s *System) roster() *Roster {
	if s.pubRoster != nil && s.pubRoster.gen == s.rosterGen {
		return s.pubRoster
	}
	r := &Roster{
		gen:   s.rosterGen,
		ids:   append([]int(nil), s.ids...),
		alive: append([]bool(nil), s.alive...),
		byID:  make(map[int]int, len(s.byID)),
	}
	for id, slot := range s.byID {
		r.byID[id] = slot
	}
	for _, a := range r.alive {
		if a {
			r.live++
		}
	}
	s.pubRoster = r
	return r
}

// Roster returns an immutable view of the current membership. Like Step it
// must be called from the stepping goroutine; concurrent readers get theirs
// from a Snapshot.
func (s *System) Roster() *Roster { return s.roster() }

// Members returns the live members' stable IDs in slot order.
func (s *System) Members() []int { return s.roster().Members() }

// Slots returns the dense slot count (live members plus tombstones). Step
// input must have exactly this many rows.
func (s *System) Slots() int { return len(s.ids) }

// LiveNodes returns the number of live fleet members.
func (s *System) LiveNodes() int { return len(s.byID) }

// SlotOf returns the dense slot a live member occupies.
func (s *System) SlotOf(id int) (slot int, ok bool) {
	slot, ok = s.byID[id]
	return slot, ok
}

// Evictions returns how many members have departed (absence timeout plus
// explicit RemoveNodes) over the system's lifetime.
func (s *System) Evictions() uint64 { return s.evictions }

// AddNodes joins new members to the fleet, one per stable ID. Each joiner
// gets a fresh policy and meter and an empty history: it is masked out of
// clustering until its first stored measurement and out of eq. (12) windows
// until presence accumulates, so existing members' assignments and
// forecasts are unperturbed. Departed slots are recycled (lowest slot
// first) before the fleet grows; a previously evicted ID may rejoin and
// never inherits its old history. IDs must be non-negative and not already
// live. Call it from the stepping goroutine, between Steps.
func (s *System) AddNodes(ids ...int) error {
	if len(ids) == 0 {
		return nil
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 {
			return fmt.Errorf("core: node ID %d < 0: %w", id, ErrBadConfig)
		}
		if _, live := s.byID[id]; live || seen[id] {
			return fmt.Errorf("core: node %d already a member: %w", id, ErrBadConfig)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if err := s.addSlot(id); err != nil {
			return err
		}
	}
	return nil
}

// RemoveNodes departs live members immediately (the administrative
// counterpart of the absence timeout): their slots are tombstoned, their
// history masked, and their IDs retired until a future AddNodes rejoins
// them fresh. Surviving members are unperturbed. Call it from the stepping
// goroutine, between Steps.
func (s *System) RemoveNodes(ids ...int) error {
	for _, id := range ids {
		if _, ok := s.byID[id]; !ok {
			return fmt.Errorf("core: node %d is not a live member: %w", id, ErrBadConfig)
		}
	}
	for _, id := range ids {
		s.evictSlot(s.byID[id])
	}
	return nil
}

// StepRecord is what one step consumed, the unit the WAL stores and Reapply
// takes back. A live step's record (Roster.Record) views the roster's and
// the step's buffers: it must not be written to, and lives as they do (see
// StepResult).
type StepRecord struct {
	// T is the 1-based step index.
	T int
	// IDs and Alive are the roster at Step entry: slot i's stable ID (a
	// tombstone's last occupant) and whether it held a live member.
	IDs   []int
	Alive []bool
	// X holds one row per slot, nil for a silent slot.
	X [][]float64
	// Arrived holds one flag per slot: StepResult.Transmitted under Step,
	// the arrival flags under StepArrivals.
	Arrived []bool
}

// Record returns the record of step t taken on this roster with rows x and
// per-slot flags arrived, viewing all three.
func (r *Roster) Record(t int, x [][]float64, arrived []bool) StepRecord {
	return StepRecord{T: t, IDs: r.ids, Alive: r.alive, X: x, Arrived: arrived}
}

// Reapply re-takes a recorded step, the next one (rec.T = Steps()+1): it
// lays the fleet out as the record's roster, so membership changes land at
// the steps they happened, then steps an edge-less System (NewCentral)
// through StepArrivals and any other through Step. Where Step's policies
// store other rows than the record, it belongs to another lineage (policy
// factories are not part of Fingerprint): Reapply returns ErrBadState, the
// step taken — discard the System.
func (s *System) Reapply(rec *StepRecord) error {
	if rec.T != s.t+1 {
		return fmt.Errorf("core: record of step %d, want step %d: %w", rec.T, s.t+1, ErrBadInput)
	}
	if err := s.reconcileRoster(rec.IDs, rec.Alive); err != nil {
		return err
	}
	if s.cfg.Policy == nil {
		_, err := s.StepArrivals(rec.X, rec.Arrived)
		return err
	}
	res, err := s.Step(rec.X)
	if err == nil && !slices.Equal(res.Transmitted, rec.Arrived) {
		err = fmt.Errorf("core: step %d: the policies store other rows than the record: %w", rec.T, ErrBadState)
	}
	return err
}

// reconcileRoster aligns the system's slot → ID layout with a recorded
// roster (a StepRecord's, see Reapply): members dead in the record depart,
// slots past the fleet's end are appended, tombstoned ones recording their
// last occupant (a member that joined into a new slot and departed before
// the step), members live in the record join into the exact recorded
// slots, and a live slot bound to a different ID is a lineage mismatch
// error. The slot count may only grow. Reproducing the recorded layout
// slot-for-slot is what keeps replayed steps bit-identical to the original
// run. The roster is checked whole before anything changes, so a rejected
// one leaves the fleet as it was (a policy factory failing for a joiner can
// still stop it part-way).
func (s *System) reconcileRoster(ids []int, alive []bool) error {
	if len(ids) != len(alive) {
		return fmt.Errorf("core: roster %d ids / %d alive flags: %w", len(ids), len(alive), ErrBadInput)
	}
	if len(ids) < len(s.ids) {
		return fmt.Errorf("core: roster shrank %d → %d slots: %w", len(s.ids), len(ids), ErrBadInput)
	}
	joining := map[int]bool{}
	for i, id := range ids {
		if !alive[i] {
			continue
		}
		if i < len(s.ids) && s.alive[i] {
			if s.ids[i] != id {
				return fmt.Errorf("core: slot %d bound to node %d, roster says %d: %w",
					i, s.ids[i], id, ErrBadInput)
			}
			continue
		}
		// A member live in a slot the record kills departs first.
		if j, live := s.byID[id]; (live && alive[j]) || joining[id] {
			return fmt.Errorf("core: node %d already live in another slot: %w", id, ErrBadInput)
		}
		joining[id] = true
	}
	for i := range s.ids {
		if !alive[i] && s.alive[i] {
			s.evictSlot(i)
		}
	}
	for i, id := range ids { // i ≤ len(s.ids): each i past the end appends
		switch {
		case alive[i] && (i == len(s.ids) || !s.alive[i]):
			if err := s.addSlotAt(i, id); err != nil {
				return err
			}
		case i == len(s.ids): // only a join appends a slot: its member departed
			s.appendSlot()
			s.ids[i] = id
			s.free = append(s.free, i)
			s.evictions++
		}
	}
	return nil
}

// addSlot binds one new member to a slot: the lowest free (tombstoned) slot
// when one exists, else a freshly appended one.
func (s *System) addSlot(id int) error {
	i := len(s.ids)
	if len(s.free) > 0 {
		i = s.free[0]
	}
	return s.addSlotAt(i, id)
}

// addSlotAt binds a new member to a specific slot — a tombstoned one or the
// next append position, as its callers pick it (addSlot, and roster
// reconciliation during WAL replay, which must reproduce the original slot
// layout exactly). The member's policy is built before anything changes, so
// a failure leaves the fleet as it was.
func (s *System) addSlotAt(i, id int) error {
	p, err := s.newPolicy(i)
	if err != nil {
		return fmt.Errorf("core: joining node %d: %w", id, err)
	}
	if i == len(s.ids) {
		s.appendSlot()
	} else {
		at := slices.Index(s.free, i)
		s.free = slices.Delete(s.free, at, at+1)
		// The slot's ring history was masked at eviction; mask again
		// defensively.
		for si := range s.ring {
			maskSlot(&s.ring[si], i)
		}
		maskSlot(&s.stage, i)
		for _, tr := range s.trackers {
			tr.ForgetSlot(i)
		}
	}
	s.policies[i] = p
	s.meters[i] = transmit.Meter{}
	s.ids[i] = id
	s.alive[i] = true
	s.absentFor[i] = 0
	s.byID[id] = i
	s.rosterGen++
	return nil
}

// appendSlot grows the fleet by one dead slot, absent from the look-back and
// the store, that no member holds yet.
func (s *System) appendSlot() {
	s.ids = append(s.ids, 0)
	s.alive = append(s.alive, false)
	s.absentFor = append(s.absentFor, 0)
	s.transmitted = append(s.transmitted, false)
	s.policies = append(s.policies, nil)
	s.meters = append(s.meters, transmit.Meter{})
	n := len(s.ids)
	for si := range s.ring {
		growSlot(&s.ring[si], n)
	}
	growSlot(&s.stage, n)
	s.rosterGen++
}

// newPolicy builds the transmission policy of the member taking slot i: nil
// on an edge-less System, which runs none.
func (s *System) newPolicy(i int) (p transmit.Policy, err error) {
	if s.cfg.Policy != nil {
		if p, err = s.cfg.Policy(i); err == nil && p == nil {
			err = ErrBadConfig
		}
	}
	if err != nil {
		return nil, fmt.Errorf("core: policy for slot %d: %w", i, err)
	}
	return p, nil
}

// evictSlot departs the member occupying slot i: the stable ID is retired,
// the slot tombstoned for reuse, and every trace of the member masked out
// of the live look-back (so a later occupant of the slot starts blank and
// the member itself forecasts as NaN immediately).
func (s *System) evictSlot(i int) {
	delete(s.byID, s.ids[i])
	s.alive[i] = false
	s.absentFor[i] = 0
	s.policies[i] = nil
	s.meters[i] = transmit.Meter{}
	for si := range s.ring {
		maskSlot(&s.ring[si], i)
	}
	maskSlot(&s.stage, i) // drops the stored measurement too
	s.stage.z.clearRow(i)
	for _, tr := range s.trackers {
		tr.ForgetSlot(i)
	}
	// Keep the free list ascending so slot reuse is deterministic.
	at := len(s.free)
	for at > 0 && s.free[at-1] > i {
		at--
	}
	s.free = append(s.free, 0)
	copy(s.free[at+1:], s.free[at:])
	s.free[at] = i
	s.evictions++
	s.rosterGen++
}

// Steps returns the number of processed steps.
func (s *System) Steps() int { return s.t }

// Clusters returns the resolved cluster count K (defaults applied).
func (s *System) Clusters() int { return s.cfg.K }

// Ready reports whether forecasting models have completed initial training.
func (s *System) Ready() bool {
	for _, e := range s.ensembles {
		if !e.Ready() {
			return false
		}
	}
	return true
}

// Frequency returns the realized transmission frequency of the member in a
// slot (0 for tombstoned or out-of-range slots).
func (s *System) Frequency(node int) float64 {
	if node < 0 || node >= len(s.meters) || !s.alive[node] {
		return 0
	}
	return s.meters[node].Frequency()
}

// MeanFrequency returns the average realized transmission frequency over
// the live members.
func (s *System) MeanFrequency() float64 {
	live := 0
	var sum float64
	for i := range s.meters {
		if !s.alive[i] {
			continue
		}
		live++
		sum += s.meters[i].Frequency()
	}
	if live == 0 {
		return 0
	}
	return sum / float64(live)
}

// Stored returns a copy of the measurements currently held at the central
// node (z_t). Entries are nil for nodes that never transmitted.
func (s *System) Stored() [][]float64 {
	out := make([][]float64, len(s.stage.present))
	for i, set := range s.stage.present {
		if set {
			out[i] = s.stage.z.row(i, make([]float64, s.cfg.Resources))
		}
	}
	return out
}

// RefitStats reports how many per-tracker clustering steps were warm-started
// versus fully refit, summed across trackers (warm is always 0 unless
// Config.IncrementalRefit is set; warm+full = Steps × trackers). A
// Config.Clusterer's clusterers count only if they are cluster.Trackers.
func (s *System) RefitStats() (warm, full int) {
	for _, c := range s.trackers {
		if tr, ok := c.(*cluster.Tracker); ok {
			w, f := tr.RefitStats()
			warm += w
			full += f
		}
	}
	return warm, full
}

// TrainingTime returns the cumulative wall-clock time and count of the
// (re)training rounds. A round fits every tracker's models on one list on
// the worker pool, and every tracker's ensemble takes part in every round
// and records the list's wall time, so one ensemble's accounting is the
// System's.
func (s *System) TrainingTime() (time.Duration, int) {
	return s.ensembles[0].TrainingTime()
}

// ModelSelection returns a deep-copied view of a tracker ensemble's zoo
// selection state — per-(cluster, dim) champions, rolling accuracies, and
// switch counts — or nil for an out-of-range tracker or a system running
// one model family (a Zoo of at most one candidate).
func (s *System) ModelSelection(tracker int) *forecast.SelectionInfo {
	if tracker < 0 || tracker >= len(s.ensembles) {
		return nil
	}
	return s.ensembles[tracker].Selection()
}

// CentroidSeries returns a copy of the centroid series of (tracker, cluster,
// dim) that the forecasting models fit on: the retained suffix, oldest
// first, at most FitWindow + RetrainEvery values (see Config.FitWindow). It
// returns nil for an out-of-range cell.
func (s *System) CentroidSeries(tracker, clusterIdx, dim int) []float64 {
	if tracker < 0 || tracker >= len(s.ensembles) {
		return nil
	}
	return s.ensembles[tracker].Series(clusterIdx, dim)
}

// Step ingests the measurements of the fleet for one time step: x has one
// row per slot (see Slots), where x[i] is slot i's d-dimensional measurement
// and a nil row means "no report" — mandatory for tombstoned slots, and for
// live members a silent step that counts toward the absence timeout (the
// member's last stored value keeps representing it in clustering until it
// is evicted; evictions that would shrink the clustered set below K are
// deferred, in slot order, until replacements report). The members'
// policies decide which rows are transmitted, and the central node takes
// those as StepArrivals takes arrivals, with one first-contact rule: a
// reporting member with nothing stored is stored whatever its policy said,
// since eqs. (1), (10) and (12) place a member by its stored value (§IV).
// Malformed input, or fewer than K members to cluster, is rejected before
// anything changes. On a later error the look-back ring is untouched, but
// trackers/ensembles may have advanced unevenly (how far depends on the
// worker schedule) — discard the System instead of stepping it further. An
// edge-less System's Step returns ErrBadConfig.
func (s *System) Step(x [][]float64) (*StepResult, error) {
	if s.cfg.Policy == nil {
		return nil, fmt.Errorf("core: an edge-less system runs no policy; step it with StepArrivals: %w", ErrBadConfig)
	}
	return s.step(x, nil)
}

// StepArrivals steps the central node alone, on what the nodes sent: x as
// for Step (a non-nil row means the member was contacted) and arrived[i],
// one flag per slot, that x[i] is news and is stored; so is, by Step's
// first-contact rule, a contacted member's row with nothing stored. No
// policy runs (a NewSystem's are bypassed), and the eq. (5) meters count
// what is stored. An arrival flag on
// a nil row is malformed input. Results and errors are Step's.
func (s *System) StepArrivals(x [][]float64, arrived []bool) (*StepResult, error) {
	if len(arrived) != len(s.ids) {
		return nil, fmt.Errorf("core: %d arrival flags in step, want %d fleet slots: %w", len(arrived), len(s.ids), ErrBadInput)
	}
	return s.step(x, arrived)
}

// step is Step (arrived nil) and StepArrivals, a sequence of per-phase
// calls: checkStep, then layer 1 (ingest: the policies' decisions or the
// arrival flags, and the store writes, in one walk),
// then clusterAndRefit (layers 2+3, one cluster call per tracker and one refit
// call for all of them), and — with publishing on — assembleSnapshot and
// centroidForecasts, then commit, which publishes. Each call runs under the
// phase timer, so the PhaseObserver sees calls, not regions of a function.
func (s *System) step(x [][]float64, arrived []bool) (*StepResult, error) {
	if err := s.checkStep(x, arrived); err != nil {
		return nil, err
	}
	s.t++
	pt := &s.phases
	pt.reset()

	var mask []bool
	var evicted []int
	_ = pt.run(PhaseIngest, func() error {
		mask, evicted = s.ingest(x, arrived)
		return nil
	})
	pt.report(PhaseIngest)

	if err := s.clusterAndRefit(mask); err != nil {
		return nil, err
	}
	pt.report(PhaseCluster)
	pt.report(PhaseRefit)

	// Start the next published Snapshot (if enabled) before committing, so a
	// failed centroid-forecast pass leaves both the ring and the published
	// view untouched. Assembly and the publish in commit count toward the
	// publish phase, the centroid-forecast precompute is the forecast phase.
	var pub *Snapshot
	var cent []float64
	if s.cfg.SnapshotHorizon > 0 {
		_ = pt.run(PhasePublish, func() error {
			pub = s.assembleSnapshot(s.gen + 1)
			return nil
		})
		if err := pt.run(PhaseForecast, func() (err error) {
			cent, err = s.centroidForecasts(s.cfg.SnapshotHorizon)
			return err
		}); err != nil {
			return nil, err
		}
	}
	pt.report(PhaseForecast)

	var res *StepResult
	_ = pt.run(PhasePublish, func() error {
		res = s.commit(pub, cent, evicted)
		return nil
	})
	pt.report(PhasePublish)
	return res, nil
}

// checkStep validates a step's input (x, and arrived unless nil) against the
// fleet layout without changing anything. It also rejects a step that would
// leave fewer than K members to cluster, counting the stored members plus
// the reporting ones that have none, which ingest stores: this is ingest's
// present count exactly, so no step that passes here fails there.
func (s *System) checkStep(x [][]float64, arrived []bool) error {
	if len(x) != len(s.ids) {
		return fmt.Errorf("core: %d rows in step, want %d fleet slots: %w", len(x), len(s.ids), ErrBadInput)
	}
	d, alive, stored := s.cfg.Resources, s.alive[:len(x)], s.stage.present[:len(x)]
	present := 0
	for i, xi := range x {
		if xi == nil {
			if arrived != nil && arrived[i] {
				return fmt.Errorf("core: slot %d flagged as arrived without a row: %w", i, ErrBadInput)
			}
			if stored[i] {
				present++
			}
			continue
		}
		present++
		if !alive[i] {
			return fmt.Errorf("core: slot %d holds no live member but got a report: %w", i, ErrBadInput)
		}
		if len(xi) != d {
			return fmt.Errorf("core: node %d has dim %d, want %d: %w",
				i, len(xi), d, ErrBadInput)
		}
		for r, v := range xi {
			if !InRange(v) {
				return fmt.Errorf("core: node %d resource %d is %v, outside [-%v, %v]: %w",
					i, r, v, maxMagnitude, maxMagnitude, ErrBadInput)
			}
		}
	}
	if present < s.cfg.K {
		return fmt.Errorf("core: %d present members < K=%d — grow the fleet (AddNodes) "+
			"or wait for first transmissions before stepping: %w", present, s.cfg.K, ErrBadInput)
	}
	return nil
}

// ingest is layer 1, one walk over the step's rows in slot order. Under Step
// (arrived nil) each reporting member's policy decides, into s.transmitted,
// whether its row is sent, just before that slot's store write; under
// StepArrivals the flags are the arrival flags. An Adaptive policy is
// decided inline: its eq. 7 penalty is taken straight off x[i] and the store
// and handed, with the step's (t+1)^γ taken once for the whole walk, to
// DecidePenalty, the same eq. 8–9 code Adaptive.Decide runs. Every other
// policy gets Decide(t, x[i], z) through the interface (decideForeign), in
// slot order on the calling goroutine. A decision reads only its own slot's stored row, so
// deciding slot by slot between the writes decides what a whole edge pass
// before them would. The walk stays serial: it is bound by the memory it
// streams, so a fan-out adds CPU time and no speed, and policies may share
// state.
//
// The walk then writes the flagged rows, and every first report (flagged
// too: see Step), into the central store — the staged look-back slot, which
// only enters the eq. (12) ring when the whole step succeeds — meters them,
// and accrues absence for silent members. The store's presence column is the
// clustering mask: live members with a stored measurement take part in
// clustering; joiners that have not reported yet stay masked (warm-up), as
// do members departing this step, whose absence-timeout evictions ingest
// applies last. It returns the mask — nil when every slot takes part, which
// lets the trackers cluster their block of the store in place — and the
// stable IDs evicted this step. It cannot fail: checkStep validated the
// step.
func (s *System) ingest(x [][]float64, arrived []bool) (mask []bool, evicted []int) {
	n := len(x)
	// Everything the walk indexes by slot, cut to n once so that the loop
	// body carries no bounds checks for them.
	store := &s.stage.z
	alive, absentFor, stored, transmitted := s.alive[:n], s.absentFor[:n], s.stage.present[:n], s.transmitted[:n]
	meters, policies, nPresent := s.meters[:n], s.policies[:n], 0
	// Resource r of slot i is data[i*si+r*sr] in either layout of the store.
	data, si, sr := store.strided()
	fd := float64(s.cfg.Resources)
	// (t+1)^γ of eq. (9), the same for every Adaptive policy at this step.
	var pow float64
	if arrived == nil {
		pow = transmit.StepPow(s.t)
	}
	// Members at the timeout are only marked for eviction in the walk; the
	// deferral below needs the walk's present count.
	var evict []int
	// Step and StepArrivals get a loop each, so that neither carries the
	// other's arm (one loop with both measured ≈ 15–25 % slower per slot in
	// BenchmarkIngest); what the loops share is in these two closures, which
	// inline. absent accrues a silent member's absence.
	absent := func(i int) {
		absentFor[i]++
		if timeout := s.cfg.AbsenceTimeout; timeout > 0 && absentFor[i] >= timeout {
			evict = append(evict, i)
		}
	}
	// admit takes a reporting member's row: the first-contact rule, the
	// store write (store.set with the strides taken once) and the meter.
	admit := func(i int, xi []float64, send bool) bool {
		absentFor[i] = 0
		send = send || !stored[i] // first contact
		if send {
			off := i * si
			for r, v := range xi {
				data[off+r*sr] = v
			}
			stored[i] = true
		}
		meters[i].Observe(send)
		return send
	}
	if arrived != nil {
		arrived = arrived[:n]
		for i, xi := range x {
			send := false
			switch {
			case !alive[i]: // checkStep admitted no row for it
			case xi == nil:
				absent(i)
			default:
				send = admit(i, xi, arrived[i])
			}
			transmitted[i] = send
			if stored[i] {
				nPresent++
			}
		}
	} else {
		for i, xi := range x {
			send := false
			switch {
			case !alive[i]:
			case xi == nil:
				absent(i)
			default:
				switch p := policies[i].(type) {
				case *transmit.Adaptive:
					// Eq. 7, bit for bit transmit's staleness(x[i], z):
					// the same differences summed in the same order
					// (0 + d0² is exact, so the sum may start at the first
					// square) and divided by d, unrolled for d = 2 and 4
					// (the widths Step is run at) with one statement per
					// term as in the loop, so that a compiler that fuses
					// s += a·a fuses both.
					penalty := math.Inf(1)
					if stored[i] {
						off := i * si
						var sum float64
						switch len(xi) {
						case 2:
							d0, d1 := xi[0]-data[off], xi[1]-data[off+sr]
							sum = d0 * d0
							sum += d1 * d1
						case 4:
							d0, d1, d2, d3 := xi[0]-data[off], xi[1]-data[off+sr], xi[2]-data[off+2*sr], xi[3]-data[off+3*sr]
							sum = d0 * d0
							sum += d1 * d1
							sum += d2 * d2
							sum += d3 * d3
						default:
							for r, v := range xi {
								dr := v - data[off+r*sr]
								sum += dr * dr
							}
						}
						penalty = sum / fd
					}
					send = p.DecidePenalty(pow, penalty)
				default:
					send = s.decideForeign(p, i, xi)
				}
				send = admit(i, xi, send)
			}
			transmitted[i] = send
			if stored[i] {
				nPresent++
			}
		}
	}
	// Live members with a stored measurement take part in clustering;
	// tombstones are never stored (evictSlot clears the flag). checkStep made
	// this count, nPresent ≥ K, before anything moved. Evictions never shrink the clustered set below K: when a mass outage
	// would (e.g. every agent silent after a collector restart), the excess
	// members are retained — still present with their last-known values —
	// and retried next step, so the pipeline degrades to serving stale
	// forecasts instead of failing. Deferral is by slot order
	// (deterministic, so WAL replay reproduces it).
	for _, i := range evict {
		if stored[i] {
			if nPresent <= s.cfg.K {
				continue // deferred: absentFor stays past the timeout
			}
			nPresent--
		}
		evicted = append(evicted, s.ids[i])
		s.evictSlot(i)
	}
	if nPresent < len(x) {
		mask = stored
	}
	return mask, evicted
}

// decideForeign asks a policy that ingest does not decide inline, through
// the interface, with z the stored row gathered into zrow (nil before the
// first store).
func (s *System) decideForeign(p transmit.Policy, i int, xi []float64) bool {
	var zi []float64
	if s.stage.present[i] {
		zi = s.stage.z.row(i, s.zrow)
	}
	return p.Decide(s.t, xi, zi)
}

// clusterAndRefit runs layer 2 for every tracker, then layer 3 as one call:
// every tracker's ensemble observes its centroids, and a due (re)training
// fits all their models on one list (forecast.ObserveAll). Trackers are
// independent — each owns its RNG, its ensemble, its block of the store and
// the tr-indexed parts of the staged slot — so any schedule of them gives
// the same bits. When the last phase warm-started every tracker, this one
// runs them inline on the stepping goroutine, because a warm update (about
// 0.1 ms at N = 10 000) takes not much longer than a pool worker takes to
// start (see package parallel); otherwise a full refit is likely and they
// fan out on the worker pool. The cluster
// phase's time is CPU time summed across trackers (integer adds commute, so
// the worker schedule cannot perturb the total); the refit phase's is the
// wall time of the one call.
func (s *System) clusterAndRefit(mask []bool) error {
	update := func(tr int) error {
		return s.phases.run(PhaseCluster, func() error { return s.cluster(tr, mask) })
	}
	var err error
	if s.allWarm {
		for tr := 0; tr < s.nTrackers && err == nil; tr++ {
			err = update(tr)
		}
	} else {
		err = parallel.ForEach(s.nTrackers, update)
	}
	if err != nil {
		return err
	}
	warm, _ := s.RefitStats()
	s.allWarm = warm-s.warmSum == s.nTrackers
	s.warmSum = warm
	return s.phases.run(PhaseRefit, func() error {
		if err := forecast.ObserveAll(s.ensembles, s.centRows); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		return nil
	})
}

// cluster is layer 2 for one tracker: update the tracker on its block of the
// store and move the outcome into the staged look-back slot that holds it,
// narrowing the assignments to the ring's int32 (NewSystem bounds K).
func (s *System) cluster(tr int, mask []bool) error {
	assign, cents, err := s.trackers[tr].UpdateFlat(s.stage.z.points(tr), len(s.ids), s.dims, mask)
	if err != nil {
		return fmt.Errorf("core: tracker %d: %w", tr, err)
	}
	s.assignRows[tr] = assign
	row := s.stage.assignments[tr][:len(assign)]
	for i, a := range assign {
		row[i] = int32(a)
	}
	staged := s.stage.centroids(tr)
	copy(staged, cents)
	for j := range s.centRows[tr] {
		s.centRows[tr][j] = staged[j*s.dims : (j+1)*s.dims : (j+1)*s.dims]
	}
	return nil
}

// commit makes the step visible: the staged slot is swapped with the oldest
// ring slot (slice headers only), becoming the current look-back entry, and
// the slot swapped out becomes the stage, re-seeded with the store the step
// left — its measurements and presence column; clustering overwrites the
// rest. The assembled snapshot (if any) is completed from the ring and the
// step's centroid forecasts and published, and the step's result is built
// as views of the slot just committed and of the trackers' newest rows.
func (s *System) commit(pub *Snapshot, cent []float64, evicted []int) *StepResult {
	s.head = (s.head + 1) % len(s.ring)
	if s.ringLen < len(s.ring) {
		s.ringLen++
	}
	s.ring[s.head], s.stage = s.stage, s.ring[s.head]
	cur := &s.ring[s.head]
	s.stage.z.copyFrom(&cur.z)
	copy(s.stage.present, cur.present)

	if pub != nil {
		s.publish(pub, cent)
	}

	res := &StepResult{
		T:           s.t,
		Transmitted: s.transmitted,
		Present:     cur.present,
		Evicted:     evicted,
		PerResource: make([]ResourceStep, s.nTrackers),
	}
	for tr := range res.PerResource {
		res.PerResource[tr] = ResourceStep{
			Assignments: s.assignRows[tr],
			Centroids:   s.centRows[tr],
		}
	}
	return res
}

// snapAt returns the ring slot from `ago` steps back (0 = current step);
// ago must be < ringLen.
func (s *System) snapAt(ago int) *ringSlot {
	n := len(s.ring)
	return &s.ring[(s.head-ago+n)%n]
}

// Forecast produces per-node forecasts for horizons 1..h:
// result[hIdx][node][resource]. It applies §V-C: forecasted centroid of the
// node's mode cluster plus the α-scaled offset of eq. (12), planned over the
// look-back ring by the kernel a snapshot publish runs. Slots fan out on the
// worker pool and each writes only its own output rows, so the result is
// identical for any pool width.
func (s *System) Forecast(h int) ([][][]float64, error) {
	if h < 1 {
		return nil, fmt.Errorf("core: horizon %d < 1: %w", h, ErrBadInput)
	}
	if !s.Ready() {
		return nil, ErrNotReady
	}
	cent, err := s.centroidForecasts(h)
	if err != nil {
		return nil, err
	}
	return s.reconEnv().plan(cent).tensor(h), nil
}

// centroidForecasts forecasts every tracker's K×dims centroid series up to
// horizon h — one ensemble per tracker, in tracker order on the calling
// goroutine — into the plan's flat centroid table, [hi][tracker][cluster·dims],
// and returns the first tracker's error. A tracker's forecast takes
// microseconds, less than a pool worker takes to start. It returns nil before
// the models finish initial training, which plans every slot as undefined.
func (s *System) centroidForecasts(h int) ([]float64, error) {
	if !s.Ready() {
		return nil, nil
	}
	kd := s.cfg.K * s.dims
	stride := s.nTrackers * kd
	cent := make([]float64, h*stride)
	for tr, ens := range s.ensembles {
		f, err := ens.Forecast(h)
		if err != nil {
			return nil, fmt.Errorf("core: tracker %d forecast: %w", tr, err)
		}
		for j, byDim := range f {
			for d, series := range byDim {
				for hi, v := range series {
					cent[hi*stride+tr*kd+j*s.dims+d] = v
				}
			}
		}
	}
	return cent, nil
}
