package core

import (
	"fmt"
	"sync"
	"time"

	"orcf/internal/forecast"
	"orcf/internal/parallel"
)

// Snapshot is an immutable, point-in-time view of the pipeline published at
// the end of a successful Step when Config.SnapshotHorizon > 0. It carries
// everything a query needs — the eq. (12) look-back window, the latest
// stored measurements z_t, cluster memberships and centroids, realized
// transmit frequencies, and per-tracker centroid forecasts precomputed up to
// the snapshot horizon — so readers never touch the System's mutable state:
// thousands of concurrent queries proceed lock-free while the ingest loop
// keeps stepping.
//
// Forecasts are pure functions of a Snapshot: two calls with the same
// horizon on the same Snapshot return identical values, and they are
// bit-identical to calling System.Forecast(h) at the step the Snapshot was
// published (both run the same reconstruction over the same window). That
// purity covers the fleet ForecastPlan too: it is built lazily, at most
// once, behind a sync.Once — the one write to a Snapshot after publication —
// and is a function of the published fields alone, so every reader sees the
// same plan whichever of them happened to build it.
type Snapshot struct {
	gen        uint64
	t          int
	ready      bool
	maxHorizon int

	// slots is the look-back window, newest first. Slots are immutable and
	// shared across consecutive Snapshots: each publish deep-copies only the
	// current step's slot and re-references the previous window's tail.
	slots []*ringSlot

	// centF holds per-tracker centroid forecasts [tracker][cluster][dim][hi]
	// for hi < maxHorizon; nil until the models finish initial training.
	centF [][][][]float64

	freq      []float64
	meanFreq  float64
	trainTime time.Duration
	trainRuns int

	// selection holds each tracker's zoo champion/challenger state at
	// publication (deep-copied, immutable); nil entries for single-family
	// systems.
	selection []*forecast.SelectionInfo

	roster    *Roster
	evictions uint64

	nodes, resources  int
	k, dims, nTracker int
	joint             bool
	disableClamp      bool
	disableAlphaClamp bool

	// fleetPlan is the h-independent half of §V-C for every slot, written
	// once by buildPlan under planOnce on the first Plan call.
	planOnce  sync.Once
	fleetPlan *ForecastPlan
}

// Snapshot returns the most recently published read-only view, or nil when
// publishing is disabled (Config.SnapshotHorizon == 0) or no step has
// completed yet. Safe to call concurrently with Step; the returned value
// never changes after publication.
func (s *System) Snapshot() *Snapshot { return s.snap.Load() }

// stepWindow builds the look-back window of the Snapshot a Step is about to
// publish, newest first, from the staged (not yet committed) step state: a
// deep copy of the staged slot in front of the previous publication's shared
// tail. It is called before the ring commit so a failed centroid-forecast
// pass leaves both the ring and the published view untouched. Deep copies
// come from the slot arena: with SnapshotKeep > 0 the slots dropped from the
// published window are recycled once their retention expires, so
// steady-state publishing allocates no new windows.
func (s *System) stepWindow() []*ringSlot {
	s.dropPending = s.dropPending[:0]
	slot := s.arenaSlot()
	slot.copyFrom(&s.stage)

	window := min(s.ringLen+1, len(s.ring))
	slots := make([]*ringSlot, 0, window)
	slots = append(slots, slot)
	if s.pubWinStale {
		// A tombstoned slot was recycled since the last publish: the shared
		// tail still shows the previous occupant as present, so rebuild the
		// window from immutable copies of the live ring (whose presence was
		// masked at eviction). snapAt(k-1) is the state k steps before the
		// staged one, because the ring has not committed this step yet. The
		// entire previous window drops from publication.
		for k := 1; k < window; k++ {
			cp := s.arenaSlot()
			cp.copyFrom(s.snapAt(k - 1))
			slots = append(slots, cp)
		}
		if s.cfg.SnapshotKeep > 0 {
			s.dropPending = append(s.dropPending, s.pubWin...)
		}
	} else if prev := s.pubWin; len(prev) > 0 {
		kept := min(len(prev), window-1)
		slots = append(slots, prev[:kept]...)
		if s.cfg.SnapshotKeep > 0 {
			s.dropPending = append(s.dropPending, prev[kept:]...)
		}
	}
	return slots
}

// assembleSnapshot builds everything in generation gen's Snapshot except the
// centroid forecasts — frequencies, roster, training and selection state,
// dimensions — around the given look-back window. Step hands it stepWindow
// and the next generation, restore the window rebuilt from the recovered ring
// and the recorded generation; forecastSnapshot completes either.
func (s *System) assembleSnapshot(gen uint64, slots []*ringSlot) *Snapshot {
	snap := &Snapshot{
		gen:               gen,
		t:                 s.t,
		ready:             s.Ready(),
		maxHorizon:        s.cfg.SnapshotHorizon,
		slots:             slots,
		freq:              make([]float64, len(s.ids)),
		roster:            s.roster(),
		evictions:         s.evictions,
		nodes:             len(s.ids),
		resources:         s.cfg.Resources,
		k:                 s.cfg.K,
		dims:              s.dims,
		nTracker:          s.nTrackers,
		joint:             s.cfg.JointClustering,
		disableClamp:      s.cfg.DisableClamp,
		disableAlphaClamp: s.cfg.DisableAlphaClamp,
	}
	var sum float64
	live := 0
	for i := range snap.freq {
		if !s.alive[i] {
			continue
		}
		live++
		snap.freq[i] = s.meters[i].Frequency()
		sum += snap.freq[i]
	}
	if live > 0 {
		snap.meanFreq = sum / float64(live)
	}
	snap.trainTime, snap.trainRuns = s.TrainingTime()
	if len(s.cfg.Zoo) > 0 {
		snap.selection = make([]*forecast.SelectionInfo, s.nTrackers)
		for tr := range snap.selection {
			snap.selection[tr] = s.ensembles[tr].Selection()
		}
	}
	return snap
}

// arenaSlot returns a window slot to deep-copy the next snapshot entry into:
// the oldest retiree whose retention has expired — grown in place to the
// current fleet size — or a fresh allocation when the arena is empty, still
// retained, or disabled (SnapshotKeep == 0). Retirement stamps are monotone,
// so checking the FIFO front suffices. The publish being assembled is
// generation s.gen+1; a slot dropped at generation r is safe to overwrite
// once s.gen+1 − r > SnapshotKeep, i.e. every reader entitled to a snapshot
// still sharing it has expired.
func (s *System) arenaSlot() *ringSlot {
	if keep := s.cfg.SnapshotKeep; keep > 0 && len(s.retired) > 0 {
		r := s.retired[0]
		if s.gen+1-r.gen > uint64(keep) {
			// Dequeue by shifting in place: the list stays ~SnapshotKeep
			// entries long, so this never reallocates in steady state.
			s.retired = s.retired[:copy(s.retired, s.retired[1:])]
			growSlot(r.slot, len(s.ids))
			return r.slot
		}
	}
	slot := s.newRingSlot()
	return &slot
}

// forecastSnapshot precomputes the per-tracker centroid forecasts up to the
// snapshot horizon (a no-op before the models finish initial training).
func (s *System) forecastSnapshot(snap *Snapshot) error {
	if !snap.ready {
		return nil
	}
	snap.centF = make([][][][]float64, s.nTrackers)
	return parallel.ForEach(s.cfg.Workers, s.nTrackers, func(tr int) error {
		f, err := s.ensembles[tr].Forecast(s.cfg.SnapshotHorizon)
		if err != nil {
			return fmt.Errorf("core: tracker %d snapshot forecast: %w", tr, err)
		}
		snap.centF[tr] = f
		return nil
	})
}

// Generation is the snapshot's monotonically increasing publication counter
// (one per successful Step).
func (sn *Snapshot) Generation() uint64 { return sn.gen }

// Steps is the number of steps the system had processed at publication.
func (sn *Snapshot) Steps() int { return sn.t }

// Ready reports whether forecasting models were trained at publication.
func (sn *Snapshot) Ready() bool { return sn.ready }

// MaxHorizon is the largest horizon this snapshot can serve.
func (sn *Snapshot) MaxHorizon() int { return sn.maxHorizon }

// Nodes returns the dense slot count N at publication (live members plus
// tombstones); see Roster for membership.
func (sn *Snapshot) Nodes() int { return sn.nodes }

// Roster returns the immutable fleet membership at publication.
func (sn *Snapshot) Roster() *Roster { return sn.roster }

// LiveNodes returns the number of live members at publication.
func (sn *Snapshot) LiveNodes() int { return sn.roster.Live() }

// Evictions returns the lifetime departure count at publication.
func (sn *Snapshot) Evictions() uint64 { return sn.evictions }

// SlotOf returns the slot a live member occupied at publication.
func (sn *Snapshot) SlotOf(id int) (slot int, ok bool) { return sn.roster.SlotOf(id) }

// Present reports whether the slot's member took part in clustering at the
// snapshot's step (false for tombstones and joiners still warming up).
func (sn *Snapshot) Present(slot int) bool {
	if slot < 0 || slot >= sn.nodes {
		return false
	}
	return sn.slots[0].presentAt(slot)
}

// WindowFill returns how many of the snapshot's look-back slots the member
// was present at — eq. (12) forecasts become available at 1 and use the
// full window once it reaches the window length (len of the look-back).
func (sn *Snapshot) WindowFill(slot int) int {
	n := 0
	for _, s := range sn.slots {
		if s.presentAt(slot) {
			n++
		}
	}
	return n
}

// Resources returns the measurement dimensionality d.
func (sn *Snapshot) Resources() int { return sn.resources }

// Trackers returns the number of cluster trackers (d for scalar clustering,
// 1 for joint clustering).
func (sn *Snapshot) Trackers() int { return sn.nTracker }

// Clusters returns K.
func (sn *Snapshot) Clusters() int { return sn.k }

// Latest returns a copy of the central store's measurement for a slot (z_t
// row), or nil when the slot is out of range or held no stored measurement
// at the snapshot's step.
func (sn *Snapshot) Latest(node int) []float64 {
	if node < 0 || node >= sn.nodes || !sn.slots[0].presentAt(node) {
		return nil
	}
	return sn.slots[0].z.row(node, make([]float64, sn.resources))
}

// Assignment returns the slot's cluster index under a tracker at the
// snapshot's step, or -1 when out of range or absent from clustering.
func (sn *Snapshot) Assignment(tracker, node int) int {
	if tracker < 0 || tracker >= sn.nTracker || node < 0 || node >= sn.nodes ||
		!sn.slots[0].presentAt(node) {
		return -1
	}
	return sn.slots[0].assignments[tracker][node]
}

// Frequency returns the node's realized transmission frequency (eq. 5), or
// 0 when out of range.
func (sn *Snapshot) Frequency(node int) float64 {
	if node < 0 || node >= len(sn.freq) {
		return 0
	}
	return sn.freq[node]
}

// MeanFrequency returns the average realized transmission frequency.
func (sn *Snapshot) MeanFrequency() float64 { return sn.meanFreq }

// Centroids returns a copy of a tracker's K centroids at the snapshot's
// step, or nil when the tracker is out of range.
func (sn *Snapshot) Centroids(tracker int) [][]float64 {
	if tracker < 0 || tracker >= sn.nTracker {
		return nil
	}
	return rowViews(append([]float64(nil), sn.slots[0].centroids(tracker)...), sn.dims)
}

// CentroidForecasts returns a deep copy of a tracker's centroid forecasts at
// the snapshot's step, indexed [cluster][dim][horizon-1] for horizons
// 1..MaxHorizon. It returns nil when the tracker is out of range or the
// system has not completed initial training (check Ready). The alert plane
// reads cluster-scope rules through this accessor.
func (sn *Snapshot) CentroidForecasts(tracker int) [][][]float64 {
	if !sn.ready || tracker < 0 || tracker >= len(sn.centF) {
		return nil
	}
	src := sn.centF[tracker]
	out := make([][][]float64, len(src))
	for j, dims := range src {
		out[j] = make([][]float64, len(dims))
		for d, series := range dims {
			out[j][d] = append([]float64(nil), series...)
		}
	}
	return out
}

// CentroidForecastAt returns one value of CentroidForecasts(tracker) —
// [cluster][dim][hi] — without the copy. ok is false when the system has not
// completed initial training or an index is out of range.
func (sn *Snapshot) CentroidForecastAt(tracker, cluster, dim, hi int) (v float64, ok bool) {
	if !sn.ready || tracker < 0 || tracker >= len(sn.centF) ||
		cluster < 0 || cluster >= len(sn.centF[tracker]) ||
		dim < 0 || dim >= len(sn.centF[tracker][cluster]) ||
		hi < 0 || hi >= len(sn.centF[tracker][cluster][dim]) {
		return 0, false
	}
	return sn.centF[tracker][cluster][dim][hi], true
}

// ClusterSizes returns how many present slots each of a tracker's K clusters
// holds at the snapshot's step, or nil when the tracker is out of range.
func (sn *Snapshot) ClusterSizes(tracker int) []int {
	if tracker < 0 || tracker >= sn.nTracker {
		return nil
	}
	sizes := make([]int, sn.k)
	for node := 0; node < sn.nodes; node++ {
		if j := sn.Assignment(tracker, node); j >= 0 && j < sn.k {
			sizes[j]++
		}
	}
	return sizes
}

// TrainingTime returns the cumulative (re)training wall time and round count
// at publication.
func (sn *Snapshot) TrainingTime() (time.Duration, int) {
	return sn.trainTime, sn.trainRuns
}

// ModelSelection returns a tracker's zoo champion/challenger state at
// publication — per-(cluster, dim) champions, rolling accuracies, streaks,
// and switch counts — or nil for an out-of-range tracker or a single-family
// system. The returned value is immutable and shared by all callers.
func (sn *Snapshot) ModelSelection(tracker int) *forecast.SelectionInfo {
	if tracker < 0 || tracker >= len(sn.selection) {
		return nil
	}
	return sn.selection[tracker]
}

// ModelSwitchesTotal sums the lifetime champion promotions across all
// trackers at publication (0 for single-family systems).
func (sn *Snapshot) ModelSwitchesTotal() int {
	total := 0
	for _, sel := range sn.selection {
		if sel != nil {
			total += sel.SwitchTotal
		}
	}
	return total
}

// Forecast produces per-node forecasts for horizons 1..h from the snapshot
// alone: result[hIdx][node][resource]. Rows of tombstoned slots and of
// joiners with no presence in the look-back window yet are NaN (use Present
// / WindowFill to distinguish). It reads only immutable data, so any number
// of calls may run concurrently with each other and with the System's
// ingest loop. workers bounds the per-node fan-out (0 = GOMAXPROCS, 1 =
// serial); the result is identical for any value, and Forecast(h) is a
// prefix of Forecast(h') for h < h'. It fails with ErrNotReady before
// initial training and ErrBadInput when h exceeds MaxHorizon. Readers that
// need only some of the values use Plan or PlanNode and skip the tensor.
func (sn *Snapshot) Forecast(h, workers int) ([][][]float64, error) {
	if h < 1 {
		return nil, fmt.Errorf("core: horizon %d < 1: %w", h, ErrBadInput)
	}
	if h > sn.maxHorizon {
		return nil, fmt.Errorf("core: horizon %d exceeds snapshot horizon %d: %w",
			h, sn.maxHorizon, ErrBadInput)
	}
	if !sn.ready {
		return nil, ErrNotReady
	}
	p, _ := sn.Plan(workers)
	return p.tensor(h, workers), nil
}

// Plan returns the snapshot's fleet ForecastPlan, covering every slot. The
// first call builds it — fanning the slots out over workers (0 = GOMAXPROCS,
// 1 = serial) — and concurrent first calls wait for that one build; built
// reports whether this call was the one that did the work. Before initial
// training every slot's forecast is undefined.
func (sn *Snapshot) Plan(workers int) (p *ForecastPlan, built bool) {
	sn.planOnce.Do(func() {
		sn.buildPlan(workers)
		built = true
	})
	return sn.fleetPlan, built
}

// buildPlan is the one sanctioned write to a published Snapshot; only Plan
// calls it, under planOnce.
func (sn *Snapshot) buildPlan(workers int) {
	sn.fleetPlan = sn.reconEnv().plan(sn.centF, 0, sn.nodes, workers)
}

// PlanNode returns a ForecastPlan covering the one slot, computed from that
// slot's look-back alone: O((M′+h)·d) for a node's whole forecast, without
// building or touching the fleet plan. slot must be in [0, Nodes).
func (sn *Snapshot) PlanNode(slot int) *ForecastPlan {
	return sn.reconEnv().plan(sn.centF, slot, 1, 1)
}

func (sn *Snapshot) reconEnv() *reconEnv {
	return &reconEnv{
		slots:             sn.slots,
		alive:             sn.roster.alive,
		nodes:             sn.nodes,
		resources:         sn.resources,
		k:                 sn.k,
		dims:              sn.dims,
		nTracker:          sn.nTracker,
		joint:             sn.joint,
		disableClamp:      sn.disableClamp,
		disableAlphaClamp: sn.disableAlphaClamp,
	}
}
