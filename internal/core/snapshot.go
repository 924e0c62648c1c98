package core

import (
	"fmt"
	"time"

	"orcf/internal/forecast"
)

// Snapshot is an immutable, point-in-time view of the pipeline published at
// the end of a successful Step when Config.SnapshotHorizon > 0. It carries
// everything a query needs — the latest stored measurements z_t, cluster
// memberships and centroids, realized transmit frequencies, and the fleet
// ForecastPlan: the centroid forecasts precomputed up to the snapshot horizon
// and what turns them into per-node forecasts (§V-C) — so readers
// never touch the System's mutable state: thousands of concurrent queries
// proceed lock-free while the ingest loop keeps stepping.
//
// Nothing in a Snapshot is written after publication, and nothing in it is
// shared with the System: two calls with the same horizon on the same
// Snapshot return identical values however many steps have run since, and
// they are bit-identical to calling System.Forecast(h) at the step the
// Snapshot was published (both run the same plan kernel over the same
// look-back ring).
type Snapshot struct {
	gen        uint64
	t          int
	ready      bool
	maxHorizon int

	// newest is a copy of the ring slot the step committed: the stored
	// measurements, memberships and centroids the per-node accessors read.
	newest slotCopy

	// plan is the h-independent half of §V-C for every slot, built over the
	// System's look-back ring when the snapshot was published, around the
	// centroid forecasts for horizons up to maxHorizon (none until the models
	// finish initial training). Its fill column is WindowFill.
	plan *ForecastPlan

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
}

// slotCopy is a Snapshot's copy of one committed ring slot: z, presence and
// the int32 assignments as the ring holds them, the assignments in one flat
// column per tracker, and the centroids.
type slotCopy struct {
	z       zFrame
	present []bool
	assign  []int32   // [tracker·nodes + slot]; -1 = absent
	cents   []float64 // [tracker][cluster][dim], flat
	kd      int       // K·dims: one tracker's share of cents
}

// Snapshot returns the most recently published read-only view, or nil when
// publishing is disabled (Config.SnapshotHorizon == 0) or no step has
// completed yet. Safe to call concurrently with Step; the returned value
// never changes after publication.
func (s *System) Snapshot() *Snapshot { return s.snap.Load() }

// assembleSnapshot builds everything in generation gen's Snapshot that does
// not read the look-back ring — frequencies, roster, training and selection
// state, dimensions. Step hands it the next generation, restore the recorded
// one; publish adds the rest once the ring holds the step.
func (s *System) assembleSnapshot(gen uint64) *Snapshot {
	snap := &Snapshot{
		gen:        gen,
		t:          s.t,
		ready:      s.Ready(),
		maxHorizon: s.cfg.SnapshotHorizon,
		freq:       make([]float64, len(s.ids)),
		roster:     s.roster(),
		evictions:  s.evictions,
		nodes:      len(s.ids),
		resources:  s.cfg.Resources,
		k:          s.cfg.K,
		dims:       s.dims,
		nTracker:   s.nTrackers,
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
	if len(s.cfg.Zoo) > 1 {
		snap.selection = make([]*forecast.SelectionInfo, s.nTrackers)
		for tr := range snap.selection {
			snap.selection[tr] = s.ensembles[tr].Selection()
		}
	}
	return snap
}

// publish completes a snapshot from the committed ring — a deep copy of the
// newest slot and the fleet plan over the whole look-back around cent, the
// centroid forecasts up to the snapshot horizon, built by the same code
// System.Forecast runs — and makes it the one readers load. It cannot fail,
// so it runs after the ring commit, where a failed centroid forecast can no
// longer reach; Step's commit and restore's republish both end in it.
func (s *System) publish(snap *Snapshot, cent []float64) {
	src, n := s.snapAt(0), len(s.ids)
	snap.newest = slotCopy{
		z:       newZFrame(n, s.nTrackers, s.dims),
		present: make([]bool, n),
		assign:  make([]int32, s.nTrackers*n),
		cents:   append([]float64(nil), src.cents...),
		kd:      src.kd,
	}
	snap.newest.z.copyFrom(&src.z)
	copy(snap.newest.present, src.present)
	for tr, row := range src.assignments {
		copy(snap.newest.assign[tr*n:(tr+1)*n], row[:n])
	}
	snap.plan = s.reconEnv().plan(cent)
	s.gen = snap.gen
	s.snap.Store(snap)
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
	return sn.newest.present[slot]
}

// WindowFill returns how many steps of the snapshot's look-back window the
// member was present at — eq. (12) forecasts become available at 1 and use
// the full window once it reaches the window length M′+1 — or 0 when the
// slot is out of range.
func (sn *Snapshot) WindowFill(slot int) int {
	if slot < 0 || slot >= sn.nodes {
		return 0
	}
	return int(sn.plan.fill[slot])
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
	if node < 0 || node >= sn.nodes || !sn.newest.present[node] {
		return nil
	}
	return sn.newest.z.row(node, make([]float64, sn.resources))
}

// Assignment returns the slot's cluster index under a tracker at the
// snapshot's step, or -1 when out of range or absent from clustering.
func (sn *Snapshot) Assignment(tracker, node int) int {
	if tracker < 0 || tracker >= sn.nTracker || node < 0 || node >= sn.nodes ||
		!sn.newest.present[node] {
		return -1
	}
	return int(sn.newest.assign[tracker*sn.nodes+node])
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
	kd := sn.newest.kd
	return rowViews(append([]float64(nil), sn.newest.cents[tracker*kd:(tracker+1)*kd]...), sn.dims)
}

// CentroidForecastAt returns one value of a tracker's centroid forecasts at
// the snapshot's step, indexed [cluster][dim][hi] for horizons 1..MaxHorizon
// (hi = horizon−1). ok is false when the system has not completed initial
// training or an index is out of range. Cluster-scope alert rules read it.
func (sn *Snapshot) CentroidForecastAt(tracker, cluster, dim, hi int) (v float64, ok bool) {
	if !sn.ready || tracker < 0 || tracker >= sn.nTracker || cluster < 0 || cluster >= sn.k ||
		dim < 0 || dim >= sn.dims || hi < 0 || hi >= sn.maxHorizon {
		return 0, false
	}
	p := sn.plan
	return p.cent[hi*p.stride+tracker*p.kd+cluster*p.dims+dim], true
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
// and switch counts — or nil for an out-of-range tracker or a system running
// one model family. The returned value is immutable and shared by all callers.
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
// ingest loop. The per-node fan-out runs on the worker pool; the result is
// identical for any pool width, and Forecast(h) is a prefix of Forecast(h')
// for h < h'. It fails with ErrNotReady before initial training and
// ErrBadInput when h exceeds MaxHorizon. Readers that need only some of the
// values read Plan and skip the tensor.
func (sn *Snapshot) Forecast(h int) ([][][]float64, error) {
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
	return sn.plan.tensor(h), nil
}

// Plan returns the snapshot's fleet ForecastPlan, covering every slot, built
// when the snapshot was published. Before initial training every slot's
// forecast is undefined.
func (sn *Snapshot) Plan() *ForecastPlan { return sn.plan }
