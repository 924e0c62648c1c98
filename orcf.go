// Package orcf (Online Resource Collection and Forecasting) is the public
// API of this repository: a Go implementation of "Online Collection and
// Forecasting of Resource Utilization in Large-Scale Distributed Systems"
// (Tuor, Wang, Leung, Ko — ICDCS 2019).
//
// The pipeline monitors N machines from one central node under a
// transmission-frequency budget:
//
//  1. each machine decides per time step whether to upload its measurement
//     (Lyapunov drift-plus-penalty, §V-A of the paper);
//  2. the central node compresses the stored measurements into K evolving
//     clusters whose identities persist over time (§V-B);
//  3. one forecasting model per cluster (sample-and-hold, ARIMA, or LSTM)
//     predicts future centroids, and per-node forecasts are reconstructed
//     as centroid + per-node offset (§V-C).
//
// Minimal usage:
//
//	sys, err := orcf.New(nodes, 2,
//		orcf.WithBudget(0.3),
//		orcf.WithClusters(3),
//		orcf.WithARIMA(orcf.DefaultARIMAGrid()))
//	...
//	for t := 0; t < steps; t++ {
//		if _, err := sys.Step(measurements[t]); err != nil { ... }
//		if sys.Ready() {
//			f, err := sys.Forecast(5) // f[h][node][resource]
//			...
//		}
//	}
package orcf

import (
	"errors"
	"fmt"

	"orcf/internal/alert"
	"orcf/internal/cluster"
	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/sim"
	"orcf/internal/trace"
	"orcf/internal/transmit"
)

// Re-exported types: external consumers use these through the root package
// (the implementing packages are internal).
type (
	// StepResult reports one processed time step (transmissions and the
	// per-resource clustering outcome). Its fleet-sized slices — Transmitted,
	// Present and each ResourceStep's Assignments and Centroids — are
	// read-only views of buffers the System reuses: they are valid until
	// the next Step, AddNodes or RemoveNodes on the same System, so copy
	// what has to outlive that. T and Evicted are the caller's to keep.
	StepResult = core.StepResult
	// ResourceStep is the clustering outcome for one resource tracker; its
	// slices share StepResult's lifetime.
	ResourceStep = core.ResourceStep
	// Snapshot is the immutable read-only view published per step when
	// snapshots are enabled (WithSnapshotHorizon); see System.Snapshot.
	Snapshot = core.Snapshot
	// Roster is an immutable view of fleet membership (stable node IDs and
	// per-slot liveness); see System.Roster and Snapshot.Roster.
	Roster = core.Roster
	// Dataset is a dense Steps × Nodes × Resources measurement tensor.
	Dataset = trace.Dataset
	// GeneratorConfig parameterizes synthetic trace generation.
	GeneratorConfig = trace.GeneratorConfig
	// TracePreset identifies one of the built-in dataset imitations.
	TracePreset = trace.Preset
	// LSTMConfig parameterizes the LSTM forecaster.
	LSTMConfig = forecast.LSTMConfig
	// ARIMAGrid is the ARIMA hyper-parameter search space.
	ARIMAGrid = forecast.Grid
	// Model is a univariate forecasting model.
	Model = forecast.Model
	// ModelCandidate is one named entry of a model zoo (see WithModelZoo).
	ModelCandidate = forecast.Candidate
	// SelectionConfig tunes online champion/challenger selection
	// (see WithSelection).
	SelectionConfig = forecast.SelectionConfig
	// SelectionInfo is a point-in-time view of one tracker's selection state
	// (see System.ModelSelection).
	SelectionInfo = forecast.SelectionInfo
	// EvalConfig controls an evaluation run over a dataset.
	EvalConfig = sim.Config
	// EvalResult is the outcome of an evaluation run.
	EvalResult = sim.Result
	// AlertRule is one alerting rule evaluated against published snapshots
	// (see WithAlertRules).
	AlertRule = alert.Rule
	// AlertRuleSet is a validated collection of alert rules plus set-wide
	// settings; build one in Go or parse a file with ParseAlertRules.
	AlertRuleSet = alert.RuleSet
	// AlertEvent is one alert transition (fire or resolve) delivered to sinks.
	AlertEvent = alert.Event
	// AlertSink receives alert transition events (see WithAlertSink).
	AlertSink = alert.Sink
	// ActiveAlert is one currently firing alert instance (see System.Alerts).
	ActiveAlert = alert.Active
	// AlertStats is the alert engine's cumulative accounting.
	AlertStats = alert.Stats
	// Recommendation is one per-cluster autoscaling proposal
	// (see System.Recommend).
	Recommendation = alert.Recommendation
)

// ErrBadOption reports an invalid option or option combination. New wraps
// every error of the pipeline's and the alert engine's constructors in it,
// so errors.Is(err, ErrBadOption) holds for every configuration New rejects,
// and the constructors' own errors stay reachable through it.
var ErrBadOption = errors.New("orcf: invalid option")

// config aggregates everything New assembles: the core pipeline
// configuration plus the optional alert plane riding on its snapshots.
type config struct {
	core.Config
	rules *alert.RuleSet
	sinks []alert.Sink
}

// Option configures New.
type Option func(*config) error

// WithClusters sets K, the number of clusters and forecasting models
// (paper default 3).
func WithClusters(k int) Option {
	return func(c *config) error {
		if k < 1 {
			return fmt.Errorf("orcf: K=%d: %w", k, ErrBadOption)
		}
		c.K = k
		return nil
	}
}

// withPolicy installs the policy build returns on every node. build runs
// once here, so invalid parameters fail New with ErrBadOption even for a
// fleet that starts empty; it is deterministic, so every node's call
// succeeds too.
func withPolicy(build func() (transmit.Policy, error)) Option {
	return func(c *config) error {
		if _, err := build(); err != nil {
			return fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		c.Policy = func(int) (transmit.Policy, error) { return build() }
		return nil
	}
}

// WithBudget installs the paper's adaptive transmission policy with
// long-run frequency budget b ∈ [0,1] on every node (paper default 0.3).
func WithBudget(b float64) Option {
	return withPolicy(func() (transmit.Policy, error) {
		return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: b})
	})
}

// WithUniformSampling installs the uniform-sampling baseline at frequency b.
func WithUniformSampling(b float64) Option {
	return withPolicy(func() (transmit.Policy, error) { return transmit.NewUniform(b) })
}

// WithAlwaysTransmit disables collection filtering (B = 1).
func WithAlwaysTransmit() Option {
	return func(c *config) error {
		c.Policy = func(int) (transmit.Policy, error) { return transmit.Always{}, nil }
		return nil
	}
}

// WithPolicyFactory installs a custom per-node transmission policy.
func WithPolicyFactory(f core.PolicyFactory) Option {
	return func(c *config) error {
		if f == nil {
			return fmt.Errorf("orcf: nil policy factory: %w", ErrBadOption)
		}
		c.Policy = f
		return nil
	}
}

// withModel pins one model family: a one-candidate zoo named after the
// model build returns. build runs once here, so a family with invalid
// parameters fails New with ErrBadOption; it is deterministic, so the
// ensembles' calls succeed too.
func withModel(build func() (forecast.Model, error)) Option {
	return func(c *config) error {
		m, err := build()
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		if m == nil {
			return fmt.Errorf("orcf: model builder returned nil: %w", ErrBadOption)
		}
		c.Zoo = []forecast.Candidate{{Name: m.Name(), Builder: func() forecast.Model {
			m, _ := build()
			return m
		}}}
		return nil
	}
}

// WithSampleAndHold uses the sample-and-hold forecaster (default).
func WithSampleAndHold() Option {
	return func(c *config) error {
		c.Zoo = nil
		return nil
	}
}

// WithARIMA uses AICc-selected ARIMA models over the given grid.
func WithARIMA(grid ARIMAGrid) Option {
	return withModel(func() (forecast.Model, error) { return forecast.NewAutoARIMA(grid), nil })
}

// WithAR uses a fixed-order AR(p) forecaster.
func WithAR(p int) Option {
	return withModel(func() (forecast.Model, error) { return forecast.NewAR(p) })
}

// WithLSTM uses the two-layer LSTM forecaster.
func WithLSTM(cfg LSTMConfig) Option {
	return withModel(func() (forecast.Model, error) { return forecast.NewLSTM(cfg), nil })
}

// WithSES uses simple exponential smoothing with the given alpha
// (0 selects the default 0.3) — the cheapest level-adaptive forecaster.
func WithSES(alpha float64) Option {
	return withModel(func() (forecast.Model, error) { return forecast.NewSES(alpha) })
}

// WithHolt uses damped Holt linear-trend smoothing (zeros select the
// defaults α=0.3, β=0.1, φ=0.98).
func WithHolt(alpha, beta, phi float64) Option {
	return withModel(func() (forecast.Model, error) { return forecast.NewHolt(alpha, beta, phi) })
}

// WithHoltWinters uses additive Holt-Winters smoothing with the given
// seasonal period (e.g. 288 for daily cycles at 5-minute sampling) and the
// fixed smoothing α=0.3, β=0.05, γ=0.1.
func WithHoltWinters(period int) Option {
	return withModel(func() (forecast.Model, error) { return forecast.NewHoltWinters(period) })
}

// WithModelZoo runs a model zoo instead of a single pinned family: one model
// per registered family name is fitted per (cluster, resource) cell, every
// candidate's 1-step forecasts are scored online against the next observed
// centroid, and forecasts are served by the per-cell champion, which a
// challenger dethrones only after beating it by a margin for a sustained
// streak of evaluations (hysteresis; tune with WithSelection). One name has
// nothing to select: it pins that family. Names must be registered families
// (see ModelFamilies). The single-model options (WithSES, WithARIMA,
// WithModelBuilder, ...) set a one-family zoo, so of these options the last
// one given wins.
func WithModelZoo(names ...string) Option {
	return func(c *config) error {
		zoo, err := forecast.Zoo(names...)
		if err != nil {
			return fmt.Errorf("%w: %w", ErrBadOption, err)
		}
		c.Zoo = zoo
		return nil
	}
}

// WithSelection tunes the champion/challenger selector used by WithModelZoo
// (zero fields select the defaults: window 64, margin 0, streak 3, metric
// "mae"). New rejects a non-zero tuning unless WithModelZoo names two or
// more families, the only zoo that runs a selector.
func WithSelection(cfg SelectionConfig) Option {
	return func(c *config) error {
		c.Selection = cfg
		return nil
	}
}

// ModelFamilies returns the sorted names of every registered forecasting
// family usable with WithModelZoo.
func ModelFamilies() []string { return forecast.Families() }

// ModelSelection returns a deep copy of one tracker's champion/challenger
// state, or nil when the system runs one family (the default, a
// single-model option, or WithModelZoo with one name) or the tracker index is
// out of range. Call it between Steps (for lock-free concurrent reads use
// Snapshot.ModelSelection).
func (s *System) ModelSelection(tracker int) *SelectionInfo {
	return s.inner.ModelSelection(tracker)
}

// WithModelBuilder installs a custom forecasting model factory, named by
// the Name of the model it builds.
func WithModelBuilder(b forecast.Builder) Option {
	if b == nil {
		return func(*config) error { return fmt.Errorf("orcf: nil model builder: %w", ErrBadOption) }
	}
	return withModel(func() (forecast.Model, error) { return b(), nil })
}

// WithSimilarityLookback sets M, the cluster-matching look-back of eq. (10)
// (paper default 1).
func WithSimilarityLookback(m int) Option {
	return func(c *config) error {
		if m < 1 {
			return fmt.Errorf("orcf: M=%d: %w", m, ErrBadOption)
		}
		c.M = m
		return nil
	}
}

// WithMembershipLookback sets M′, the look-back for membership forecasting
// and offsets (paper default 5). Zero selects "current step only".
func WithMembershipLookback(mPrime int) Option {
	return func(c *config) error {
		if mPrime < 0 {
			return fmt.Errorf("orcf: M'=%d: %w", mPrime, ErrBadOption)
		}
		if mPrime == 0 {
			c.MPrime = -1
		} else {
			c.MPrime = mPrime
		}
		return nil
	}
}

// WithJaccardSimilarity switches cluster matching to the Jaccard index
// (the Fig. 11 comparison); the default is the paper's proposed measure.
func WithJaccardSimilarity() Option {
	return func(c *config) error {
		c.Similarity = cluster.SimilarityJaccard
		return nil
	}
}

// WithJointClustering clusters full d-dimensional measurement vectors
// instead of per-resource scalars (the Table I ablation).
func WithJointClustering() Option {
	return func(c *config) error {
		c.JointClustering = true
		return nil
	}
}

// WithTrainingSchedule sets the initial collection length and retraining
// period (paper defaults 1000 and 288).
func WithTrainingSchedule(initialCollection, retrainEvery int) Option {
	return func(c *config) error {
		if initialCollection < 1 || retrainEvery < 1 {
			return fmt.Errorf("orcf: schedule %d/%d: %w", initialCollection, retrainEvery, ErrBadOption)
		}
		c.InitialCollection = initialCollection
		c.RetrainEvery = retrainEvery
		return nil
	}
}

// WithFitWindow caps the centroid history a model fit reads. 0 means the
// default window, max(initial collection, 2 × retraining period): 1000 at the
// paper's schedule. The system keeps at most the window plus one retraining
// period of centroid history, however long it runs.
func WithFitWindow(n int) Option {
	return func(c *config) error {
		c.FitWindow = n
		return nil
	}
}

// WithAbsenceTimeout enables automatic fleet-member eviction: a member that
// produces no report (a nil row in Step's input) for this many consecutive
// steps departs, freeing its slot for later joiners. Zero (the default)
// disables auto-eviction; membership then changes only through
// AddNodes/RemoveNodes. See System.AddNodes for the elastic-fleet model.
func WithAbsenceTimeout(steps int) Option {
	return func(c *config) error {
		c.AbsenceTimeout = steps
		return nil
	}
}

// WithSeed fixes the random seed for clustering, making runs reproducible.
func WithSeed(seed uint64) Option {
	return func(c *config) error {
		c.Seed = seed
		return nil
	}
}

// WithSnapshotHorizon enables the concurrent read plane: after every
// successful Step the system publishes an immutable Snapshot (latest
// measurements, memberships, transmit frequencies, centroid forecasts up to
// horizon h and the fleet forecast plan) that any number of readers may query
// lock-free while stepping continues — the substrate of the internal/serve
// query plane and cmd/forecastd. Zero (the default) disables publishing and
// keeps the ingest path allocation-free.
func WithSnapshotHorizon(h int) Option {
	return func(c *config) error {
		c.SnapshotHorizon = h
		return nil
	}
}

// WithIncrementalRefit enables warm-started clustering refits: when fleet
// membership is unchanged and reassigning the stored measurements to the
// previous step's centroids moves at most churn·N members, the step reuses
// that assignment instead of running a full K-means refit — the dominant
// per-step cost at large N. Warm steps skip the K-means RNG draws, so runs
// with this enabled are not bit-identical to runs without it (exported
// states are fingerprinted accordingly); every warm step is itself pinned
// bit-identical to the full refit decision procedure by the differential
// test plane in internal/cluster.
//
// churn 0 selects the default acceptance threshold (0.25); negative forces a
// full refit every step, which is bit-identical to leaving the option off.
func WithIncrementalRefit(churn float64) Option {
	return func(c *config) error {
		c.IncrementalRefit = true
		c.IncrementalChurn = churn
		return nil
	}
}

// WithAlertRules attaches the alerting plane: after every successful Step
// the rules are evaluated against the published snapshot (threshold and
// trend rules over per-cluster centroid and per-node forecasts), driving
// firing→resolved state machines with hysteresis and delivering transition
// events to any sinks added with WithAlertSink. Requires WithSnapshotHorizon
// at least as large as the largest rule horizon. The rule set is validated
// by New and must not be mutated afterwards.
func WithAlertRules(rs *AlertRuleSet) Option {
	return func(c *config) error {
		if rs == nil {
			return fmt.Errorf("orcf: nil alert rule set: %w", ErrBadOption)
		}
		c.rules = rs
		return nil
	}
}

// WithAlertSink adds one transition-event sink to the alerting plane (for
// example alert.NewLogSink or a webhook sink); events are delivered in rule
// order at each evaluated step. Requires WithAlertRules.
func WithAlertSink(s AlertSink) Option {
	return func(c *config) error {
		if s == nil {
			return fmt.Errorf("orcf: nil alert sink: %w", ErrBadOption)
		}
		c.sinks = append(c.sinks, s)
		return nil
	}
}

// ParseAlertRules parses, defaults, and validates a JSON alert rules
// document (the same format cmd/forecastd's -rules flag loads; see
// docs/OPERATIONS.md).
func ParseAlertRules(data []byte) (*AlertRuleSet, error) { return alert.ParseRules(data) }

// System is the public handle to the collection-and-forecasting pipeline.
type System struct {
	inner  *core.System
	alerts *alert.Engine
}

// New builds a pipeline for the given number of nodes and resource types,
// applying the paper's defaults (§VI-A2) for anything not overridden:
// adaptive policy at B=0.3, K=3, M=1, M′=5, scalar per-resource clustering,
// sample-and-hold forecasting, warm-up 1000 steps, retraining every 288.
func New(nodes, resources int, opts ...Option) (*System, error) {
	cfg := config{Config: core.Config{Nodes: nodes, Resources: resources}}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	var engine *alert.Engine
	switch {
	case cfg.rules != nil:
		if cfg.SnapshotHorizon == 0 {
			return nil, fmt.Errorf("orcf: WithAlertRules requires WithSnapshotHorizon: %w", ErrBadOption)
		}
		var err error
		engine, err = alert.New(alert.Config{
			Rules:      cfg.rules,
			Sinks:      cfg.sinks,
			MaxHorizon: cfg.SnapshotHorizon,
		})
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
		}
	case len(cfg.sinks) > 0:
		return nil, fmt.Errorf("orcf: WithAlertSink requires WithAlertRules: %w", ErrBadOption)
	}
	inner, err := core.NewSystem(cfg.Config)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrBadOption, err)
	}
	return &System{inner: inner, alerts: engine}, nil
}

// Step ingests the fleet's measurements for one time step: x has one row
// per slot (see Roster), where x[i] is the slot's d-dimensional measurement
// and a nil row means "no report this step" (mandatory for departed slots;
// for live members it counts toward the absence timeout). Returns what
// happened, including any members evicted this step (the result's slices are
// views valid until the next Step; see StepResult). With WithAlertRules the
// published snapshot is then evaluated against the rules and transition
// events go to the sinks; an evaluation failure is returned alongside the
// (already applied) step result.
func (s *System) Step(x [][]float64) (*StepResult, error) {
	res, err := s.inner.Step(x)
	if err != nil || s.alerts == nil {
		return res, err
	}
	if _, aerr := s.alerts.Evaluate(s.inner.Snapshot()); aerr != nil {
		return res, aerr
	}
	return res, nil
}

// Alerts returns the currently firing alert instances sorted by rule then
// target, or nil when alerting is not configured (see WithAlertRules). Safe
// to call concurrently with Step.
func (s *System) Alerts() []ActiveAlert {
	if s.alerts == nil {
		return nil
	}
	return s.alerts.Active()
}

// AlertStats returns the alert engine's cumulative accounting; ok is false
// when alerting is not configured.
func (s *System) AlertStats() (stats AlertStats, ok bool) {
	if s.alerts == nil {
		return AlertStats{}, false
	}
	return s.alerts.Stats(), true
}

// Recommend proposes per-cluster scale-up/scale-down node deltas from the
// latest snapshot's horizon-h centroid forecasts of tracker 0 (the first
// resource under scalar clustering), against the target utilization band
// [0.3, 0.7]. It requires WithSnapshotHorizon ≥ h and a completed initial
// training.
func (s *System) Recommend(h int) ([]Recommendation, error) {
	snap := s.inner.Snapshot()
	if snap == nil {
		return nil, core.ErrNotReady
	}
	return alert.Recommend(snap, h)
}

// AddNodes joins new fleet members under the given stable IDs: each gets a
// fresh policy and an empty, NaN-masked history, participates in clustering
// from its first stored measurement, and serves forecasts once its
// look-back window accumulates presence — all without perturbing existing
// members. Call it between Steps.
func (s *System) AddNodes(ids ...int) error { return s.inner.AddNodes(ids...) }

// RemoveNodes departs live members immediately, retiring their IDs and
// recycling their slots for later joiners. A removed ID may rejoin later
// via AddNodes and starts from a blank history. Call it between Steps.
func (s *System) RemoveNodes(ids ...int) error { return s.inner.RemoveNodes(ids...) }

// Roster returns an immutable view of current fleet membership.
func (s *System) Roster() *Roster { return s.inner.Roster() }

// Members returns the live members' stable IDs in slot order.
func (s *System) Members() []int { return s.inner.Members() }

// Ready reports whether the forecasting models finished initial training.
func (s *System) Ready() bool { return s.inner.Ready() }

// Forecast returns per-node forecasts for horizons 1..h as
// result[h-1][node][resource].
func (s *System) Forecast(h int) ([][][]float64, error) { return s.inner.Forecast(h) }

// Stored returns the central node's current measurement copies (z_t).
func (s *System) Stored() [][]float64 { return s.inner.Stored() }

// Snapshot returns the latest published read-only view, or nil when
// snapshots are disabled (see WithSnapshotHorizon) or no step has completed.
// Safe to call concurrently with Step.
func (s *System) Snapshot() *Snapshot { return s.inner.Snapshot() }

// Frequency returns the realized transmission frequency of one node.
func (s *System) Frequency(node int) float64 { return s.inner.Frequency(node) }

// MeanFrequency returns the average realized transmission frequency.
func (s *System) MeanFrequency() float64 { return s.inner.MeanFrequency() }

// CentroidSeries returns a copy of the centroid series of (tracker,
// cluster, dim) that the models fit on: the retained suffix, oldest first, at
// most the fit window plus one retraining period of values (see
// WithFitWindow).
func (s *System) CentroidSeries(tracker, clusterIdx, dim int) []float64 {
	return s.inner.CentroidSeries(tracker, clusterIdx, dim)
}

// Steps returns the number of processed time steps.
func (s *System) Steps() int { return s.inner.Steps() }

// RefitStats reports how many per-tracker clustering steps were warm-started
// versus fully refit (warm is always 0 unless WithIncrementalRefit is set).
func (s *System) RefitStats() (warm, full int) { return s.inner.RefitStats() }

// Evaluate drives the system over a dataset and scores RMSE per horizon,
// the h=0 staleness error, and (optionally) the intermediate clustering
// RMSE. The system must be freshly constructed for meaningful results.
func (s *System) Evaluate(ds *Dataset, cfg EvalConfig) (*EvalResult, error) {
	return sim.Run(s.inner, ds, cfg)
}

// GenerateTrace produces a synthetic dataset (see GeneratorConfig).
func GenerateTrace(cfg GeneratorConfig) (*Dataset, error) { return trace.Generate(cfg) }

// AlibabaLike returns the Alibaba-2018-like preset (see internal/trace).
func AlibabaLike() TracePreset { return trace.AlibabaLike() }

// BitbrainsLike returns the Bitbrains-GWA-T-12-like preset.
func BitbrainsLike() TracePreset { return trace.BitbrainsLike() }

// GoogleLike returns the Google-cluster-usage-v2-like preset.
func GoogleLike() TracePreset { return trace.GoogleLike() }

// SensorLike returns the Intel-Berkeley-sensor-like preset.
func SensorLike() TracePreset { return trace.SensorLike() }

// DefaultARIMAGrid returns a reduced ARIMA search grid that is fast enough
// for interactive use.
func DefaultARIMAGrid() ARIMAGrid { return forecast.DefaultGrid() }

// PaperARIMAGrid returns the full grid searched in the paper (§VI-A3) with
// the given seasonal period.
func PaperARIMAGrid(season int) ARIMAGrid { return forecast.PaperGrid(season) }
