package serve

import (
	"net/http"
	"time"

	"orcf/internal/core"
	"orcf/internal/obs"
)

// registerMetrics binds every /metrics series to the server's registry. The
// series set and names predate the registry (scrape configs and dashboards
// depend on them), so each one keeps its exact name, kind, and help text; a
// pinning test guards against drift. All pipeline series read from one
// StatsResponse staged per collection pass, so a scrape never mixes values
// from two different snapshots.
func (s *Server) registerMetrics() {
	s.reg.OnCollect(func() {
		st := s.Stats()
		s.staged.Store(&st)
	})
	stat := func(f func(*StatsResponse) float64) func() float64 {
		return func() float64 {
			st := s.staged.Load()
			if st == nil {
				return 0
			}
			return f(st)
		}
	}

	s.reg.CounterFunc("orcf_steps_total", "Processed pipeline steps.",
		stat(func(st *StatsResponse) float64 { return float64(st.Step) }))
	s.reg.GaugeFunc("orcf_snapshot_generation", "Latest published snapshot generation.",
		stat(func(st *StatsResponse) float64 { return float64(st.Generation) }))
	s.reg.GaugeFunc("orcf_ready", "1 once forecasting models are trained.",
		stat(func(st *StatsResponse) float64 {
			if st.Ready {
				return 1
			}
			return 0
		}))
	s.reg.GaugeFunc("orcf_nodes", "Live fleet members.",
		stat(func(st *StatsResponse) float64 { return float64(st.Nodes) }))
	s.reg.GaugeFunc("orcf_fleet_slots", "Dense fleet slots (live members plus tombstones).",
		stat(func(st *StatsResponse) float64 { return float64(st.Slots) }))
	s.reg.CounterFunc("orcf_node_evictions_total", "Members departed (absence timeout or removal).",
		stat(func(st *StatsResponse) float64 { return float64(st.Evictions) }))
	s.reg.GaugeFunc("orcf_mean_transmit_frequency", "Mean realized transmission frequency (eq. 5).",
		stat(func(st *StatsResponse) float64 { return st.MeanFrequency }))
	s.reg.CounterFunc("orcf_training_runs_total", "Completed (re)training rounds.",
		stat(func(st *StatsResponse) float64 { return float64(st.TrainingRuns) }))
	s.reg.CounterFunc("orcf_training_seconds_total", "Cumulative (re)training wall time.",
		stat(func(st *StatsResponse) float64 { return st.TrainingSeconds }))
	s.reg.CounterFunc("orcf_forecast_cache_hits_total", "Fleet forecast requests that reused their generation's forecast plan.",
		stat(func(st *StatsResponse) float64 { return float64(st.Cache.Hits) }))
	s.reg.CounterFunc("orcf_http_requests_total", "HTTP requests received.",
		stat(func(st *StatsResponse) float64 { return float64(st.Requests.Total) }))
	s.reg.CounterFunc("orcf_http_requests_rejected_total", "Requests rejected at the concurrency limit.",
		stat(func(st *StatsResponse) float64 { return float64(st.Requests.Rejected) }))
	// Model-zoo series are always registered (0 for single-family pipelines)
	// so dashboards see the series regardless of deployment mode.
	s.reg.GaugeFunc("orcf_forecast_candidates", "Model-zoo candidate families (0 when a single family is pinned).",
		stat(func(st *StatsResponse) float64 {
			if st.Models == nil {
				return 0
			}
			return float64(len(st.Models.Families))
		}))
	s.reg.CounterFunc("orcf_forecast_champion_switches_total", "Champion promotions across all trackers and cells.",
		stat(func(st *StatsResponse) float64 {
			if st.Models == nil {
				return 0
			}
			return float64(st.Models.ChampionSwitchesTotal)
		}))
	s.reg.CounterFunc("orcf_forecast_evaluations_total", "Scored 1-step candidate forecasts across all trackers and cells.",
		stat(func(st *StatsResponse) float64 {
			if st.Models == nil {
				return 0
			}
			return float64(st.Models.EvaluationsTotal)
		}))

	if s.cfg.PersistStats != nil {
		pstat := func(f func(*PersistStats) float64) func() float64 {
			return stat(func(st *StatsResponse) float64 {
				if st.Persist == nil {
					return 0
				}
				return f(st.Persist)
			})
		}
		s.reg.CounterFunc("orcf_checkpoints_total", "Durably completed checkpoints.",
			pstat(func(p *PersistStats) float64 { return float64(p.Checkpoints) }))
		s.reg.CounterFunc("orcf_checkpoint_errors_total", "Failed checkpoint attempts.",
			pstat(func(p *PersistStats) float64 { return float64(p.CheckpointErrors) }))
		s.reg.CounterFunc("orcf_checkpoint_seconds_total", "Cumulative wall time spent writing durable checkpoints.",
			pstat(func(p *PersistStats) float64 { return p.CheckpointSecondsTotal }))
		s.reg.GaugeFunc("orcf_last_checkpoint_step", "Pipeline step of the newest durable checkpoint.",
			pstat(func(p *PersistStats) float64 { return float64(p.LastCheckpointStep) }))
		s.reg.GaugeFunc("orcf_last_checkpoint_age_seconds", "Seconds since the newest durable checkpoint (-1 before the first).",
			pstat(func(p *PersistStats) float64 { return p.LastCheckpointAgeSeconds }))
		s.reg.GaugeFunc("orcf_last_checkpoint_seconds", "Encode+write duration of the newest durable checkpoint.",
			pstat(func(p *PersistStats) float64 { return p.LastCheckpointSeconds }))
		s.reg.CounterFunc("orcf_wal_records_total", "Measurement records appended to the WAL.",
			pstat(func(p *PersistStats) float64 { return float64(p.WALRecords) }))
		s.reg.CounterFunc("orcf_wal_bytes_total", "Bytes appended to the WAL.",
			pstat(func(p *PersistStats) float64 { return float64(p.WALBytes) }))
		s.reg.CounterFunc("orcf_wal_append_seconds_total", "Cumulative stepping-goroutine time spent appending WAL records.",
			pstat(func(p *PersistStats) float64 { return p.WALAppendSecondsTotal }))
		s.reg.GaugeFunc("orcf_recovered_step", "Step the pipeline resumed from at boot.",
			pstat(func(p *PersistStats) float64 { return float64(p.RecoveredStep) }))
		s.reg.GaugeFunc("orcf_replayed_steps", "WAL records replayed by boot recovery.",
			pstat(func(p *PersistStats) float64 { return float64(p.ReplayedSteps) }))
	}
}

// endpointHistogram registers one per-endpoint request-latency histogram
// under the given full series name. Endpoints get separate series rather
// than a shared labeled one because the registry is deliberately label-free
// (see obs.LabeledGaugeFunc); the name is passed as a full literal at every
// call site so the docscheck metric gate can see it statically.
func (s *Server) endpointHistogram(name, route string) *obs.Histogram {
	return s.reg.NewHistogram(name, "Latency of GET "+route+" requests.", obs.DefBuckets)
}

// timed wraps a handler so its wall time lands in the endpoint's histogram.
// Requests rejected at the concurrency limit never reach the mux, so the
// histograms measure served requests only.
func timed(h *obs.Histogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer h.ObserveSince(time.Now())
		fn(w, r)
	}
}

// StepTimings surfaces core.System step sub-phase durations as one histogram
// per phase (orcf_step_<phase>_seconds). Wire it into core.Config's
// PhaseObserver and register it on the same registry the server exposes.
type StepTimings struct {
	hist [core.NumStepPhases]*obs.Histogram
}

// stepPhaseSeries names each sub-phase histogram. The names follow
// "orcf_step_" + core.StepPhase.String() + "_seconds" but are spelled out as
// full literals so the docscheck metric gate can enumerate every registered
// series without evaluating concatenations.
var stepPhaseSeries = [core.NumStepPhases]string{
	core.PhaseIngest:   "orcf_step_ingest_seconds",
	core.PhaseCluster:  "orcf_step_cluster_seconds",
	core.PhaseRefit:    "orcf_step_refit_seconds",
	core.PhaseForecast: "orcf_step_forecast_seconds",
	core.PhasePublish:  "orcf_step_publish_seconds",
}

// NewStepTimings registers one histogram per step sub-phase on reg.
func NewStepTimings(reg *obs.Registry) *StepTimings {
	st := &StepTimings{}
	for p := range st.hist {
		phase := core.StepPhase(p)
		st.hist[p] = reg.NewHistogram(
			stepPhaseSeries[p],
			"Wall time of the "+phase.String()+" sub-phase of one pipeline step.",
			obs.StepBuckets)
	}
	return st
}

// ObserveStepPhase implements core.PhaseObserver.
func (st *StepTimings) ObserveStepPhase(phase core.StepPhase, d time.Duration) {
	if int(phase) < len(st.hist) {
		st.hist[phase].ObserveDuration(d)
	}
}
