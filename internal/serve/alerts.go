package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"orcf/internal/alert"
)

// AlertsResponse is the /v1/alerts payload: the currently firing instances
// plus the engine's cumulative accounting. Firing is sorted by rule name then
// target and is empty (not null) when nothing fires.
type AlertsResponse struct {
	Generation uint64         `json:"generation"`
	Step       int            `json:"step"`
	Firing     []alert.Active `json:"firing"`
	Stats      alert.Stats    `json:"stats"`
}

// RecommendationsResponse is the /v1/recommendations payload: one per-cluster
// scaling proposal derived from the horizon-h centroid forecasts.
type RecommendationsResponse struct {
	Generation      uint64                 `json:"generation"`
	Step            int                    `json:"step"`
	Horizon         int                    `json:"horizon"`
	Tracker         int                    `json:"tracker"`
	TargetLow       float64                `json:"target_low"`
	TargetHigh      float64                `json:"target_high"`
	Recommendations []alert.Recommendation `json:"recommendations"`
}

// handleAlerts serves GET /v1/alerts from the attached engine.
func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Alerts == nil {
		writeError(w, http.StatusNotFound, "alerting not configured (no rules loaded)")
		return
	}
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	// One read of the engine: an evaluation between two would leave
	// len(Firing) != Stats.Firing in the response.
	firing, stats := s.cfg.Alerts.View()
	if firing == nil {
		firing = []alert.Active{}
	}
	writeJSON(w, AlertsResponse{
		Generation: snap.Generation(),
		Step:       snap.Steps(),
		Firing:     firing,
		Stats:      stats,
	})
}

// handleRecommendations serves GET /v1/recommendations at horizon ?h
// (default 1), tracker 0 and alert's fixed target band.
func (s *Server) handleRecommendations(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Alerts == nil {
		writeError(w, http.StatusNotFound, "alerting not configured (no rules loaded)")
		return
	}
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	h := 1
	if q := queryGet(r.URL.RawQuery, "h"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeError(w, http.StatusBadRequest, "h must be an integer")
			return
		}
		if maxH := snap.MaxHorizon(); v < 1 || v > maxH {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("h must be in [1, %d]", maxH))
			return
		}
		h = v
	}
	recs, err := alert.Recommend(snap, h)
	if err != nil {
		code := http.StatusInternalServerError
		if !snap.Ready() {
			code = http.StatusServiceUnavailable
		}
		writeError(w, code, err.Error())
		return
	}
	// Echo the horizon and band back (and tracker 0, the zero value) so
	// callers see what the deltas were computed against.
	writeJSON(w, RecommendationsResponse{
		Generation:      snap.Generation(),
		Step:            snap.Steps(),
		Horizon:         h,
		TargetLow:       alert.TargetLow,
		TargetHigh:      alert.TargetHigh,
		Recommendations: recs,
	})
}

// registerAlertMetrics binds the orcf_alert_* series to the registry, reading
// from the same staged StatsResponse as the pipeline series so one scrape
// reports one consistent engine view. Only called when an engine is attached.
func (s *Server) registerAlertMetrics() {
	astat := func(f func(*alert.Stats) float64) func() float64 {
		return func() float64 {
			st := s.staged.Load()
			if st == nil || st.Alerts == nil {
				return 0
			}
			return f(st.Alerts)
		}
	}
	s.reg.GaugeFunc("orcf_alert_rules", "Loaded alerting rules.",
		astat(func(a *alert.Stats) float64 { return float64(a.Rules) }))
	s.reg.GaugeFunc("orcf_alert_firing", "Currently firing alert instances.",
		astat(func(a *alert.Stats) float64 { return float64(a.Firing) }))
	s.reg.CounterFunc("orcf_alert_fires_total", "Alert fire transitions.",
		astat(func(a *alert.Stats) float64 { return float64(a.Fires) }))
	s.reg.CounterFunc("orcf_alert_resolves_total", "Alert resolve transitions (departures included).",
		astat(func(a *alert.Stats) float64 { return float64(a.Resolves) }))
	s.reg.CounterFunc("orcf_alert_evaluations_total", "Rule-instance evaluations with data.",
		astat(func(a *alert.Stats) float64 { return float64(a.Evaluations) }))
	s.reg.CounterFunc("orcf_alert_nan_skips_total", "Evaluations skipped on NaN forecast rows (warming members).",
		astat(func(a *alert.Stats) float64 { return float64(a.NaNSkips) }))
	s.reg.CounterFunc("orcf_alert_target_errors_total", "Evaluations skipped on rules referencing targets the snapshot lacks.",
		astat(func(a *alert.Stats) float64 { return float64(a.TargetErrors) }))
	s.reg.CounterFunc("orcf_alert_sink_deliveries_total", "Alert events durably handed to sinks.",
		astat(func(a *alert.Stats) float64 { return float64(a.Sinks.Delivered) }))
	s.reg.CounterFunc("orcf_alert_sink_retries_total", "Failed sink delivery attempts that were retried.",
		astat(func(a *alert.Stats) float64 { return float64(a.Sinks.Retries) }))
	s.reg.CounterFunc("orcf_alert_sink_drops_total", "Alert events abandoned by sinks (queue overflow or retry budget).",
		astat(func(a *alert.Stats) float64 { return float64(a.Sinks.Dropped) }))
}
