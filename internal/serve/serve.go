// Package serve is the forecast query-serving plane: an HTTP/JSON API over a
// live core.System. It reads exclusively through the system's published
// snapshots (core.Snapshot — immutable, swapped atomically once per step), so
// any number of concurrent queries proceed without contending with the
// ingest/step hot path. Forecasts are never materialised as a fleet tensor:
// eq. (12) makes a node's forecast its cluster's centroid forecast (computed
// once per generation, at publish) plus that node's offset, so ?node=I is
// answered from that node's look-back alone, and a fleet response is streamed
// value by value from the snapshot's forecast plan, which is built at most
// once per generation however many requests ask.
//
// Endpoints:
//
//	GET /v1/forecast?h=H[&node=I]  per-node forecasts for horizons 1..H
//	GET /v1/nodes/{id}             latest measurement, memberships, frequency
//	GET /v1/clusters               centroids per tracker
//	GET /v1/models                 model-zoo champions and rolling accuracy
//	GET /v1/alerts                 firing alert instances + engine accounting
//	GET /v1/recommendations        forecast-driven per-cluster scaling deltas
//	GET /v1/stats                  pipeline + forecast-plan + request statistics
//	GET /metrics                   Prometheus text format
//
// cmd/forecastd composes this with the TCP collection plane into a runnable
// central node.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"orcf/internal/alert"
	"orcf/internal/core"
	"orcf/internal/obs"
)

// ErrBadConfig reports an invalid server configuration.
var ErrBadConfig = errors.New("serve: invalid configuration")

// Source provides the snapshots the server reads. *core.System satisfies it.
type Source interface {
	Snapshot() *core.Snapshot
}

// SourceFunc adapts a function to the Source interface.
type SourceFunc func() *core.Snapshot

// Snapshot implements Source.
func (f SourceFunc) Snapshot() *core.Snapshot { return f() }

// Config assembles a Server.
type Config struct {
	// Source supplies snapshots; required. Its Snapshot method must be safe
	// for concurrent use (core.System's is).
	Source Source
	// MaxInFlight caps concurrently served requests; excess requests are
	// rejected immediately with 503. Zero means 256.
	MaxInFlight int
	// PersistStats, when non-nil, supplies durability accounting (from
	// persist.Manager.Stats via an adapter) that /v1/stats and /metrics
	// report alongside the pipeline statistics. Must be safe for concurrent
	// use. Nil means the deployment has no durable state.
	PersistStats func() PersistStats
	// Registry is the metrics registry /metrics renders. Nil means the
	// server creates a private one. Pass the process's registry to expose
	// transport, persist, and step-phase series alongside the server's own;
	// a registry can host at most one Server (series names are unique).
	Registry *obs.Registry
	// Alerts, when non-nil, attaches an alert engine: /v1/alerts and
	// /v1/recommendations serve from it, /v1/stats reports its accounting,
	// and the orcf_alert_* series are registered. Nil leaves both endpoints
	// answering 404. The engine must be evaluated by the caller (cmd/
	// forecastd's tick loop does); the server only reads.
	Alerts *alert.Engine
}

// PersistStats is the durability accounting the server reports when a
// checkpoint/WAL plane is attached (see Config.PersistStats): the part of
// persist.Stats that /v1/stats and /metrics show, in their units.
type PersistStats struct {
	// LastCheckpointStep is the pipeline step of the newest durable
	// checkpoint (0 before the first).
	LastCheckpointStep int64 `json:"last_checkpoint_step"`
	// LastCheckpointAgeSeconds is how long ago it completed (-1 before the
	// first checkpoint of this process).
	LastCheckpointAgeSeconds float64 `json:"last_checkpoint_age_seconds"`
	// LastCheckpointSeconds is how long the newest durable checkpoint took
	// to encode and write (0 before the first).
	LastCheckpointSeconds float64 `json:"last_checkpoint_seconds"`
	// Checkpoints counts durably completed checkpoints this process.
	Checkpoints int64 `json:"checkpoints"`
	// CheckpointErrors counts failed checkpoint attempts.
	CheckpointErrors int64 `json:"checkpoint_errors"`
	// CheckpointSecondsTotal is cumulative wall time spent encoding and
	// durably writing checkpoints (background-goroutine time).
	CheckpointSecondsTotal float64 `json:"checkpoint_seconds_total"`
	// WALRecords counts step records appended this process.
	WALRecords int64 `json:"wal_records"`
	// WALBytes counts bytes appended to the WAL this process.
	WALBytes int64 `json:"wal_bytes"`
	// WALAppendSecondsTotal is cumulative stepping-goroutine time spent
	// appending WAL records — the WAL's direct cost to the ingest loop.
	WALAppendSecondsTotal float64 `json:"wal_append_seconds_total"`
	// RecoveredStep is the step the pipeline resumed from at boot (0 for a
	// fresh start).
	RecoveredStep int64 `json:"recovered_step"`
	// ReplayedSteps is how many WAL records boot recovery replayed.
	ReplayedSteps int64 `json:"replayed_steps"`
}

// Server is the query plane. It implements http.Handler and is safe for
// concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	cache planCounter
	reg   *obs.Registry

	requests atomic.Int64
	rejected atomic.Int64
	// staged holds the StatsResponse taken at the start of the current
	// metrics collection pass, so every registered series reads one
	// consistent view (see registerMetrics).
	staged atomic.Pointer[StatsResponse]
}

// New validates the configuration and builds the server.
func New(cfg Config) (*Server, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("serve: nil source: %w", ErrBadConfig)
	}
	if cfg.MaxInFlight < 0 {
		return nil, fmt.Errorf("serve: negative limit: %w", ErrBadConfig)
	}
	if cfg.MaxInFlight == 0 {
		cfg.MaxInFlight = 256
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	obs.RegisterBuildInfo(reg)
	s := &Server{
		cfg: cfg,
		mux: http.NewServeMux(),
		sem: make(chan struct{}, cfg.MaxInFlight),
		reg: reg,
	}
	s.registerMetrics()
	if cfg.Alerts != nil {
		s.registerAlertMetrics()
	}
	s.mux.HandleFunc("GET /v1/forecast", timed(s.endpointHistogram("orcf_http_forecast_seconds", "/v1/forecast"), s.handleForecast))
	s.mux.HandleFunc("GET /v1/nodes/{id}", timed(s.endpointHistogram("orcf_http_node_seconds", "/v1/nodes/{id}"), s.handleNode))
	s.mux.HandleFunc("GET /v1/clusters", timed(s.endpointHistogram("orcf_http_clusters_seconds", "/v1/clusters"), s.handleClusters))
	s.mux.HandleFunc("GET /v1/models", timed(s.endpointHistogram("orcf_http_models_seconds", "/v1/models"), s.handleModels))
	s.mux.HandleFunc("GET /v1/alerts", timed(s.endpointHistogram("orcf_http_alerts_seconds", "/v1/alerts"), s.handleAlerts))
	s.mux.HandleFunc("GET /v1/recommendations", timed(s.endpointHistogram("orcf_http_recommendations_seconds", "/v1/recommendations"), s.handleRecommendations))
	s.mux.HandleFunc("GET /v1/stats", timed(s.endpointHistogram("orcf_http_stats_seconds", "/v1/stats"), s.handleStats))
	s.mux.HandleFunc("GET /metrics", timed(s.endpointHistogram("orcf_http_metrics_seconds", "/metrics"), s.handleMetrics))
	return s, nil
}

// Registry returns the metrics registry /metrics renders, so callers can
// attach further series (transport, persist, step timings) to the same
// exposition.
func (s *Server) Registry() *obs.Registry { return s.reg }

// ServeHTTP dispatches one request under the concurrency limit: requests
// beyond MaxInFlight are rejected immediately with 503 + Retry-After rather
// than queued, keeping tail latency bounded under overload.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
		s.mux.ServeHTTP(w, r)
	default:
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "concurrency limit reached")
	}
}

// ForecastResponse is the /v1/forecast payload. Forecast is indexed
// [horizon][entry][resource], where entry e is the forecast of the node
// whose stable ID is Nodes[e] — members still warming up behind the
// presence mask (and tombstoned slots) are omitted, so entries track fleet
// membership across churn. With ?node= it holds exactly one entry per
// horizon and Node records which member. The handler streams this shape
// without building it (see writeForecast); the struct is what clients decode
// into.
type ForecastResponse struct {
	Generation uint64        `json:"generation"`
	Step       int           `json:"step"`
	Horizon    int           `json:"horizon"`
	Node       *int          `json:"node,omitempty"`
	Nodes      []int         `json:"nodes,omitempty"`
	Forecast   [][][]float64 `json:"forecast"`
}

// NodeResponse is the /v1/nodes/{id} payload, addressed by stable node ID
// (IDs survive fleet churn; dense slots do not). Clusters holds the node's
// current cluster index per tracker (-1 entries while warming up). Status
// is "active" once the member participates in clustering and serves
// forecasts, "warming" from join until its first stored measurement enters
// the look-back window. WindowFill counts the look-back steps the member
// was present at.
type NodeResponse struct {
	Generation  uint64    `json:"generation"`
	Step        int       `json:"step"`
	Node        int       `json:"node"`
	Status      string    `json:"status"`
	WindowFill  int       `json:"window_fill"`
	Measurement []float64 `json:"measurement,omitempty"`
	Clusters    []int     `json:"clusters"`
	Frequency   float64   `json:"frequency"`
}

// TrackerClusters is one tracker's centroid set.
type TrackerClusters struct {
	Tracker   int         `json:"tracker"`
	Centroids [][]float64 `json:"centroids"`
}

// ClustersResponse is the /v1/clusters payload.
type ClustersResponse struct {
	Generation uint64            `json:"generation"`
	Step       int               `json:"step"`
	Trackers   []TrackerClusters `json:"trackers"`
}

// CandidateStatus is one zoo candidate's rolling accuracy inside a selection
// cell (see forecast.CandidateAccuracy).
type CandidateStatus struct {
	Name   string  `json:"name"`
	MAE    float64 `json:"mae"`
	RMSE   float64 `json:"rmse"`
	Evals  int64   `json:"evals"`
	Streak int     `json:"streak"`
}

// CellModels is the champion/challenger state of one (cluster, dim) cell.
type CellModels struct {
	Cluster    int               `json:"cluster"`
	Dim        int               `json:"dim"`
	Champion   string            `json:"champion"`
	Switches   int               `json:"switches"`
	Candidates []CandidateStatus `json:"candidates"`
}

// TrackerModels is one tracker's selection state.
type TrackerModels struct {
	Tracker       int          `json:"tracker"`
	SwitchesTotal int          `json:"switches_total"`
	Cells         []CellModels `json:"cells"`
}

// ModelsResponse is the /v1/models payload. Mode is "zoo" when the pipeline
// runs a model zoo of two or more families with online champion/challenger
// selection, else "single" (one family: a one-candidate core.Config.Zoo, or
// the empty zoo's sample-and-hold; Families, selection tuning, and Trackers
// are then empty — the snapshot does not record the family's name).
type ModelsResponse struct {
	Generation    uint64          `json:"generation"`
	Step          int             `json:"step"`
	Mode          string          `json:"mode"`
	Families      []string        `json:"families,omitempty"`
	Window        int             `json:"window,omitempty"`
	Streak        int             `json:"streak,omitempty"`
	Margin        float64         `json:"margin,omitempty"`
	Metric        string          `json:"metric,omitempty"`
	SwitchesTotal int             `json:"switches_total"`
	Trackers      []TrackerModels `json:"trackers,omitempty"`
}

// ModelStats is the /v1/stats model-zoo block (nil when one family is
// pinned, including a one-family zoo).
type ModelStats struct {
	// Families lists the candidate family names in zoo order.
	Families []string `json:"families"`
	// ChampionSwitchesTotal counts champion promotions across all trackers
	// and (cluster, dim) cells.
	ChampionSwitchesTotal int `json:"champion_switches_total"`
	// EvaluationsTotal counts scored 1-step forecasts across all trackers,
	// cells, and candidates.
	EvaluationsTotal int64 `json:"evaluations_total"`
}

// RequestStats reports cumulative request accounting.
type RequestStats struct {
	Total    int64 `json:"total"`
	Rejected int64 `json:"rejected"`
}

// StatsResponse is the /v1/stats payload.
type StatsResponse struct {
	Generation      uint64        `json:"generation"`
	Step            int           `json:"step"`
	Ready           bool          `json:"ready"`
	Nodes           int           `json:"nodes"`
	Slots           int           `json:"slots"`
	Evictions       uint64        `json:"evictions"`
	Resources       int           `json:"resources"`
	Clusters        int           `json:"clusters"`
	MaxHorizon      int           `json:"max_horizon"`
	MeanFrequency   float64       `json:"mean_frequency"`
	TrainingRuns    int           `json:"training_runs"`
	TrainingSeconds float64       `json:"training_seconds"`
	Cache           CacheStats    `json:"cache"`
	Requests        RequestStats  `json:"requests"`
	Persist         *PersistStats `json:"persist,omitempty"`
	Models          *ModelStats   `json:"models,omitempty"`
	Alerts          *alert.Stats  `json:"alerts,omitempty"`
}

// Stats assembles the current statistics (what /v1/stats serves).
func (s *Server) Stats() StatsResponse {
	st := StatsResponse{
		Cache:    s.cache.stats(),
		Requests: RequestStats{Total: s.requests.Load(), Rejected: s.rejected.Load()},
	}
	if s.cfg.PersistStats != nil {
		p := s.cfg.PersistStats()
		st.Persist = &p
	}
	if s.cfg.Alerts != nil {
		a := s.cfg.Alerts.Stats()
		st.Alerts = &a
	}
	if snap := s.cfg.Source.Snapshot(); snap != nil {
		st.Generation = snap.Generation()
		st.Step = snap.Steps()
		st.Ready = snap.Ready()
		st.Nodes = snap.LiveNodes()
		st.Slots = snap.Nodes()
		st.Evictions = snap.Evictions()
		st.Resources = snap.Resources()
		st.Clusters = snap.Clusters()
		st.MaxHorizon = snap.MaxHorizon()
		st.MeanFrequency = Finite64(snap.MeanFrequency())
		d, runs := snap.TrainingTime()
		st.TrainingRuns = runs
		st.TrainingSeconds = Finite64(d.Seconds())
		if sel := snap.ModelSelection(0); sel != nil {
			ms := &ModelStats{Families: sel.Families}
			for tr := 0; tr < snap.Trackers(); tr++ {
				if si := snap.ModelSelection(tr); si != nil {
					ms.ChampionSwitchesTotal += si.SwitchTotal
					ms.EvaluationsTotal += si.Evaluations
				}
			}
			st.Models = ms
		}
	}
	return st
}

// snapshotOr503 fetches the latest snapshot, writing a 503 when none has
// been published yet.
func (s *Server) snapshotOr503(w http.ResponseWriter) *core.Snapshot {
	snap := s.cfg.Source.Snapshot()
	if snap == nil {
		writeError(w, http.StatusServiceUnavailable, "no snapshot published yet")
	}
	return snap
}

func (s *Server) handleNode(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	node, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("node %q unknown", r.PathValue("id")))
		return
	}
	slot, ok := snap.SlotOf(node)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("node %q unknown", r.PathValue("id")))
		return
	}
	clusters := make([]int, snap.Trackers())
	for tr := range clusters {
		clusters[tr] = snap.Assignment(tr, slot)
	}
	status := "active"
	fill := snap.WindowFill(slot)
	if fill == 0 {
		status = "warming"
	}
	writeJSON(w, NodeResponse{
		Generation:  snap.Generation(),
		Step:        snap.Steps(),
		Node:        node,
		Status:      status,
		WindowFill:  fill,
		Measurement: FiniteRow(snap.Latest(slot)),
		Clusters:    clusters,
		Frequency:   Finite64(snap.Frequency(slot)),
	})
}

func (s *Server) handleClusters(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	trackers := make([]TrackerClusters, snap.Trackers())
	for tr := range trackers {
		trackers[tr] = TrackerClusters{Tracker: tr, Centroids: FiniteRows(snap.Centroids(tr))}
	}
	writeJSON(w, ClustersResponse{
		Generation: snap.Generation(),
		Step:       snap.Steps(),
		Trackers:   trackers,
	})
}

func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	snap := s.snapshotOr503(w)
	if snap == nil {
		return
	}
	resp := ModelsResponse{
		Generation: snap.Generation(),
		Step:       snap.Steps(),
		Mode:       "single",
	}
	if sel := snap.ModelSelection(0); sel != nil {
		resp.Mode = "zoo"
		resp.Families = sel.Families
		resp.Window = sel.Window
		resp.Streak = sel.Streak
		resp.Margin = Finite64(sel.Margin)
		resp.Metric = sel.Metric
		resp.Trackers = make([]TrackerModels, snap.Trackers())
		for tr := range resp.Trackers {
			si := snap.ModelSelection(tr)
			tm := TrackerModels{Tracker: tr, SwitchesTotal: si.SwitchTotal}
			for j, row := range si.Cells {
				for d, cell := range row {
					cm := CellModels{
						Cluster:    j,
						Dim:        d,
						Champion:   cell.Champion,
						Switches:   cell.Switches,
						Candidates: make([]CandidateStatus, len(cell.Candidates)),
					}
					for c, ca := range cell.Candidates {
						cm.Candidates[c] = CandidateStatus{
							Name:   ca.Name,
							MAE:    Finite64(ca.MAE),
							RMSE:   Finite64(ca.RMSE),
							Evals:  ca.Evals,
							Streak: ca.Streak,
						}
					}
					tm.Cells = append(tm.Cells, cm)
				}
			}
			resp.Trackers[tr] = tm
			resp.SwitchesTotal += si.SwitchTotal
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.Stats())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// queryGet returns what url.ParseQuery(raw).Get(key) returns — the first
// well-formed value of key, unescaped, or "" — without building the map.
// Segments are split at '&'; one containing ';', or whose key or value does
// not unescape, is skipped as ParseQuery skips it. Only an escaped key or
// value allocates.
func queryGet(raw, key string) string {
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if seg == "" || strings.Contains(seg, ";") {
			continue
		}
		k, v, _ := strings.Cut(seg, "=")
		if k, ok := queryUnescape(k); !ok || k != key {
			continue
		}
		if v, ok := queryUnescape(v); ok {
			return v
		}
	}
	return ""
}

// queryUnescape is url.QueryUnescape, returning s itself when it holds no
// escape.
func queryUnescape(s string) (string, bool) {
	if !strings.ContainsAny(s, "%+") {
		return s, true
	}
	u, err := url.QueryUnescape(s)
	return u, err == nil
}
