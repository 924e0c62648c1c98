// Command forecastd is the central node of the distributed deployment: it
// ingests agent measurements over TCP (pair it with cmd/nodeagent), steps
// the collection → clustering → forecasting pipeline at a fixed cadence, and
// serves forecasts and cluster state over HTTP. Queries read atomically
// swapped immutable snapshots, so any number of concurrent clients never
// contend with ingest; per-node forecasts are read off the snapshot's
// centroid forecasts plus that node's eq. (12) offset, never a fleet tensor.
//
// Usage:
//
//	forecastd -nodes 8 -ingest 127.0.0.1:7777 -http 127.0.0.1:8080 \
//	    -resources 2 -k 3 -interval 2s -horizon 48 -initial 50 -retrain 100
//
// The query plane is optional: -http "" runs the same loop as a collector
// only — no listener, no snapshot published per step (unless -rules needs
// them) — and the log is the output: joins and evictions with their slots,
// and every 25th step the K centroids per resource and the realized per-node
// transmission frequency the store has accounted (eq. 5), the central-side
// check that the agents' adaptive policies hold their budgets.
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
// By default every cluster is forecast by one pinned model family
// (sample-and-hold); -models with one name pins that family instead. With
// two or more comma-separated names a model zoo is run: every named family
// trains per (cluster, resource) cell, rolling 1-step accuracy is scored
// online, and forecasts are served by the per-cell champion, with
// challengers promoted under hysteresis (tune with -select-window,
// -select-margin, -select-streak, -select-metric; they are rejected without
// such a zoo). See the model-family table in docs/OPERATIONS.md for the
// registered names.
//
// Fleet membership is elastic: -nodes N pre-registers node IDs 0..N-1 and
// the pipeline starts stepping once all of them have reported (with
// -nodes 0 it instead starts once K distinct nodes report). Any further
// node ID heard afterwards joins the fleet online, warms up behind the
// presence mask, and serves forecasts once its look-back window fills; with
// -absence-ticks set, a member that goes silent (no measurements and no
// heartbeats) for that many pipeline ticks is evicted and its ID may later
// rejoin fresh. /v1/forecast serves 503 until the initial collection phase
// (-initial steps) has trained the models.
//
// With -state-dir the pipeline is durable: every step is appended to a
// write-ahead log, the full state is checkpointed in the background every
// -checkpoint-every steps (and on SIGTERM), and on boot the newest valid
// checkpoint is restored and the WAL tail replayed, so a restarted
// collector resumes exactly where it stopped — models, look-back window,
// and per-node frequency accounting intact. See docs/OPERATIONS.md for the
// recovery runbook.
//
// With -rules a JSON alerting rules file is loaded and every published
// snapshot is evaluated against it: threshold and trend rules over centroid
// and per-node forecasts drive firing→resolved state machines with
// hysteresis, /v1/alerts and /v1/recommendations go live, transition events
// are logged (and POSTed to -webhook when set, with bounded queue and
// retry), and the orcf_alert_* metrics are exported. See the "Alerting"
// section of docs/OPERATIONS.md for the rules format and runbook.
//
// With -debug-addr an opt-in debug server additionally exposes
// net/http/pprof profiles, expvar, a /debug/obs JSON metrics dump, and a
// /metrics mirror — see the "Profiling a hot pipeline" runbook in
// docs/OPERATIONS.md. Logs are structured (log/slog) with step and
// generation correlation fields.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"orcf/internal/alert"
	"orcf/internal/core"
	"orcf/internal/forecast"
	"orcf/internal/obs"
	"orcf/internal/persist"
	"orcf/internal/serve"
	"orcf/internal/transport"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], stop, os.Stderr))
}

// persistStats adapts persist.Manager accounting to the serving plane's
// report shape.
func persistStats(mgr *persist.Manager) serve.PersistStats {
	st := mgr.Stats()
	age := -1.0
	if !st.LastCheckpointTime.IsZero() {
		age = time.Since(st.LastCheckpointTime).Seconds()
	}
	return serve.PersistStats{
		LastCheckpointStep:       st.LastCheckpointStep,
		LastCheckpointAgeSeconds: serve.Finite64(age),
		LastCheckpointSeconds:    serve.Finite64(st.LastCheckpointDuration.Seconds()),
		Checkpoints:              st.Checkpoints,
		CheckpointErrors:         st.CheckpointErrors,
		CheckpointSecondsTotal:   serve.Finite64(st.CheckpointTime.Seconds()),
		WALRecords:               st.WALRecords,
		WALBytes:                 st.WALBytes,
		WALAppendSecondsTotal:    serve.Finite64(st.WALAppendTime.Seconds()),
		RecoveredStep:            st.RecoveredStep,
		ReplayedSteps:            st.ReplayedSteps,
	}
}

// stepSummary renders what a collector shows for a step: the K centroids of
// every resource, and the realized transmission frequency the store has
// accounted (eq. 5: accepted updates over the node's local step count) over
// the members clustered this step, in slot order.
func stepSummary(res *core.StepResult, roster *core.Roster, stats map[int]transport.NodeStat) []any {
	centroids := make([][]string, len(res.PerResource))
	for r, pr := range res.PerResource {
		for _, c := range pr.Centroids {
			centroids[r] = append(centroids[r], fmt.Sprintf("%.3f", c[0]))
		}
	}
	clustered, sum, minF, maxF := 0, 0.0, math.Inf(1), math.Inf(-1)
	for slot, present := range res.Present {
		if id, live := roster.IDAt(slot); live && present {
			f := stats[id].Frequency
			clustered++
			sum += f
			minF, maxF = math.Min(minF, f), math.Max(maxF, f)
		}
	}
	args := []any{"clustered", clustered, "centroids", fmt.Sprint(centroids)}
	if clustered > 0 {
		args = append(args, "tx_mean", sum/float64(clustered), "tx_min", minF, "tx_max", maxF)
	}
	return args
}

// run is main with its arguments, stop signal and log destination injected.
func run(args []string, stop <-chan os.Signal, logw io.Writer) int {
	fs := flag.NewFlagSet("forecastd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		ingest      = fs.String("ingest", "127.0.0.1:7777", "TCP address for node-agent ingest")
		httpAddr    = fs.String("http", "127.0.0.1:8080", "HTTP address for the query API (empty = collector only: no query plane)")
		nodes       = fs.Int("nodes", 0, "pre-registered node IDs 0..N-1 gating the first step (0 = fully elastic: start once K nodes report)")
		resources   = fs.Int("resources", 2, "measurement dimensionality d")
		k           = fs.Int("k", 3, "number of clusters / forecasting models")
		interval    = fs.Duration("interval", 2*time.Second, "pipeline step period")
		horizon     = fs.Int("horizon", 48, "maximum servable forecast horizon")
		initial     = fs.Int("initial", 50, "initial collection steps before first training")
		retrain     = fs.Int("retrain", 100, "retraining period in steps")
		seed        = fs.Uint64("seed", 1, "clustering seed")
		maxInFlight = fs.Int("max-inflight", 256, "max concurrently served HTTP requests")
		stateDir    = fs.String("state-dir", "", "directory for durable checkpoints + WAL (empty = in-memory only)")
		ckptEvery   = fs.Int("checkpoint-every", 64, "steps between background checkpoints (0 = persist default 256, negative = only on shutdown)")
		fsyncWAL    = fs.Bool("fsync-wal", false, "fsync the WAL after every step (single-step durability)")
		idleTmo     = fs.Duration("idle-timeout", 5*time.Minute, "drop agent connections silent for this long (0 = never)")
		absence     = fs.Int("absence-ticks", 0, "evict a fleet member after this many silent pipeline ticks (0 = never)")
		debugAddr   = fs.String("debug-addr", "", "optional address for the debug server (pprof, expvar, /debug/obs, /metrics); empty = disabled")
		models      = fs.String("models", "", "comma-separated model families: one pins that family, two or more run a zoo with online champion selection tuned by the -select-* flags (empty = sample-and-hold)")
		selWindow   = fs.Int("select-window", 0, "rolling accuracy window in evaluations (0 = default 64)")
		selMargin   = fs.Float64("select-margin", 0, "challenger must beat the champion by this error margin")
		selStreak   = fs.Int("select-streak", 0, "consecutive winning evaluations required to dethrone a champion (0 = default 3)")
		selMetric   = fs.String("select-metric", "", "selection metric: mae or rmse (empty = mae)")
		rulesPath   = fs.String("rules", "", "JSON alerting rules file; enables /v1/alerts and /v1/recommendations (empty = alerting disabled)")
		webhook     = fs.String("webhook", "", "URL POSTed every alert transition event (requires -rules)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// Correlation fields are passed in a fixed order (step, generation first)
	// so log lines diff cleanly across runs.
	log := slog.New(slog.NewTextHandler(logw, nil)).With("component", "forecastd")
	// Every flag is checked, and the rules file parsed, before the collector
	// listens: a bad one ends the daemon before any agent connects. Only the
	// query plane and the alert engine read snapshots (see below); the
	// snapshot horizon is the longest forecast they can ask for.
	publish := *httpAddr != "" || *rulesPath != ""
	for _, c := range []struct {
		bad bool
		msg string
	}{
		{*resources < 1, "-resources must be ≥ 1"},
		{*k < 1, "-k must be ≥ 1"},
		{*interval <= 0, "-interval must be > 0"},
		{publish && *horizon < 1, "-horizon must be ≥ 1 with -http or -rules"},
		{*maxInFlight < 0, "-max-inflight must be ≥ 0"},
		{*idleTmo < 0, "-idle-timeout must be ≥ 0"},
		{*webhook != "" && *rulesPath == "", "-webhook requires -rules"},
	} {
		if c.bad {
			log.Error(c.msg)
			return 2
		}
	}
	// Alerting: parse the rules file, attach sinks (structured log always,
	// webhook when configured), and evaluate every published snapshot from
	// the tick loop below.
	var engine *alert.Engine
	var hook *alert.WebhookSink
	if *rulesPath != "" {
		data, err := os.ReadFile(*rulesPath)
		if err != nil {
			log.Error("-rules", "err", err)
			return 2
		}
		rs, err := alert.ParseRules(data)
		if err != nil {
			log.Error("-rules", "err", err)
			return 2
		}
		sinks := []alert.Sink{alert.NewLogSink(log)}
		if *webhook != "" {
			hook, err = alert.NewWebhookSink(*webhook, alert.WebhookOptions{})
			if err != nil {
				log.Error("-webhook", "err", err)
				return 2
			}
			defer hook.Close()
			sinks = append(sinks, hook)
		}
		engine, err = alert.New(alert.Config{
			Rules: rs, Sinks: sinks, MaxHorizon: *horizon,
		})
		if err != nil {
			log.Error("alert engine construction", "err", err)
			return 2
		}
		log.Info("alerting enabled", "rules", len(rs.Rules), "webhook", *webhook != "")
	}

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)

	store := transport.NewStore()
	collector, err := transport.NewServer(store, nil)
	if err != nil {
		log.Error("ingest server", "err", err)
		return 1
	}
	collector.SetIdleTimeout(*idleTmo)
	collector.RegisterMetrics(reg)
	store.RegisterMetrics(reg)

	cfg := core.Config{
		Nodes:             *nodes,
		AbsenceTimeout:    *absence,
		Resources:         *resources,
		K:                 *k,
		InitialCollection: *initial,
		RetrainEvery:      *retrain,
		Seed:              *seed,
		Selection: forecast.SelectionConfig{
			Window: *selWindow, Margin: *selMargin,
			Streak: *selStreak, Metric: *selMetric,
		},
		PhaseObserver: serve.NewStepTimings(reg),
	}
	// Snapshots are published for their readers, the query plane and the
	// alert engine; a collector without either steps without assembling one.
	if publish {
		cfg.SnapshotHorizon = *horizon
	}
	if *models != "" {
		zoo, err := forecast.Zoo(strings.Split(*models, ",")...)
		if err != nil {
			log.Error("-models", "err", err)
			return 2
		}
		cfg.Zoo = zoo
	}
	// The pipeline is built before the collector listens, so a
	// configuration it rejects (core validates the fleet, the schedule and
	// the -select-* tuning) exits 2 before any agent connects.
	stepper, err := serve.NewStoreStepper(store, cfg)
	if err != nil {
		log.Error("pipeline construction", "err", err)
		if errors.Is(err, core.ErrBadConfig) {
			return 2
		}
		return 1
	}
	if *models != "" {
		log.Info("model zoo enabled", "families", *models)
	}
	ingestAddr, err := collector.Listen(*ingest)
	if err != nil {
		log.Error("ingest listen", "err", err)
		return 1
	}
	defer collector.Close()
	stepper.RegisterMetrics(reg)
	sys := stepper.System()

	// Durable state: recover checkpoint + WAL tail before the first tick,
	// then log every step through the stepper.
	var mgr *persist.Manager
	if *stateDir != "" {
		mgr, err = persist.New(sys, cfg, persist.Options{
			Dir:             *stateDir,
			CheckpointEvery: *ckptEvery,
			Fsync:           *fsyncWAL,
		})
		if err != nil {
			log.Error("persistence setup", "err", err)
			return 1
		}
		info, err := mgr.Recover(stepper.Replay)
		if err != nil {
			log.Error("recovery", "err", err)
			return 1
		}
		defer mgr.Close()
		stepper.SetLog(mgr)
		switch {
		case info.Steps == 0:
			log.Info("state dir empty; starting fresh", "state_dir", *stateDir)
		default:
			log.Info("recovered durable state",
				"step", info.Steps, "checkpoint_step", info.CheckpointStep,
				"replayed_steps", info.ReplayedSteps, "torn_tail", info.TornTail,
				"members", fmt.Sprint(sys.Members()))
		}
	}

	// The query plane, unless -http "" asks for a collector only.
	var query *serve.Server
	var hs *http.Server
	var httpDone chan error // stays nil, and never ready, without a query plane
	listenAddr := ""
	if *httpAddr != "" {
		serveCfg := serve.Config{
			Source:      sys,
			MaxInFlight: *maxInFlight,
			Registry:    reg,
		}
		if mgr != nil {
			serveCfg.PersistStats = func() serve.PersistStats { return persistStats(mgr) }
		}
		if engine != nil {
			serveCfg.Alerts = engine
		}
		if query, err = serve.New(serveCfg); err != nil {
			log.Error("query server construction", "err", err)
			return 1
		}
		ln, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			log.Error("http listen", "err", err)
			return 1
		}
		listenAddr = ln.Addr().String()
		hs = &http.Server{Handler: query}
		httpDone = make(chan error, 1)
		go func() { httpDone <- hs.Serve(ln) }()
	}

	var ds *http.Server
	if *debugAddr != "" {
		if ds, err = obs.ServeDebug(*debugAddr, reg, log); err != nil {
			log.Error("debug listen", "err", err)
			return 1
		}
	}

	log.Info("listening",
		"ingest", ingestAddr, "http", listenAddr,
		"nodes", *nodes, "resources", *resources, "k", *k,
		"horizon", *horizon, "interval", *interval)

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()

	// checkpoint=false on a step error: the pipeline state is undefined then
	// and must not be made durable — the state dir keeps the last good
	// checkpoint + WAL instead.
	shutdown := func(checkpoint bool) int {
		log.Info("shutting down")
		if mgr != nil && checkpoint {
			if err := mgr.Checkpoint(); err != nil {
				log.Error("final checkpoint", "err", err)
			} else {
				log.Info("final checkpoint written", "step", sys.Steps())
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if hs != nil {
			if err := hs.Shutdown(ctx); err != nil {
				log.Error("http shutdown", "err", err)
			}
		}
		if ds != nil {
			if err := ds.Shutdown(ctx); err != nil {
				log.Error("debug shutdown", "err", err)
			}
		}
		if err := collector.Close(); err != nil {
			log.Error("collector close", "err", err)
		}
		return 0
	}

	wasReady := false
	for {
		select {
		case <-stop:
			return shutdown(true)
		case err := <-httpDone:
			log.Error("http server", "err", err)
			return 1
		case <-ticker.C:
			before := sys.Roster()
			res, ok, err := stepper.Tick()
			if err != nil {
				// A step error leaves the pipeline in an undefined state; the
				// system must be discarded rather than stepped further.
				log.Error("pipeline step", "err", err)
				_ = shutdown(false)
				return 1
			}
			if !ok {
				log.Info("waiting for bootstrap gate", "reporting", store.Len())
				continue
			}
			gen := uint64(0)
			if snap := sys.Snapshot(); snap != nil {
				gen = snap.Generation()
				if engine != nil {
					if _, err := engine.Evaluate(snap); err != nil {
						log.Error("alert evaluation", "step", res.T, "generation", gen, "err", err)
					}
				}
			}
			roster := sys.Roster()
			if roster != before { // one immutable value until membership changes
				for slot := 0; slot < roster.Slots(); slot++ {
					id, live := roster.IDAt(slot)
					if _, was := before.SlotOf(id); live && !was {
						log.Info("joined node", "step", res.T, "generation", gen, "node", id, "slot", slot)
					}
				}
			}
			for _, id := range res.Evicted {
				log.Info("evicted node",
					"step", res.T, "generation", gen, "node", id, "silent_ticks", *absence)
			}
			if sys.Ready() && !wasReady {
				wasReady = true
				log.Info("models trained", "step", res.T, "generation", gen)
			}
			if res.T%25 == 0 {
				line := []any{
					"step", res.T, "generation", gen, "ready", sys.Ready(),
					"live_nodes", sys.LiveNodes(), "evictions", sys.Evictions(),
					"mean_freq", sys.MeanFrequency(),
				}
				line = append(line, stepSummary(res, roster, store.Stats())...)
				if query != nil {
					st := query.Stats()
					line = append(line, "cache_hit_ratio", st.Cache.HitRatio, "requests", st.Requests.Total)
				}
				log.Info("pipeline step", line...)
			}
		}
	}
}
