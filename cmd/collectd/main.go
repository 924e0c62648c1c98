// Command collectd is the standalone central collector: it listens for node
// agents over TCP, steps the collection → clustering pipeline on the latest
// measurement per node at a fixed cadence (the serve.StoreStepper loop
// cmd/forecastd runs, with no query API), and logs the K centroids per
// resource plus the realized per-node transmission frequency the store has
// accounted (eq. 5) — the central-side check that the agents' adaptive
// policies hold their budgets.
//
// Usage (pair it with cmd/nodeagent instances):
//
//	collectd -listen 127.0.0.1:7777 -k 3 -resources 2 -interval 2s
//
// Fleet membership is elastic: stepping starts once K nodes have reported,
// a newly heard node joins at the next tick without disturbing existing
// cluster identities, and with -absence-ticks a node silent (no measurements,
// no heartbeats) for that many ticks is evicted; a later rejoin starts fresh.
//
// With -state-dir the pipeline is durable exactly as forecastd's is: every
// tick goes to a write-ahead log, the state is checkpointed in the
// background and on SIGTERM, and boot restores the newest valid checkpoint
// and replays the WAL tail — roster, cluster identities and RNG position
// survive a restart. -debug-addr is the way to watch it: pprof, expvar,
// /debug/obs and /metrics with the ingest and store series.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"orcf/internal/core"
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

// logFrequencies reports the realized transmission frequency the store has
// accounted per node (eq. 5: accepted updates over the node's local step
// count): mean/min/max, plus each value for small fleets, in slot order.
func logFrequencies(log *slog.Logger, tick int, nodes []int, stats map[int]transport.NodeStat) {
	mean, minF, maxF := 0.0, math.Inf(1), math.Inf(-1)
	for _, id := range nodes {
		f := stats[id].Frequency
		mean += f
		minF = math.Min(minF, f)
		maxF = math.Max(maxF, f)
	}
	args := []any{"tick", tick, "mean", mean / float64(len(nodes)), "min", minF, "max", maxF}
	if len(nodes) <= 16 {
		per := make([]string, len(nodes))
		for i, id := range nodes {
			per[i] = fmt.Sprintf("%d:%.2f", id, stats[id].Frequency)
		}
		args = append(args, "per_node", strings.Join(per, " "))
	}
	log.Info("transmit frequencies", args...)
}

// run is main with its arguments, stop signal and log destination injected.
func run(args []string, stop <-chan os.Signal, logw io.Writer) int {
	fs := flag.NewFlagSet("collectd", flag.ContinueOnError)
	fs.SetOutput(logw)
	var (
		listen    = fs.String("listen", "127.0.0.1:7777", "address to listen on")
		k         = fs.Int("k", 3, "number of clusters")
		resources = fs.Int("resources", 2, "measurement dimensionality")
		interval  = fs.Duration("interval", 2*time.Second, "clustering/reporting period")
		seed      = fs.Uint64("seed", 1, "clustering seed")
		stateDir  = fs.String("state-dir", "", "directory for durable checkpoints + WAL (empty = in-memory only)")
		idleTmo   = fs.Duration("idle-timeout", 5*time.Minute, "drop agent connections silent for this long (0 = never)")
		absence   = fs.Int("absence-ticks", 0, "evict a node after this many silent ticks (0 = never)")
		debugAddr = fs.String("debug-addr", "", "optional address for the debug server (pprof, expvar, /debug/obs, /metrics); empty = disabled")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	log := slog.New(slog.NewTextHandler(logw, nil)).With("component", "collectd")

	reg := obs.NewRegistry()
	obs.RegisterBuildInfo(reg)
	store := transport.NewStore()
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		log.Error("ingest server", "err", err)
		return 1
	}
	srv.SetIdleTimeout(*idleTmo)
	srv.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Error("listen", "err", err)
		return 1
	}
	defer srv.Close()

	cfg := core.Config{AbsenceTimeout: *absence, Resources: *resources, K: *k, Seed: *seed}
	stepper, err := serve.NewStoreStepper(store, cfg)
	if err != nil {
		log.Error("pipeline construction", "err", err)
		return 1
	}
	sys := stepper.System()

	var mgr *persist.Manager
	if *stateDir != "" {
		if mgr, err = persist.New(sys, cfg, persist.Options{Dir: *stateDir}); err != nil {
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
		log.Info("recovered durable state", "step", info.Steps,
			"checkpoint_step", info.CheckpointStep, "replayed_steps", info.ReplayedSteps,
			"torn_tail", info.TornTail, "members", fmt.Sprint(sys.Members()))
	}

	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, reg, log)
		if err != nil {
			log.Error("debug listen", "err", err)
			return 1
		}
		defer ds.Close()
	}
	log.Info("listening", "addr", addr, "k", *k)

	ticker := time.NewTicker(*interval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			log.Info("shutting down")
			if mgr != nil {
				if err := mgr.Checkpoint(); err != nil {
					log.Error("final checkpoint", "err", err)
				} else {
					log.Info("final checkpoint written", "step", sys.Steps())
				}
			}
			return 0
		case <-ticker.C:
			before := sys.Roster()
			res, ok, err := stepper.Tick()
			if err != nil {
				// The state is undefined now: keep the last good checkpoint + WAL.
				log.Error("pipeline tick", "err", err)
				return 1
			}
			if !ok {
				log.Info("waiting for quorum", "reporting", store.Len(), "k", *k)
				continue
			}
			roster := sys.Roster()
			var nodes []int // members clustered this tick, in slot order
			for slot, present := range res.Present {
				id, live := roster.IDAt(slot)
				if _, was := before.SlotOf(id); live && !was {
					log.Info("joined node", "tick", res.T, "node", id, "slot", slot)
				}
				if live && present {
					nodes = append(nodes, id)
				}
			}
			for _, id := range res.Evicted {
				log.Info("evicted node", "tick", res.T, "node", id, "silent_ticks", *absence)
			}
			for r, pr := range res.PerResource {
				cents := make([]string, len(pr.Centroids))
				for i, c := range pr.Centroids {
					cents[i] = fmt.Sprintf("%.3f", c[0])
				}
				log.Info("clustering", "tick", res.T, "resource", r,
					"nodes", len(nodes), "centroids", strings.Join(cents, " "))
			}
			if len(nodes) > 0 {
				logFrequencies(log, res.T, nodes, store.Stats())
			}
		}
	}
}
