// Command nodeagent simulates one (or several) local machines: it replays a
// synthetic utilization trace through the adaptive transmission policy and
// streams the surviving measurements to a forecastd instance over TCP.
//
// Usage:
//
//	nodeagent -collector 127.0.0.1:7777 -node 0 -count 8 -budget 0.3 -tick 100ms
//
// runs agents for nodes 0..7, each with an independent trace column and its
// own Lyapunov policy instance.
//
// Measurements coalesce into frames flushed by -batch size or the -linger
// interval, the bounded -queue surfaces backpressure instead of blocking,
// and the local step clock rides along so the collector's eq. 5 accounting
// stays exact. An agent outlives its collector: when the connection dies it
// redials with jittered backoff, counting the steps in between as
// suppressed, and reports how often it reconnected when it finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"orcf/internal/agent"
	"orcf/internal/trace"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its arguments and output streams injected. It exits 2 on
// a flag that no policy or agent can be built with.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("nodeagent", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		collector = fs.String("collector", "127.0.0.1:7777", "forecastd ingest address")
		firstNode = fs.Int("node", 0, "first node id")
		count     = fs.Int("count", 1, "number of agents to run")
		budget    = fs.Float64("budget", 0.3, "transmission frequency budget B")
		tick      = fs.Duration("tick", 100*time.Millisecond, "measurement period")
		steps     = fs.Int("steps", 0, "stop after this many steps (0 = run forever)")
		seed      = fs.Uint64("seed", 1, "trace seed (shared across agents)")
		batch     = fs.Int("batch", transport.DefaultBatchSize, "records per batch flush")
		linger    = fs.Duration("linger", transport.DefaultLinger, "max batching delay (also the heartbeat cadence)")
		queue     = fs.Int("queue", transport.DefaultMaxPending, "bounded send queue (backpressure past it)")
		compress  = fs.Bool("compress", false, "DEFLATE-compress batch bodies")
		writeTmo  = fs.Duration("write-deadline", transport.DefaultWriteTimeout, "per-write network deadline (also bounds each dial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *count < 1 {
		fmt.Fprintln(stderr, "nodeagent: -count must be ≥ 1")
		return 2
	}

	// One shared trace: agent i replays column firstNode+i, looping if it
	// outruns the generated length.
	genSteps := *steps
	if genSteps == 0 {
		genSteps = 5000
	}
	ds, err := trace.GoogleLike().Generate(*firstNode+*count, genSteps, *seed)
	if err != nil {
		fmt.Fprintln(stderr, "nodeagent:", err)
		return 1
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(stop)
	go func() { // ends with run: the deferred cancel closes ctx.Done
		select {
		case <-stop:
		case <-ctx.Done():
		}
		cancel()
	}()

	var wg sync.WaitGroup
	errs := make(chan error, *count)
	opts := transport.BatchOptions{
		BatchSize:    *batch,
		Linger:       *linger,
		MaxPending:   *queue,
		WriteTimeout: *writeTmo,
		Compress:     *compress,
	}

	code := 0
	for i := 0; i < *count; i++ {
		node := *firstNode + i
		// Lazily dialed: a collector that is not up yet is an outage to ride
		// out like any other, not a start-up failure.
		client := transport.NewReconnectingClient(*collector, node, opts)
		policy, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: *budget})
		var a *agent.Agent
		if err == nil {
			rows := make([][]float64, ds.Steps())
			for s := 0; s < ds.Steps(); s++ {
				rows[s] = ds.At(s, node)
			}
			a, err = agent.New(agent.Config{
				Node:     node,
				Policy:   policy,
				Source:   agent.LoopSource(rows),
				Sender:   client,
				Interval: *tick,
				MaxSteps: *steps,
			})
		}
		if err != nil {
			fmt.Fprintf(stderr, "nodeagent: node %d: %v\n", node, err)
			_ = client.Close()
			cancel()
			code = 2
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := a.Run(ctx)
			// Close after the run so the client flushes its pending batch
			// and final clock before the process exits.
			if cerr := client.Close(); cerr != nil && err == nil {
				err = cerr
			}
			if err != nil {
				errs <- err
				cancel()
				return
			}
			fmt.Fprintf(stdout, "node %d: done after %d steps, frequency %.3f (budget %.2f, %d backpressure/outage drops, %d reconnects)\n",
				node, a.Steps(), a.Frequency(), *budget, a.Dropped(), client.Reconnects())
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Fprintln(stderr, "nodeagent:", err)
		return 1
	}
	return code
}
