// Command loadgen proves the transport v2 throughput claim at fleet scale:
// it simulates a large fleet of node agents in-process — by default 10,000
// nodes multiplexed over a configurable number of TCP connections, the way
// per-rack aggregators would deploy — each filtering a synthetic trace
// through its own adaptive transmission policy (§V-A), and streams the
// surviving measurements to an in-process collector with the batched v2
// framing.
//
// While sending, it maintains the exact serial expectation (what a store
// fed directly, one measurement at a time, would contain), and at the end
// verifies the collector's store against it bit-for-bit: every node
// present, accepted-update counts equal, latest steps and values identical,
// and zero protocol errors. It prints delivered messages/second.
//
// With -churn λ the fleet is elastic: membership rolls with a Poisson
// process — each step draws Poisson(λ) joins (fresh node IDs) and
// Poisson(λ) leaves (random active members disconnect mid-run) — which is
// the collection-plane shape of autoscaled fleets, rolling reprovisioning,
// and spot instances. The churn schedule is precomputed deterministically
// from -churn-seed, so the serial expectation (and the bit-for-bit store
// verification) covers every node that ever lived, including ones long
// departed by the end of the run.
//
// Usage:
//
//	loadgen -nodes 10000 -conns 64 -steps 30 -budget 0.3 -batch 64
//	loadgen -nodes 10000 -conns 64 -steps 60 -churn 50
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"orcf/internal/transmit"
	"orcf/internal/transport"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// value is the deterministic synthetic utilization of (node, step,
// resource) — cheap enough for 10k nodes without pre-generating a trace.
func value(node, step, r int) float64 {
	return 0.5 + 0.4*math.Sin(float64(step)/9+float64(node)*0.7+float64(r)*1.3)
}

// run is main with its arguments and output streams injected.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes     = fs.Int("nodes", 10000, "fleet size")
		conns     = fs.Int("conns", 64, "TCP connections (nodes are multiplexed across them)")
		steps     = fs.Int("steps", 30, "local steps per node")
		resources = fs.Int("resources", 2, "measurement dimensionality")
		budget    = fs.Float64("budget", 0.3, "per-node transmission frequency budget B")
		batch     = fs.Int("batch", transport.DefaultBatchSize, "records per batch flush")
		linger    = fs.Duration("linger", 5*time.Millisecond, "max batching delay")
		compress  = fs.Bool("compress", false, "DEFLATE-compress batch bodies")
		idle      = fs.Duration("idle-timeout", time.Minute, "collector idle read deadline")
		churn     = fs.Float64("churn", 0, "expected Poisson joins (and leaves) per step — rolls fleet membership mid-run (0 = static fleet)")
		churnSeed = fs.Uint64("churn-seed", 1, "seed of the deterministic churn schedule")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *nodes < 1 || *conns < 1 || *conns > *nodes || *steps < 1 || *churn < 0 {
		fmt.Fprintln(stderr, "loadgen: need nodes ≥ conns ≥ 1, steps ≥ 1, churn ≥ 0")
		return 2
	}

	// Node lifespans: node n is active at steps [birth[n], death[n]). A
	// static fleet lives the whole run; with -churn the schedule is rolled
	// in advance by a deterministic Poisson process, so workers need no
	// coordination and the serial expectation stays exact.
	birth := make([]int, *nodes)
	death := make([]int, *nodes)
	for n := range birth {
		birth[n], death[n] = 1, *steps+1
	}
	joins, leaves := 0, 0
	if *churn > 0 {
		rng := rand.New(rand.NewPCG(*churnSeed, 0xC0FFEE))
		active := make([]int, *nodes)
		for n := range active {
			active[n] = n
		}
		for step := 2; step <= *steps; step++ {
			for j := poisson(rng, *churn); j > 0; j-- {
				birth = append(birth, step)
				death = append(death, *steps+1)
				active = append(active, len(birth)-1)
				joins++
			}
			for l := poisson(rng, *churn); l > 0 && len(active) > 0; l-- {
				pick := rng.IntN(len(active))
				n := active[pick]
				active[pick] = active[len(active)-1]
				active = active[:len(active)-1]
				death[n] = step
				leaves++
			}
		}
	}
	total := len(birth)

	store := transport.NewStore()
	srv, err := transport.NewServer(store, nil)
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	srv.SetIdleTimeout(*idle)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintln(stderr, "loadgen:", err)
		return 1
	}
	defer srv.Close()
	fmt.Fprintf(stdout, "loadgen: %d nodes over %d mux connections → %s | %d steps | budget %.2f | batch %d linger %s compress %v\n",
		*nodes, *conns, addr, *steps, *budget, *batch, *linger, *compress)
	if *churn > 0 {
		fmt.Fprintf(stdout, "loadgen: churn λ=%.2f → %d joins, %d leaves over the run (%d nodes ever lived)\n",
			*churn, joins, leaves, total)
	}

	// The serial expectation: per-node transmission count and final
	// transmitted (step, values). Steps increase monotonically per node, so
	// the store must accept every send — this IS what unbatched
	// one-at-a-time delivery would leave behind.
	type expectation struct {
		sends     int
		lastStep  int
		lastVals  []float64
		localStep int
	}
	expected := make([]expectation, total)

	var (
		wg          sync.WaitGroup
		sent        atomic.Int64
		retries     atomic.Int64
		fleetErr    atomic.Pointer[error]
		perConn     = (total + *conns - 1) / *conns
		start       = time.Now()
		workerExpMu sync.Mutex // guards expected during the fan-in below
	)
	fail := func(err error) {
		fleetErr.CompareAndSwap(nil, &err)
	}
	for ci := 0; ci < *conns; ci++ {
		lo := ci * perConn
		hi := lo + perConn
		if hi > total {
			hi = total
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			client, err := transport.DialBatch(addr, lo, transport.BatchOptions{
				BatchSize: *batch,
				Linger:    *linger,
				Compress:  *compress,
				Mux:       true,
			})
			if err != nil {
				fail(err)
				return
			}
			defer func() {
				if err := client.Close(); err != nil {
					fail(err)
				}
			}()
			policies := make([]transmit.Policy, hi-lo)
			for i := range policies {
				p, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: *budget})
				if err != nil {
					fail(err)
					return
				}
				policies[i] = p
			}
			local := make([]expectation, hi-lo)
			stored := make([][]float64, hi-lo)
			vals := make([]float64, *resources)
			for step := 1; step <= *steps; step++ {
				for n := lo; n < hi; n++ {
					if step < birth[n] || step >= death[n] {
						continue // not a fleet member at this step
					}
					i := n - lo
					for r := 0; r < *resources; r++ {
						vals[r] = value(n, step, r)
					}
					local[i].localStep = step
					if !policies[i].Decide(step, vals, stored[i]) {
						continue
					}
					for {
						err := client.SendNode(n, step, vals)
						if err == nil {
							break
						}
						if err != transport.ErrBacklogged {
							fail(err)
							return
						}
						retries.Add(1)
						runtime.Gosched()
					}
					stored[i] = append(stored[i][:0], vals...)
					local[i].sends++
					local[i].lastStep = step
					local[i].lastVals = append([]float64(nil), vals...)
					sent.Add(1)
				}
			}
			workerExpMu.Lock()
			copy(expected[lo:hi], local)
			workerExpMu.Unlock()
		}(lo, hi)
	}
	wg.Wait()
	if perr := fleetErr.Load(); perr != nil {
		fmt.Fprintln(stderr, "loadgen:", *perr)
		return 1
	}

	// All clients closed (final batches flushed); wait for the collector to
	// drain the in-flight TCP streams.
	delivered := sent.Load()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var got int
		for _, st := range store.Stats() {
			got += st.Updates
		}
		if int64(got) >= delivered || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	elapsed := time.Since(start)

	// Verification against the serial expectation.
	bad := 0
	stats := store.Stats()
	for n := 0; n < total; n++ {
		exp := expected[n]
		if exp.sends == 0 {
			continue // node never transmitted; nothing for the store to hold
		}
		st, ok := stats[n]
		switch {
		case !ok:
			bad++
		case st.Updates != exp.sends,
			st.Latest.Step != exp.lastStep,
			!equalBits(st.Latest.Values, exp.lastVals):
			bad++
		}
	}
	fmt.Fprintf(stdout, "loadgen: delivered %d msgs in %s (%.0f msgs/s) | backpressure retries %d\n",
		delivered, elapsed.Round(time.Millisecond), float64(delivered)/elapsed.Seconds(), retries.Load())
	fmt.Fprintf(stdout, "loadgen: verification vs serial expectation: %d/%d nodes mismatched | protocol errors %d\n",
		bad, total, srv.ProtocolErrors())
	if bad != 0 || srv.ProtocolErrors() != 0 {
		fmt.Fprintln(stderr, "loadgen: FAILED")
		return 1
	}
	fmt.Fprintln(stdout, "loadgen: OK — store bit-identical to unbatched serial delivery, zero protocol errors")
	return 0
}

// poisson draws from a Poisson(lambda) distribution (Knuth's method, split
// for large λ so the e^-λ product never underflows).
func poisson(rng *rand.Rand, lambda float64) int {
	n := 0
	for lambda > 0 {
		step := math.Min(lambda, 500)
		limit := math.Exp(-step)
		p := 1.0
		for {
			p *= rng.Float64()
			if p < limit {
				break
			}
			n++
		}
		lambda -= step
	}
	return n
}

// equalBits compares two float slices bit-for-bit.
func equalBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
