// Livecollect: the collection plane running for real — a central TCP
// collector and a fleet of in-process node agents, each filtering its
// measurements through the adaptive transmission policy before sending
// them as batched frames that also carry the node's local clock. The
// central side steps the pipeline on whatever the store holds
// (serve.StoreStepper, the loop cmd/collectd and cmd/forecastd run) and
// prints the evolving centroids plus the realized per-node frequencies the
// store accounted (eq. 5), which the carried clock makes exact.
//
// Run with:
//
//	go run ./examples/livecollect
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"orcf"
	"orcf/internal/core"
	"orcf/internal/serve"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

const (
	nodes  = 24
	steps  = 400
	budget = 0.3
	k      = 3
)

func main() {
	ds, err := orcf.GenerateTrace(orcf.GeneratorConfig{
		Name: "live", Nodes: nodes, Steps: steps, Seed: 21,
	})
	if err != nil {
		log.Fatalf("generating trace: %v", err)
	}

	store := transport.NewStore()
	server, err := transport.NewServer(store, nil)
	if err != nil {
		log.Fatalf("creating server: %v", err)
	}
	server.SetIdleTimeout(time.Minute)
	addr, err := server.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	defer server.Close()
	fmt.Printf("collector listening on %s\n", addr)

	// Node agents: each owns a TCP connection and an adaptive policy. A
	// step barrier keeps the demo deterministic-ish: all agents process
	// step t before the central node clusters it.
	var wg sync.WaitGroup
	stepBarrier := make([]chan int, nodes)
	doneBarrier := make([]chan struct{}, nodes)
	totalTx := make([]int, nodes)
	for i := 0; i < nodes; i++ {
		stepBarrier[i] = make(chan int)
		doneBarrier[i] = make(chan struct{})
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			client, err := transport.DialBatch(addr, node, transport.BatchOptions{
				BatchSize: 8, Linger: 2 * time.Millisecond,
			})
			if err != nil {
				log.Printf("node %d: dial: %v", node, err)
				return
			}
			defer client.Close()
			policy, err := transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
			if err != nil {
				log.Printf("node %d: policy: %v", node, err)
				return
			}
			var stored []float64
			for t := range stepBarrier[node] {
				x := ds.At(t, node)
				client.Advance(t + 1) // suppressed steps advance eq. 5 too
				if policy.Decide(t+1, x, stored) {
					if err := client.Send(t+1, x); err != nil {
						log.Printf("node %d: send: %v", node, err)
						return
					}
					stored = append(stored[:0], x...)
					totalTx[node]++
				}
				doneBarrier[node] <- struct{}{}
			}
		}(i)
	}

	stepper, err := serve.NewStoreStepper(store, core.Config{
		Nodes: nodes, Resources: ds.NumResources(), K: k, Seed: 5,
	})
	if err != nil {
		log.Fatalf("stepper: %v", err)
	}

	for t := 0; t < steps; t++ {
		for i := 0; i < nodes; i++ {
			stepBarrier[i] <- t
		}
		for i := 0; i < nodes; i++ {
			<-doneBarrier[i]
		}
		// Central side: one pipeline tick on the latest stored values. Nodes
		// that did not transmit keep their previous value, which is the
		// "intermittent measurements" property from the paper (batches may
		// still be in flight — also intermittency, by design). Only the very
		// first tick waits: it is refused until every node's first
		// measurement (the policy always sends step 1) has been delivered.
		for wait := time.Now().Add(5 * time.Second); store.Len() < nodes && time.Now().Before(wait); {
			time.Sleep(time.Millisecond)
		}
		res, ok, err := stepper.Tick()
		if err != nil {
			log.Fatalf("tick at %d: %v", t, err)
		}
		if ok && (t+1)%80 == 0 {
			fmt.Printf("step %3d | CPU centroids:", t+1)
			for _, c := range res.PerResource[0].Centroids {
				fmt.Printf(" %.3f", c[0])
			}
			fmt.Println()
		}
	}
	for i := 0; i < nodes; i++ {
		close(stepBarrier[i])
	}
	wg.Wait() // agents close their clients: pending batches + final clocks flush

	var tx int
	for _, n := range totalTx {
		tx += n
	}
	fmt.Printf("total transmissions: %d of %d possible (%.1f%%, budget %.0f%%)\n",
		tx, nodes*steps, 100*float64(tx)/float64(nodes*steps), budget*100)

	// eq. 5 as the collector accounted it: every node carries its local
	// clock, so the central frequency denominator is the true step count.
	deadline := time.Now().Add(5 * time.Second)
	caughtUp := func() bool {
		stats := store.Stats()
		for i := 0; i < nodes; i++ {
			if stats[i].LocalStep < steps {
				return false
			}
		}
		return true
	}
	for !caughtUp() && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stats := store.Stats()
	var mean float64
	for i := 0; i < nodes; i++ {
		mean += stats[i].Frequency
	}
	fmt.Printf("central eq. 5 mean frequency %.3f (exact local clock)\n", mean/nodes)
	if n := server.ProtocolErrors(); n != 0 {
		log.Fatalf("%d protocol errors in a clean run", n)
	}
}
