// Queryserve: the full servable system in one process — a TCP collector fed
// by a fleet of adaptively transmitting node agents, the online pipeline
// stepping on whatever arrives, and the HTTP query plane answering forecast
// queries from immutable snapshots while ingest keeps running.
//
// It is the in-process twin of running `cmd/forecastd` against
// `cmd/nodeagent` fleets, ending with a short curl-style query session.
//
// Run with:
//
//	go run ./examples/queryserve
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"orcf"
	"orcf/internal/core"
	"orcf/internal/serve"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

const (
	nodes   = 16
	steps   = 260
	budget  = 0.3
	k       = 3
	initial = 120
	horizon = 12
)

func main() {
	ds, err := orcf.GenerateTrace(orcf.GeneratorConfig{
		Name: "queryserve", Nodes: nodes, Steps: steps, Seed: 77,
	})
	if err != nil {
		log.Fatalf("generating trace: %v", err)
	}

	// Collection plane: TCP collector + one dialing agent per node.
	store := transport.NewStore()
	collector, err := transport.NewServer(store, nil)
	if err != nil {
		log.Fatalf("collector: %v", err)
	}
	addr, err := collector.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatalf("listening: %v", err)
	}
	defer collector.Close()

	// Central pipeline driven from the store, publishing a snapshot per step.
	stepper, err := serve.NewStoreStepper(store, core.Config{
		Nodes: nodes, Resources: ds.NumResources(), K: k,
		InitialCollection: initial, RetrainEvery: 100,
		Seed: 7, SnapshotHorizon: horizon,
	})
	if err != nil {
		log.Fatalf("stepper: %v", err)
	}

	// Query plane on an ephemeral port.
	query, err := serve.New(serve.Config{Source: stepper.System()})
	if err != nil {
		log.Fatalf("serve: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("http listen: %v", err)
	}
	hs := &http.Server{Handler: query}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	base := "http://" + ln.Addr().String()
	fmt.Printf("collector on %s, query API on %s\n", addr, base)

	// Node agents: a step barrier keeps the demo deterministic-ish; each
	// agent acks with the step it transmitted (0 = filtered out).
	var wg sync.WaitGroup
	stepc := make([]chan int, nodes)
	ackc := make([]chan int, nodes)
	for i := 0; i < nodes; i++ {
		stepc[i] = make(chan int)
		ackc[i] = make(chan int)
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			client, err := transport.DialBatch(addr, node, transport.BatchOptions{Linger: time.Millisecond})
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
			for t := range stepc[node] {
				x := ds.At(t-1, node)
				sentAt := 0
				client.Advance(t)
				if policy.Decide(t, x, stored) {
					if err := client.Send(t, x); err != nil {
						log.Printf("node %d: send: %v", node, err)
						return
					}
					stored = append(stored[:0], x...)
					sentAt = t
				}
				ackc[node] <- sentAt
			}
		}(i)
	}

	// Ingest loop: one pipeline tick per trace step, waiting for this step's
	// transmissions to land in the store first.
	lastSent := make([]int, nodes)
	for t := 1; t <= steps; t++ {
		for i := 0; i < nodes; i++ {
			stepc[i] <- t
		}
		for i := 0; i < nodes; i++ {
			if sentAt := <-ackc[i]; sentAt > 0 {
				lastSent[i] = sentAt
			}
		}
		waitIngested(store, lastSent)
		if _, ok, err := stepper.Tick(); err != nil {
			log.Fatalf("tick %d: %v", t, err)
		} else if !ok {
			log.Fatalf("tick %d: nodes missing from store", t)
		}
		if t == initial {
			fmt.Printf("step %d: models trained, query plane is live\n", t)
		}
	}
	for i := 0; i < nodes; i++ {
		close(stepc[i])
	}
	wg.Wait()

	// Query session: what a resource allocator would do against forecastd.
	fmt.Printf("\n$ curl %s/v1/forecast?h=3&node=0\n", base)
	curl(base + "/v1/forecast?h=3&node=0")
	fmt.Printf("\n$ curl %s/v1/nodes/0\n", base)
	curl(base + "/v1/nodes/0")
	fmt.Printf("\n$ curl %s/v1/clusters\n", base)
	curl(base + "/v1/clusters")
	fmt.Printf("\n$ curl %s/v1/stats   (after one repeat forecast query)\n", base)
	_, _ = http.Get(base + "/v1/forecast?h=3")
	_, _ = http.Get(base + "/v1/forecast?h=3")
	curl(base + "/v1/stats")
}

// waitIngested polls until the store has caught up with every node's last
// transmitted step (the collector applies measurements asynchronously).
func waitIngested(store *transport.Store, lastSent []int) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		ok := true
		for i, s := range lastSent {
			if s == 0 {
				continue
			}
			if m, have := store.Latest(i); !have || m.Step < s {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			log.Fatal("collector never caught up")
		}
		time.Sleep(time.Millisecond)
	}
}

// curl fetches a URL and prints the (compact JSON) response body.
func curl(url string) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("reading %s: %v", url, err)
	}
	var buf map[string]any
	if err := json.Unmarshal(body, &buf); err != nil {
		log.Fatalf("decoding %s: %v", url, err)
	}
	out, _ := json.Marshal(buf)
	fmt.Println(string(out))
}
