package orcf_test

import (
	"context"
	"fmt"
	"log"

	"orcf"
)

// ExampleNew demonstrates the minimal pipeline: synthesize a trace, run the
// system online, and read fleet forecasts.
func ExampleNew() {
	ds, err := orcf.GenerateTrace(orcf.GeneratorConfig{
		Name: "example", Nodes: 12, Steps: 60, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	sys, err := orcf.New(12, 2,
		orcf.WithAlwaysTransmit(),
		orcf.WithClusters(3),
		orcf.WithTrainingSchedule(30, 100),
		orcf.WithSeed(1),
	)
	if err != nil {
		log.Fatal(err)
	}
	for t := 0; t < ds.Steps(); t++ {
		if _, err := sys.Step(ds.Data[t]); err != nil {
			log.Fatal(err)
		}
	}
	f, err := sys.Forecast(3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("forecast horizons: %d, nodes: %d, resources: %d\n",
		len(f), len(f[0]), len(f[0][0]))
	// Output:
	// forecast horizons: 3, nodes: 12, resources: 2
}

// ExampleNewCollectorServer shows the networked collection plane: a TCP
// collector, one agent streaming through the adaptive policy, and the
// resulting store contents.
func ExampleNewCollectorServer() {
	store := orcf.NewMeasurementStore()
	srv, err := orcf.NewCollectorServer(store, nil)
	if err != nil {
		log.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	client, err := orcf.DialBatchCollector(addr, 0, orcf.BatchOptions{})
	if err != nil {
		log.Fatal(err)
	}
	policy, err := orcf.NewAdaptiveTransmitPolicy(1.0) // B=1: send everything
	if err != nil {
		log.Fatal(err)
	}
	rows := [][]float64{{0.2, 0.4}, {0.3, 0.5}, {0.4, 0.6}}
	a, err := orcf.NewAgent(orcf.AgentConfig{
		Node:   0,
		Policy: policy,
		Source: orcf.ReplayMeasurements(rows),
		Sender: client,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := a.Run(context.Background()); err != nil {
		log.Fatal(err)
	}
	if err := client.Close(); err != nil { // flushes the pending batch
		log.Fatal(err)
	}
	// Wait for the asynchronous server to drain the stream.
	for {
		if m, ok := store.Latest(0); ok && m.Step == len(rows) {
			fmt.Printf("node 0 latest: step %d cpu %.1f\n", m.Step, m.Values[0])
			break
		}
	}
	// Output:
	// node 0 latest: step 3 cpu 0.4
}
