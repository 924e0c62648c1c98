package orcf

// Public surface of the distributed collection plane: the TCP collector,
// node-agent clients, and the per-node agent runtime. These are thin
// re-exports of internal/transport and internal/agent so that deployments
// outside this repository can run the same plane the cmd/forecastd and
// cmd/nodeagent binaries use.

import (
	"orcf/internal/agent"
	"orcf/internal/transmit"
	"orcf/internal/transport"
)

type (
	// Measurement is one transmitted observation (node, step, values).
	Measurement = transport.Measurement
	// MeasurementStore holds the newest measurement per node — the central
	// node's z_t when running over the network.
	MeasurementStore = transport.Store
	// CollectorServer accepts agent connections and fills a store.
	CollectorServer = transport.Server
	// ReconnectingAgentClient is a BatchAgentClient that redials
	// automatically across collector restarts (lossy, monitoring-grade
	// semantics: records queued on a connection that dies are dropped and
	// counted).
	ReconnectingAgentClient = transport.ReconnectingClient
	// BatchAgentClient is a node's TCP connection to the collector: it
	// coalesces measurements into CRC-checked batches, bounds its send
	// queue (surfacing backpressure instead of blocking), and carries the
	// node's local clock for exact central eq. 5 accounting.
	BatchAgentClient = transport.BatchClient
	// BatchOptions tunes a BatchAgentClient (batch size, linger,
	// queue bound, write deadline, compression, multiplexing).
	BatchOptions = transport.BatchOptions
	// Agent is the node-side loop: sample → policy → send.
	Agent = agent.Agent
	// AgentConfig assembles an Agent.
	AgentConfig = agent.Config
	// AgentSource produces a node's measurements per step.
	AgentSource = agent.Source
	// TransmitPolicy decides per-step transmission (§V-A).
	TransmitPolicy = transmit.Policy
)

// NewMeasurementStore returns an empty thread-safe store.
func NewMeasurementStore() *MeasurementStore { return transport.NewStore() }

// NewCollectorServer builds a collector around the store; onUpdate (may be
// nil) fires after each stored measurement.
func NewCollectorServer(store *MeasurementStore, onUpdate func(Measurement)) (*CollectorServer, error) {
	return transport.NewServer(store, onUpdate)
}

// DialBatchCollector connects a node agent to a collector address; the zero
// BatchOptions selects sensible defaults.
func DialBatchCollector(addr string, node int, opts BatchOptions) (*BatchAgentClient, error) {
	return transport.DialBatch(addr, node, opts)
}

// NewReconnectingCollectorClient prepares a lazily-dialed, auto-redialing
// client for the node, with the default BatchOptions.
func NewReconnectingCollectorClient(addr string, node int) *ReconnectingAgentClient {
	return transport.NewReconnectingClient(addr, node, BatchOptions{})
}

// NewAgent validates and builds the node-side loop.
func NewAgent(cfg AgentConfig) (*Agent, error) { return agent.New(cfg) }

// NewAdaptiveTransmitPolicy builds the paper's Lyapunov policy for use in a
// standalone Agent (outside a full System).
func NewAdaptiveTransmitPolicy(budget float64) (TransmitPolicy, error) {
	return transmit.NewAdaptive(transmit.AdaptiveConfig{Budget: budget})
}

// ReplayMeasurements adapts a dense steps × resources matrix into an
// AgentSource that ends after the last row.
func ReplayMeasurements(rows [][]float64) AgentSource { return agent.ReplaySource(rows) }

// LoopMeasurements adapts a dense matrix into an endlessly-looping source.
func LoopMeasurements(rows [][]float64) AgentSource { return agent.LoopSource(rows) }
