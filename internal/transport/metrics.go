package transport

import (
	"io"

	"orcf/internal/obs"
)

// ServerMetrics holds the collector endpoint's ingest instrumentation. The
// counters are always live (atomic increments cost nothing worth gating);
// RegisterMetrics binds them to a process registry for /metrics exposure.
type ServerMetrics struct {
	// ConnsTotal counts accepted agent connections; a fleet of stable agents
	// growing this series is the server-side signature of reconnect churn.
	ConnsTotal obs.Counter
	// ConnsActive tracks currently open agent connections.
	ConnsActive obs.Gauge
	// Reconnects counts hellos from node ids already seen on an earlier
	// connection — the collector-side view of agent redials.
	Reconnects obs.Counter
	// BytesIn counts bytes read off agent connections, framing included.
	BytesIn obs.Counter
	// FramesIn counts decoded frames of any type.
	FramesIn obs.Counter
	// BatchesIn counts batch frames.
	BatchesIn obs.Counter
	// HeartbeatsIn counts heartbeat frames.
	HeartbeatsIn obs.Counter
	// RecordsIn counts measurements delivered to the store.
	RecordsIn obs.Counter
	// CompressedBatches counts batch frames that arrived DEFLATE-compressed.
	CompressedBatches obs.Counter
	// BatchWireBytes sums batch payload sizes as they crossed the wire.
	BatchWireBytes obs.Counter
	// BatchRawBytes sums batch payload sizes after decompression (equal to
	// BatchWireBytes for uncompressed batches), so raw/wire is the realized
	// compression ratio.
	BatchRawBytes obs.Counter
}

// Metrics returns the server's ingest instrumentation.
func (s *Server) Metrics() *ServerMetrics { return &s.metrics }

// RegisterMetrics binds the server's ingest series, including the protocol
// error counter that was previously reachable only through the Go API, to
// reg under orcf_ingest_*.
func (s *Server) RegisterMetrics(reg *obs.Registry) {
	m := &s.metrics
	reg.Counter("orcf_ingest_connections_total",
		"Agent connections accepted since start (reconnects included).", &m.ConnsTotal)
	reg.Gauge("orcf_ingest_connections_active",
		"Agent connections currently open.", &m.ConnsActive)
	reg.Counter("orcf_ingest_reconnects_total",
		"Hellos from node ids already seen on an earlier connection (agent redials).", &m.Reconnects)
	reg.Counter("orcf_ingest_bytes_total",
		"Bytes read off agent connections, framing included.", &m.BytesIn)
	reg.Counter("orcf_ingest_frames_total",
		"Decoded frames of any type.", &m.FramesIn)
	reg.Counter("orcf_ingest_batches_total",
		"Decoded batch frames.", &m.BatchesIn)
	reg.Counter("orcf_ingest_heartbeats_total",
		"Decoded heartbeat frames.", &m.HeartbeatsIn)
	reg.Counter("orcf_ingest_records_total",
		"Measurements delivered to the store.", &m.RecordsIn)
	reg.Counter("orcf_ingest_compressed_batches_total",
		"Batch frames that arrived DEFLATE-compressed.", &m.CompressedBatches)
	reg.Counter("orcf_ingest_batch_wire_bytes_total",
		"Batch payload bytes as they crossed the wire.", &m.BatchWireBytes)
	reg.Counter("orcf_ingest_batch_raw_bytes_total",
		"Batch payload bytes after decompression.", &m.BatchRawBytes)
	reg.GaugeFunc("orcf_ingest_compression_ratio",
		"Realized batch compression ratio (raw bytes / wire bytes; 1 before any batch).",
		func() float64 {
			wire := m.BatchWireBytes.Value()
			if wire == 0 {
				return 1
			}
			return float64(m.BatchRawBytes.Value()) / float64(wire)
		})
	reg.CounterFunc("orcf_ingest_protocol_errors_total",
		"Connections dropped for protocol violations (foreign preamble, malformed frames, CRC mismatches, spoofed ids).",
		func() float64 { return float64(s.ProtocolErrors()) })
}

// noteHello records a successful hello for reconnect accounting.
func (s *Server) noteHello(node int) {
	s.mu.Lock()
	seen := s.seenNodes[node]
	s.seenNodes[node] = true
	s.mu.Unlock()
	if seen {
		s.metrics.Reconnects.Inc()
	}
}

// StoreMetrics holds the central store's ingest accounting.
type StoreMetrics struct {
	// Applied counts measurements accepted as a node's newest step.
	Applied obs.Counter
	// Stale counts measurements rejected as duplicates of an equal-or-newer
	// stored step.
	Stale obs.Counter
	// Advances counts clock-only advances (batch headers and heartbeats
	// covering suppressed steps).
	Advances obs.Counter
	// Forgotten counts evicted members whose entries were released.
	Forgotten obs.Counter
}

// Metrics returns the store's ingest instrumentation.
func (s *Store) Metrics() *StoreMetrics { return &s.metrics }

// RegisterMetrics binds the store's ingest series to reg under orcf_store_*.
func (s *Store) RegisterMetrics(reg *obs.Registry) {
	m := &s.metrics
	reg.Counter("orcf_store_applied_total",
		"Measurements accepted into the store as a node's newest step.", &m.Applied)
	reg.Counter("orcf_store_stale_total",
		"Measurements rejected as stale duplicates (equal-or-newer step already stored).", &m.Stale)
	reg.Counter("orcf_store_clock_advances_total",
		"Clock-only advances from batch headers and heartbeats.", &m.Advances)
	reg.Counter("orcf_store_forgotten_total",
		"Evicted members whose store entries were released.", &m.Forgotten)
	reg.GaugeFunc("orcf_store_nodes",
		"Nodes with at least one stored measurement.",
		func() float64 { return float64(s.Len()) })
}

// BatchClientMetrics holds a batching client's egress instrumentation.
type BatchClientMetrics struct {
	// FramesOut counts frames written (batches and heartbeats).
	FramesOut obs.Counter
	// BatchesOut counts batch frames written.
	BatchesOut obs.Counter
	// HeartbeatsOut counts heartbeat frames written.
	HeartbeatsOut obs.Counter
	// RecordsOut counts measurements put on the wire.
	RecordsOut obs.Counter
	// BytesOut counts frame bytes written, framing included.
	BytesOut obs.Counter
}

// Metrics returns the client's egress instrumentation. Dropped (the
// backpressure counter) stays a method on the client itself.
func (c *BatchClient) Metrics() *BatchClientMetrics { return &c.metrics }

// countingReader counts bytes as they are read from the wrapped reader.
type countingReader struct {
	r io.Reader
	n *obs.Counter
}

// Read implements io.Reader.
func (c countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}
