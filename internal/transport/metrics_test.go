package transport

import (
	"strings"
	"testing"
	"time"

	"orcf/internal/obs"
)

// TestServerMetricsV2 drives a compressed v2 batch stream plus a heartbeat
// and checks every ingest counter, including the compression ratio and the
// reconnect counter on a redial.
func TestServerMetricsV2(t *testing.T) {
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	srv.RegisterMetrics(reg)
	store.RegisterMetrics(reg)
	m := srv.Metrics()

	c, err := DialBatch(addr, 3, BatchOptions{BatchSize: 4, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	vals := make([]float64, 64) // compressible: all zeros
	for step := 1; step <= 4; step++ {
		if err := c.Send(step, vals); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	c.Advance(9)
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		return m.RecordsIn.Value() == 4 && m.HeartbeatsIn.Value() == 1
	}, 5*time.Second, "batch + heartbeat ingested")

	if m.BatchesIn.Value() != 1 || m.CompressedBatches.Value() != 1 {
		t.Fatalf("batches=%d compressed=%d, want 1/1",
			m.BatchesIn.Value(), m.CompressedBatches.Value())
	}
	if m.FramesIn.Value() != 3 { // hello + batch + heartbeat
		t.Fatalf("frames = %d, want 3", m.FramesIn.Value())
	}
	if m.BatchRawBytes.Value() <= m.BatchWireBytes.Value() {
		t.Fatalf("all-zero batch did not compress: raw=%d wire=%d",
			m.BatchRawBytes.Value(), m.BatchWireBytes.Value())
	}
	if m.ConnsTotal.Value() != 1 || m.ConnsActive.Value() != 1 {
		t.Fatalf("conns total=%d active=%v, want 1/1",
			m.ConnsTotal.Value(), m.ConnsActive.Value())
	}
	if m.BytesIn.Value() == 0 {
		t.Fatal("no bytes counted")
	}

	// Client-side egress mirrors the server's view.
	cm := c.Metrics()
	if cm.BatchesOut.Value() != 1 || cm.RecordsOut.Value() != 4 ||
		cm.HeartbeatsOut.Value() != 1 || cm.BytesOut.Value() == 0 {
		t.Fatalf("client egress: %+v", cm)
	}

	// Store accounting: 4 accepted, a replayed stale step rejected.
	sm := store.Metrics()
	if sm.Applied.Value() != 4 {
		t.Fatalf("store applied = %d, want 4", sm.Applied.Value())
	}
	store.Apply(Measurement{Node: 3, Step: 2, Values: []float64{1}})
	if sm.Stale.Value() != 1 {
		t.Fatalf("store stale = %d, want 1", sm.Stale.Value())
	}
	store.Forget(3)
	if sm.Forgotten.Value() != 1 {
		t.Fatalf("store forgotten = %d, want 1", sm.Forgotten.Value())
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// Same node reconnecting is counted as a redial.
	c1, err := DialBatch(addr, 3, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c1.Send(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if err := c1.Flush(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.Reconnects.Value() == 1 }, 5*time.Second, "reconnect noticed")
	_ = c1.Close()
	waitFor(t, func() bool { return m.ConnsActive.Value() == 0 }, 5*time.Second, "conn drained")

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, series := range []string{
		"orcf_ingest_connections_total 2", "orcf_ingest_reconnects_total 1",
		"orcf_ingest_protocol_errors_total 0", "orcf_ingest_compression_ratio",
		"orcf_store_applied_total 5", "orcf_store_stale_total 1",
	} {
		if !strings.Contains(out, series) {
			t.Fatalf("exposition missing %q:\n%s", series, out)
		}
	}
}

// TestReconnectingClientCounters pins the agent-side redial accounting.
func TestReconnectingClientCounters(t *testing.T) {
	store := NewStore()
	srv, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	rc := NewReconnectingClient(addr, 1, BatchOptions{Linger: time.Millisecond})
	rc.SetBackoff(time.Millisecond, 2*time.Millisecond)
	defer rc.Close()
	if err := rc.Send(1, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if rc.Reconnects() != 0 {
		t.Fatalf("fresh client reports %d reconnects", rc.Reconnects())
	}

	// Kill the server; sends now fail and open the backoff window.
	_ = srv.Close()
	waitFor(t, func() bool {
		return rc.Send(2, []float64{1}) != nil
	}, 5*time.Second, "send failure after server death")
	waitFor(t, func() bool {
		_ = rc.Send(3, []float64{1})
		return rc.BackoffFailures() > 0
	}, 5*time.Second, "backoff failure counted")

	// Revive on the same port and watch the redial land.
	srv2, err := NewServer(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if _, err := srv2.Listen(addr); err != nil {
		t.Skipf("port %s not reusable: %v", addr, err)
	}
	waitFor(t, func() bool {
		return rc.Send(4, []float64{1}) == nil
	}, 5*time.Second, "successful redial")
	if rc.Reconnects() != 1 {
		t.Fatalf("reconnects = %d, want 1", rc.Reconnects())
	}
}
