package transport

// BenchmarkTransportIngest measures end-to-end collection-plane throughput
// over real TCP on loopback: messages sent by one agent until they are
// applied to the central store, at several batch sizes and with DEFLATE.
//
//	go test -run xxx -bench TransportIngest -benchmem ./internal/transport

import (
	"errors"
	"runtime"
	"strconv"
	"sync/atomic"
	"testing"
	"time"
)

func benchIngest(b *testing.B, opts BatchOptions) {
	store := NewStore()
	var received atomic.Int64
	srv, err := NewServer(store, func(Measurement) { received.Add(1) })
	if err != nil {
		b.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	c, err := DialBatch(addr, 0, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()

	values := []float64{0.42, 0.17} // d=2, like the CPU+memory traces
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A full queue is the designed backpressure signal, not a failure:
		// yield until the writer drains, like a paced agent would.
		for {
			err := c.Send(i+1, values)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrBacklogged) {
				b.Fatal(err)
			}
			runtime.Gosched()
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	for received.Load() < int64(b.N) {
		time.Sleep(50 * time.Microsecond)
	}
	b.StopTimer()
	elapsed := b.Elapsed()
	if elapsed > 0 {
		b.ReportMetric(float64(b.N)/elapsed.Seconds(), "msgs/s")
	}
	if n := srv.ProtocolErrors(); n != 0 {
		b.Fatalf("%d protocol errors during benchmark", n)
	}
}

func BenchmarkTransportIngest(b *testing.B) {
	for _, batch := range []int{16, 64, 256} {
		batch := batch
		b.Run("v2batch"+strconv.Itoa(batch), func(b *testing.B) {
			benchIngest(b, BatchOptions{BatchSize: batch, Linger: 5 * time.Millisecond})
		})
	}
	b.Run("v2batch64compressed", func(b *testing.B) {
		benchIngest(b, BatchOptions{BatchSize: 64, Linger: 5 * time.Millisecond, Compress: true})
	})
}
