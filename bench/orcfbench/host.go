package main

import (
	"syscall"
	"time"
)

// The reference box is a small virtual machine whose memory system is shared
// with other tenants: with nothing else running in the guest, every workload
// here slows down and speeds up together by 10 to 40 % over tens of minutes,
// and the time of a plain sweep over memory moves with them (slope 0.9 to 1.4
// in log-log on all four workloads). The benchmark therefore times such a
// sweep beside everything it measures and reports its timing metrics at
// reference memory speed: divided by how much slower than hostRefMs the sweep
// ran at that moment. On a quiet reference box the factor is 1. What is left
// is the workload's own cost; the raw values and the factor are printed.

const (
	hostBufBytes = 64 << 20 // well past the last-level cache
	hostLine     = 64       // one touch per cache line
	// hostRefMs is the sweep time of the quiet reference box, frozen.
	hostRefMs = 6.5
)

// hostProbe owns the swept buffer. It is mapped outside the Go heap so that
// it changes neither the collector's pacing nor heap_live_mb.
type hostProbe struct{ buf []byte }

func newHostProbe() (*hostProbe, error) {
	buf, err := syscall.Mmap(-1, 0, hostBufBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	h := &hostProbe{buf: buf}
	h.slowdown() // fault the pages in
	return h, nil
}

// slowdown sweeps the buffer once, a read-modify-write per cache line, and
// returns how many times slower than the reference that was.
func (h *hostProbe) slowdown() float64 {
	t0 := time.Now()
	for i := 0; i < len(h.buf); i += hostLine {
		h.buf[i]++
	}
	return float64(time.Since(t0)) / 1e6 / hostRefMs
}

func (h *hostProbe) close() { syscall.Munmap(h.buf) }
