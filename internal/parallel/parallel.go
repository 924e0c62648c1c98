// Package parallel is the shared bounded worker pool used by the hot paths
// of this repository: per-tracker clustering in core.System.Step, the
// (re)training round's one list of model fits across every tracker
// (forecast.ObserveAll and RestoreAll), per-node forecast reconstruction,
// and the independent pipeline configurations of the experiment harness.
// It has two entry points: ForEach runs independent items, and Map gathers
// their results in index order. Every pool is sized from
// runtime.GOMAXPROCS(0) when it starts. The experiment harness runs Systems
// inside its pools, so their pools nest and share the GOMAXPROCS threads.
//
// The contract every caller relies on: work items are independent, each item
// writes only to its own output slot, and no cross-item floating-point
// reduction happens inside the pool. Under that contract results are
// bit-identical for any pool width, so parallelism is purely a wall-clock
// setting — GOMAXPROCS=1 is the serial escape hatch.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on at most runtime.GOMAXPROCS(0)
// goroutines and returns the error of the lowest index that failed (nil when
// all succeed). Remaining items are skipped once a failure is observed, but
// items already started are allowed to finish. With GOMAXPROCS 1 or n == 1
// everything runs inline on the calling goroutine. GOMAXPROCS is read once,
// when the call starts. The calling goroutine is one of the w workers and
// takes its share of the items itself; only the other w−1 are spawned, so a
// two-item fan-out costs one goroutine, not two and a parked caller.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	w := min(runtime.GOMAXPROCS(0), n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		next   atomic.Int64 // next unclaimed item
		failed atomic.Bool  // fast-path stop flag
		mu     sync.Mutex
		errIdx int = n
		firstE error
	)
	work := func() {
		for {
			// Check the stop flag before claiming so every claimed index
			// runs: claims are issued in increasing order, which is what
			// guarantees the lowest failing index always executes and
			// records its error (a post-claim check could skip it).
			if failed.Load() {
				return
			}
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				failed.Store(true)
				mu.Lock()
				if i < errIdx {
					errIdx, firstE = i, err
				}
				mu.Unlock()
				return
			}
		}
	}

	var wg sync.WaitGroup
	wg.Add(w - 1)
	for range w - 1 {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstE
}

// Map runs fn(i) for every i in [0, n) on the pool and returns the results
// in index order, or the error of the lowest index that failed. It is the
// ordered fan-out/gather used by the experiment harness: claim order, result
// order, and the returned error are all index-deterministic, so output is
// identical for any pool width.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
