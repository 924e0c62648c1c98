// Package parallel is the shared bounded worker pool used by the hot paths
// of this repository: per-tracker clustering in core.System.Step, model
// (re)training in forecast.Ensemble, per-node forecast reconstruction, and
// the independent pipeline configurations of the experiment harness.
//
// The contract every caller relies on: work items are independent, each item
// writes only to its own output slot, and no cross-item floating-point
// reduction happens inside the pool. Under that contract results are
// bit-identical for any worker count, so "parallel" is purely a wall-clock
// knob — Workers(1) is the serial escape hatch and 0 selects a
// GOMAXPROCS-bounded default.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a configured worker count: values < 1 select
// runtime.GOMAXPROCS(0), anything else is returned unchanged.
func Workers(configured int) int {
	if configured < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return configured
}

// ForEach runs fn(i) for every i in [0, n) on at most Workers(workers)
// goroutines and returns the error of the lowest index that failed (nil when
// all succeed). Remaining items are skipped once a failure is observed, but
// items already started are allowed to finish. With workers == 1 or n == 1
// everything runs inline on the calling goroutine.
func ForEach(workers, n int, fn func(i int) error) error {
	return ForEachWorker(workers, n, func(_, i int) error { return fn(i) })
}

// Map runs fn(i) for every i in [0, n) on the pool and returns the results
// in index order, or the error of the lowest index that failed. It is the
// ordered fan-out/gather used by the experiment harness: claim order, result
// order, and the returned error are all index-deterministic, so output is
// identical for any worker count.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
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

// ForEachWorker is ForEach with the worker id (in [0, Workers(workers)))
// passed through, so callers can reuse per-worker scratch buffers without
// synchronization. The calling goroutine is worker 0 and takes its share of
// the items itself; only the other w−1 workers are spawned, so a two-item
// fan-out costs one goroutine, not two and a parked caller.
func ForEachWorker(workers, n int, fn func(worker, i int) error) error {
	if n <= 0 {
		return nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := fn(0, i); err != nil {
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
	work := func(worker int) {
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
			if err := fn(worker, i); err != nil {
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
	for worker := 1; worker < w; worker++ {
		go func(worker int) {
			defer wg.Done()
			work(worker)
		}(worker)
	}
	work(0)
	wg.Wait()
	return firstE
}
