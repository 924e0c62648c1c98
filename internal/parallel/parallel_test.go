package parallel

// Run this package's tests with the race detector enabled when touching the
// pool: go test -race ./internal/parallel
// (CI runs the same invocation; see the ci target in the Makefile.)

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// setMaxProcs sets GOMAXPROCS, and so the width of every pool, to n until
// the test ends. A test that calls it must not be parallel.
func setMaxProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 16} {
		setMaxProcs(t, workers)
		const n = 257
		var visits [n]atomic.Int32
		err := ForEach(n, func(i int) error {
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if c := visits[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	t.Parallel()
	called := false
	if err := ForEach(0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(-1, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n <= 0")
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Indices 3 and 9 fail; the serial path and every parallel width must
	// report index 3 (items are claimed in order, so a lower failing index
	// is always started before a higher one records).
	for _, workers := range []int{1, 2, 8} {
		setMaxProcs(t, workers)
		err := ForEach(12, func(i int) error {
			if i == 3 || i == 9 {
				return fmt.Errorf("boom %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "boom 3" {
			t.Fatalf("workers=%d: err = %v, want boom 3", workers, err)
		}
	}
}

func TestForEachStopsAfterFailure(t *testing.T) {
	setMaxProcs(t, 1)
	sentinel := errors.New("stop")
	var ran atomic.Int32
	err := ForEach(1000, func(i int) error {
		ran.Add(1)
		if i == 4 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if got := ran.Load(); got != 5 {
		t.Fatalf("serial path ran %d items, want 5", got)
	}
}

func TestMapReturnsOrderedResults(t *testing.T) {
	for _, workers := range []int{1, 4} {
		setMaxProcs(t, workers)
		got, err := Map(100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
	if _, err := Map(10, func(i int) (int, error) {
		if i >= 2 {
			return 0, fmt.Errorf("fail %d", i)
		}
		return i, nil
	}); err == nil || err.Error() != "fail 2" {
		t.Fatalf("err = %v, want fail 2", err)
	}
}

// TestForEachCallerTakesAShare pins the fan-out's cost model: the calling
// goroutine is one of the w workers, so w concurrently running items mean
// exactly w−1 spawned goroutines. Not parallel: it counts goroutines.
func TestForEachCallerTakesAShare(t *testing.T) {
	for _, workers := range []int{2, 4} {
		setMaxProcs(t, workers)
		base := runtime.NumGoroutine()
		var started atomic.Int32
		release := make(chan struct{})
		var extra atomic.Int32
		err := ForEach(workers, func(int) error {
			// Every worker holds one item until all of them have one, so
			// the pool is at full width when the goroutines are counted.
			if int(started.Add(1)) == workers {
				extra.Store(int32(runtime.NumGoroutine() - base))
				close(release)
			}
			<-release
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(extra.Load()); got != workers-1 {
			t.Fatalf("workers=%d: %d goroutines beyond the caller at full width, want %d", workers, got, workers-1)
		}
	}
}

// goroutineID parses the calling goroutine's id from its stack header
// ("goroutine 42 [running]:"), so a test can tell the pool's workers apart.
func goroutineID() int {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.Atoi(f[1])
	return id
}

// TestForEachClaimsInIncreasingOrder pins the claim order the
// lowest-failing-index guarantee rests on: at most w goroutines run items,
// every one of them sees strictly increasing indices, and together they see
// each index once.
func TestForEachClaimsInIncreasingOrder(t *testing.T) {
	for _, workers := range []int{2, 3, 8} {
		setMaxProcs(t, workers)
		const n = 2000
		var mu sync.Mutex
		seen := map[int][]int{}
		err := ForEach(n, func(i int) error {
			g := goroutineID()
			mu.Lock()
			seen[g] = append(seen[g], i)
			mu.Unlock()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) > workers {
			t.Fatalf("workers=%d: %d goroutines ran items", workers, len(seen))
		}
		var visited [n]bool
		for g, idx := range seen {
			for k, i := range idx {
				if k > 0 && i <= idx[k-1] {
					t.Fatalf("workers=%d: goroutine %d claimed %d after %d", workers, g, i, idx[k-1])
				}
				if visited[i] {
					t.Fatalf("workers=%d: index %d claimed twice", workers, i)
				}
				visited[i] = true
			}
		}
		for i, v := range visited {
			if !v {
				t.Fatalf("workers=%d: index %d never claimed", workers, i)
			}
		}
	}
}

// TestForEachLowestErrorUnderContention repeats the lowest-failing-
// index property with the failures spread so that either the caller or a
// spawned worker may hit the first one.
func TestForEachLowestErrorUnderContention(t *testing.T) {
	setMaxProcs(t, 4)
	for rep := 0; rep < 200; rep++ {
		first := rep % 7
		err := ForEach(64, func(i int) error {
			if i >= first && (i-first)%5 == 0 {
				return fmt.Errorf("boom %d", i)
			}
			runtime.Gosched()
			return nil
		})
		if want := fmt.Sprintf("boom %d", first); err == nil || err.Error() != want {
			t.Fatalf("rep %d: err = %v, want %s", rep, err, want)
		}
	}
}
