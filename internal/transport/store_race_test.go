package transport

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// raceValues is node's measurement at step: both values derive from the
// pair, so a row mixing two measurements shows.
func raceValues(node, step int) []float64 {
	v := float64(node*100000 + step)
	return []float64{v, -v}
}

// torn reports whether m is not exactly the measurement raceValues made for
// its node and step.
func torn(m Measurement) bool {
	want := raceValues(m.Node, m.Step)
	return len(m.Values) != len(want) ||
		math.Float64bits(m.Values[0]) != math.Float64bits(want[0]) ||
		math.Float64bits(m.Values[1]) != math.Float64bits(want[1])
}

// TestStoreConcurrentApplyAndRead has two server connections apply batches
// for the same nodes — one sends the odd steps, the other the even ones, so
// each entry's values are overwritten in place from both — while one reader
// walks EachReported and another takes Stats. No read may see a torn row,
// and a Stats result taken mid-run must read the same after every later
// apply: the store owns its values and Stats returns copies. The writers
// pause halfway until both readers have seen every node, so the readers
// overlap them however the goroutines are scheduled. Run it with -race.
func TestStoreConcurrentApplyAndRead(t *testing.T) {
	t.Parallel()
	const (
		nodes = 64
		steps = 120
	)
	store := NewStore()
	var applied atomic.Int64
	srv, err := NewServer(store, func(Measurement) { applied.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	var walks, statsTaken atomic.Int64
	walkedAll, heldAll := make(chan struct{}), make(chan struct{})
	go func() { // EachReported, reading the store's own values under its lock
		defer readers.Done()
		for signalled := false; ; {
			select {
			case <-stop:
				return
			default:
			}
			seen := 0
			store.EachReported(func(_ int, _ uint32, st NodeStat) {
				if torn(st.Latest) {
					t.Errorf("EachReported: torn row %+v", st.Latest)
				}
				seen++
			})
			walks.Add(1)
			if seen == nodes && !signalled {
				close(walkedAll)
				signalled = true
			}
		}
	}()
	var held, heldCopy map[int]NodeStat
	go func() { // Stats, keeping one result to check after the writers finish
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			stats := store.Stats()
			for _, st := range stats {
				if st.Latest.Values != nil && torn(st.Latest) {
					t.Errorf("Stats: torn row %+v", st.Latest)
				}
			}
			if held == nil && len(stats) == nodes {
				held = stats
				heldCopy = make(map[int]NodeStat, len(stats))
				for id, st := range stats {
					st.Latest.Values = append([]float64(nil), st.Latest.Values...)
					heldCopy[id] = st
				}
				close(heldAll)
			}
			statsTaken.Add(1)
		}
	}()

	awaitReaders := func() bool {
		timeout := time.After(10 * time.Second)
		for _, ch := range []chan struct{}{walkedAll, heldAll} {
			select {
			case <-ch:
			case <-timeout:
				return false
			}
		}
		return true
	}
	var writers sync.WaitGroup
	for c := 0; c < 2; c++ {
		cl, err := DialBatch(addr, c, BatchOptions{BatchSize: nodes + 1, MaxPending: nodes + 1, Linger: time.Hour, Mux: true})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		writers.Add(1)
		go func() {
			defer writers.Done()
			for step := 1 + c; step <= steps; step += 2 {
				if step == steps/2+1+c {
					if !awaitReaders() {
						t.Errorf("connection %d: readers never saw all %d nodes", c, nodes)
						return
					}
				}
				for node := 0; node < nodes; node++ {
					if err := cl.SendNode(node, step, raceValues(node, step)); err != nil {
						t.Errorf("connection %d: send: %v", c, err)
						return
					}
				}
				if err := cl.Flush(); err != nil {
					t.Errorf("connection %d: flush: %v", c, err)
					return
				}
			}
		}()
	}
	writers.Wait()
	for deadline := time.Now().Add(10 * time.Second); applied.Load() < nodes*steps; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d records applied", applied.Load(), nodes*steps)
		}
	}
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if walks.Load() == 0 || statsTaken.Load() == 0 || held == nil {
		t.Fatalf("readers did not overlap the writers: %d walks, %d Stats, held %v", walks.Load(), statsTaken.Load(), held != nil)
	}
	if !reflect.DeepEqual(held, heldCopy) {
		t.Fatal("a Stats result changed after later applies")
	}
	for node, st := range store.Stats() {
		if st.Latest.Step != steps || torn(st.Latest) {
			t.Fatalf("node %d: final %+v, want step %d", node, st.Latest, steps)
		}
	}
}
