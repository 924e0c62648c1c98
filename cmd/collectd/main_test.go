package main

import (
	"bytes"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"orcf/internal/transport"
)

// logBuf is a goroutine-safe log sink the test can read while run writes.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// daemon is one collectd run started on an ephemeral port.
type daemon struct {
	log  *logBuf
	stop chan os.Signal
	exit chan int
	addr string
}

func start(t *testing.T, stateDir string) *daemon {
	t.Helper()
	d := &daemon{log: new(logBuf), stop: make(chan os.Signal, 1), exit: make(chan int, 1)}
	go func() {
		d.exit <- run([]string{
			"-listen", "127.0.0.1:0", "-k", "3", "-resources", "2", "-interval", "10ms",
			"-state-dir", stateDir, "-absence-ticks", "10",
		}, d.stop, d.log)
	}()
	t.Cleanup(func() { // a failed test must not leave the daemon ticking
		select {
		case d.stop <- os.Interrupt:
		default:
		}
	})
	d.addr = d.await(t, nil, `msg=listening \S+ addr=(\S+)`)[1]
	return d
}

// await calls pump (the fleet's next samples; nil to just wait) until the
// log matches re, and returns the submatches.
func (d *daemon) await(t *testing.T, pump func(), re string) []string {
	t.Helper()
	rx := regexp.MustCompile(re)
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if m := rx.FindStringSubmatch(d.log.String()); m != nil {
			return m
		}
		select {
		case code := <-d.exit:
			t.Fatalf("collectd exited with %d waiting for %q:\n%s", code, re, d.log.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("log never matched %q:\n%s", re, d.log.String())
		}
		if pump != nil {
			pump()
		}
	}
}

func (d *daemon) shutdown(t *testing.T) {
	t.Helper()
	d.stop <- os.Interrupt
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("collectd exited with %d:\n%s", code, d.log.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("collectd did not stop:\n%s", d.log.String())
	}
}

// rosterFromLog replays the joined/evicted lines into the slot → node
// binding and renders the live members in slot order, the way the recovery
// line prints them.
func rosterFromLog(t *testing.T, log string) string {
	t.Helper()
	rx := regexp.MustCompile(`msg="(joined|evicted) node" component=collectd tick=\d+ node=(\d+)(?: slot=(\d+))?`)
	var slots []int // node per slot, -1 = tombstone
	for _, m := range rx.FindAllStringSubmatch(log, -1) {
		node, _ := strconv.Atoi(m[2])
		if m[1] == "evicted" {
			for i, id := range slots {
				if id == node {
					slots[i] = -1
				}
			}
			continue
		}
		slot, _ := strconv.Atoi(m[3])
		for len(slots) <= slot {
			slots = append(slots, -1)
		}
		slots[slot] = node
	}
	var members []int
	for _, id := range slots {
		if id >= 0 {
			members = append(members, id)
		}
	}
	return fmt.Sprint(members)
}

// TestChurnThenRestartRecoversRoster drives a real collectd: K+2 agents
// join, one goes silent until the absence timeout evicts it and then
// rejoins, the daemon is stopped and restarted on the same state directory,
// and the recovery line must report the step it stopped at and the roster
// it stopped with.
func TestChurnThenRestartRecoversRoster(t *testing.T) {
	const fleet = 5 // K + 2
	dir := t.TempDir()
	d := start(t, dir)

	clients := make([]*transport.BatchClient, fleet)
	dial := func(node int) {
		c, err := transport.DialBatch(d.addr, node, transport.BatchOptions{Linger: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		clients[node] = c
	}
	for node := range clients {
		dial(node)
	}
	defer func() {
		for _, c := range clients {
			if c != nil {
				_ = c.Close()
			}
		}
	}()
	step := 0
	pump := func() { // every live agent samples and transmits
		step++
		for node, c := range clients {
			if c == nil {
				continue
			}
			if err := c.Send(step, []float64{float64(node) / fleet, 0.5}); err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
		}
	}

	d.await(t, pump, `msg=clustering .* resource=1 nodes=5 `)
	for node := 0; node < fleet; node++ {
		d.await(t, pump, fmt.Sprintf(`msg="joined node" \S+ tick=\d+ node=%d `, node))
	}

	// Node 1 goes silent, is evicted, and comes back as a fresh member.
	_ = clients[1].Close()
	clients[1] = nil
	d.await(t, pump, `msg="evicted node" \S+ tick=\d+ node=1 silent_ticks=10`)
	dial(1)
	d.await(t, pump, `(?s)msg="evicted node".*msg="joined node" \S+ tick=\d+ node=1 `)
	d.await(t, pump, `(?s)msg="evicted node".*msg=clustering \S+ tick=\d+ resource=1 nodes=5 `)

	d.shutdown(t)
	stopped := regexp.MustCompile(`msg="final checkpoint written" \S+ step=(\d+)`).FindStringSubmatch(d.log.String())
	if stopped == nil || stopped[1] == "0" {
		t.Fatalf("no final checkpoint at a positive step:\n%s", d.log.String())
	}
	want := rosterFromLog(t, d.log.String())

	d2 := start(t, dir)
	defer d2.shutdown(t)
	got := d2.await(t, nil, `msg="recovered durable state" \S+ step=(\d+) .* members="([^"]*)"`)
	if got[1] != stopped[1] {
		t.Fatalf("recovered to step %s, stopped at %s", got[1], stopped[1])
	}
	if got[2] != want {
		t.Fatalf("recovered roster %s, stopped with %s", got[2], want)
	}
}
