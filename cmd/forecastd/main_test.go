package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"regexp"
	"strconv"
	"strings"
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

// daemon is one forecastd run started on ephemeral ports.
type daemon struct {
	log    *logBuf
	stop   chan os.Signal
	exit   chan int
	ingest string
	http   string // `""` in the log when the query plane is off
}

// start runs forecastd on the state directory; httpAddr "" makes it a
// collector only. extra flags follow the defaults, so they override them.
func start(t *testing.T, stateDir, httpAddr string, interval time.Duration, extra ...string) *daemon {
	t.Helper()
	d := &daemon{log: new(logBuf), stop: make(chan os.Signal, 1), exit: make(chan int, 1)}
	args := append([]string{
		"-ingest", "127.0.0.1:0", "-http", httpAddr, "-k", "3", "-resources", "2",
		"-interval", interval.String(), "-initial", "20", "-retrain", "50", "-horizon", "8",
		"-state-dir", stateDir, "-absence-ticks", "10",
	}, extra...)
	go func() { d.exit <- run(args, d.stop, d.log) }()
	t.Cleanup(func() { // a failed test must not leave the daemon ticking
		select {
		case d.stop <- os.Interrupt:
		default:
		}
	})
	m := d.await(t, nil, `msg=listening \S+ ingest=(\S+) http=(\S+)`)
	d.ingest, d.http = m[1], m[2]
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
			t.Fatalf("forecastd exited with %d waiting for %q:\n%s", code, re, d.log.String())
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

// shutdown interrupts the daemon, which must exit 0 after its final
// checkpoint, and returns the step it stopped at.
func (d *daemon) shutdown(t *testing.T) string {
	t.Helper()
	d.stop <- os.Interrupt
	select {
	case code := <-d.exit:
		if code != 0 {
			t.Fatalf("forecastd exited with %d:\n%s", code, d.log.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("forecastd did not stop:\n%s", d.log.String())
	}
	m := regexp.MustCompile(`msg="final checkpoint written" \S+ step=(\d+)`).FindStringSubmatch(d.log.String())
	if m == nil || m[1] == "0" {
		t.Fatalf("no final checkpoint at a positive step:\n%s", d.log.String())
	}
	return m[1]
}

// get fetches a query-plane path and returns the body with the generation
// and step it was served at.
func (d *daemon) get(t *testing.T, path string) (body []byte, generation uint64, step string) {
	t.Helper()
	resp, err := http.Get("http://" + d.http + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err = io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", path, resp.Status, body)
	}
	var at struct {
		Generation uint64
		Step       int
	}
	if err := json.Unmarshal(body, &at); err != nil {
		t.Fatalf("GET %s: %v: %s", path, err, body)
	}
	return body, at.Generation, strconv.Itoa(at.Step)
}

// metric reads one unlabelled series from the query plane's /metrics.
func (d *daemon) metric(t *testing.T, name string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + d.http + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindSubmatch(body)
	if m == nil {
		t.Fatalf("/metrics has no %s:\n%s", name, body)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// rosterFromLog replays the joined/evicted lines into the slot → node
// binding and renders the live members in slot order, the way the recovery
// line prints them.
func rosterFromLog(t *testing.T, log string) string {
	t.Helper()
	rx := regexp.MustCompile(`msg="(joined|evicted) node" component=forecastd step=\d+ generation=\d+ node=(\d+)(?: slot=(\d+))?`)
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

// summaryOf5 matches the periodic step line once five members are clustered:
// K centroids for each of the two resources and the store-accounted eq. 5
// frequencies.
const summaryOf5 = `msg="pipeline step" [^\n]* clustered=5 centroids="\[\[\S+ \S+ \S+\] \[\S+ \S+ \S+\]\]" tx_mean=\S+ tx_min=\S+ tx_max=\S+`

// TestSelectionFlagsRequireZoo pins that the -select-* flags, which tune the
// champion selector of a zoo of two or more families, exit 2 with the
// pipeline's one rejection line anywhere else instead of being silently
// ignored — and that their defaults, given explicitly or not, or an
// explicit value under a real zoo, never trip the check.
func TestSelectionFlagsRequireZoo(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"-select-window", "16"}, 2},
		{[]string{"-models", "ses", "-select-metric", "rmse"}, 2},
		{[]string{"-models", "ses", "-select-margin", "0", "-select-streak", "3"}, 2},
		{[]string{"-select-margin", "0"}, 0},
		{[]string{"-models", "ses,ar", "-select-streak", "5"}, 0},
		{[]string{"-models", "ses"}, 0},
		{nil, 0},
	} {
		log := new(logBuf)
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt // a daemon that starts stops at once
		args := append([]string{"-ingest", "127.0.0.1:0", "-http", "", "-interval", "1h"}, tc.args...)
		if got := run(args, stop, log); got != tc.want {
			t.Fatalf("%q: exit %d, want %d:\n%s", tc.args, got, tc.want, log)
		}
		rejected := regexp.MustCompile(`level=ERROR msg="pipeline construction" [^\n]*without a zoo of two or more families`).
			FindAllString(log.String(), -1)
		lines := strings.Count(log.String(), "\n")
		if (tc.want == 2 && (len(rejected) != 1 || lines != 1)) || (tc.want == 0 && len(rejected) != 0) {
			t.Fatalf("%q: %d rejection lines:\n%s", tc.args, len(rejected), log)
		}
	}
}

// TestUnfittableZooExitsBeforeListening pins that a model family the first
// fit cannot serve — holt-winters, season 288, needs 576 values and the
// warm-up is 50 — ends forecastd with the pipeline's configuration error,
// exit 2, before the collector listens: the ingest address is held by the
// test, so a daemon that listened first would fail on it instead.
func TestUnfittableZooExitsBeforeListening(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	for _, models := range []string{"holt-winters", "ses,holt-winters"} {
		log := new(logBuf)
		stop := make(chan os.Signal, 1)
		stop <- os.Interrupt
		args := []string{"-ingest", held.Addr().String(), "-http", "", "-interval", "1h", "-models", models}
		if got := run(args, stop, log); got != 2 {
			t.Fatalf("-models %s: exit %d, want 2:\n%s", models, got, log)
		}
		out := log.String()
		if !strings.Contains(out, `msg="pipeline construction"`) ||
			!strings.Contains(out, "needs ≥ 576 observations, the first fit has 50") ||
			!strings.Contains(out, "invalid configuration") ||
			strings.Contains(out, "ingest listen") || strings.Contains(out, "msg=listening") {
			t.Fatalf("-models %s: want the pipeline's configuration error and no listen:\n%s", models, out)
		}
	}
}

// TestBadFlagsExitBeforeListening pins that every flag, the rules file
// included, is checked before the collector listens: each bad value exits 2
// with its one error line, a configuration the pipeline rejects included. The ingest address is held by the test, so a
// daemon that listened first would fail on it instead. A -horizon of 0 is
// fine for a collector without rules, which publishes no snapshot.
func TestBadFlagsExitBeforeListening(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	dir := t.TempDir()
	badRules := dir + "/bad.json"
	if err := os.WriteFile(badRules, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		msg  string // the error line's msg; "" for a daemon that starts
	}{
		{[]string{"-interval", "0"}, `"-interval must be > 0"`},
		{[]string{"-interval", "-1s"}, `"-interval must be > 0"`},
		{[]string{"-horizon", "0", "-http", "127.0.0.1:0"}, `"-horizon must be ≥ 1 with -http or -rules"`},
		{[]string{"-horizon", "0", "-rules", badRules}, `"-horizon must be ≥ 1 with -http or -rules"`},
		{[]string{"-webhook", "http://127.0.0.1:1/hook"}, `"-webhook requires -rules"`},
		{[]string{"-max-inflight", "-1", "-http", "127.0.0.1:0"}, `"-max-inflight must be ≥ 0"`},
		{[]string{"-idle-timeout", "-1s"}, `"-idle-timeout must be ≥ 0"`},
		{[]string{"-k", "0"}, `"-k must be ≥ 1"`},
		{[]string{"-k", "-1"}, `"-k must be ≥ 1"`},
		{[]string{"-resources", "0"}, `"-resources must be ≥ 1"`},
		{[]string{"-nodes", "-1"}, `"pipeline construction"`},
		{[]string{"-initial", "-1"}, `"pipeline construction"`},
		{[]string{"-retrain", "-1"}, `"pipeline construction"`},
		{[]string{"-absence-ticks", "-1"}, `"pipeline construction"`},
		{[]string{"-models", "ses,ar", "-select-metric", "mape"}, `"pipeline construction"`},
		{[]string{"-rules", dir + "/missing.json"}, `-rules`},
		{[]string{"-rules", badRules}, `-rules`},
		{[]string{"-horizon", "0"}, ""},
	} {
		t.Run(strings.ReplaceAll(strings.Join(tc.args, " "), dir+"/", ""), func(t *testing.T) {
			log := new(logBuf)
			stop := make(chan os.Signal, 1)
			stop <- os.Interrupt // a daemon that starts stops at once
			ingest, want := held.Addr().String(), 2
			if tc.msg == "" {
				ingest, want = "127.0.0.1:0", 0
			}
			args := append([]string{"-ingest", ingest, "-http", "", "-interval", "1h"}, tc.args...)
			if got := run(args, stop, log); got != want {
				t.Fatalf("exit %d, want %d:\n%s", got, want, log)
			}
			out := log.String()
			if tc.msg != "" && (!strings.Contains(out, "level=ERROR msg="+tc.msg) || strings.Count(out, "\n") != 1 || strings.Contains(out, "listen")) {
				t.Fatalf("want one error line msg=%s and no listen:\n%s", tc.msg, out)
			}
		})
	}
}

// TestChurnThenRestartRecoversRoster drives a real forecastd, as a collector
// only and with the query plane: K+2 agents join, one goes silent until the
// absence timeout evicts it and then rejoins, the daemon is stopped and
// restarted on the same state directory, and the recovery line must report
// the step it stopped at and the roster it stopped with. With the query plane
// on, the restarted daemon must also serve, at the generation it stopped at,
// the very bytes that generation was served with before the stop.
func TestChurnThenRestartRecoversRoster(t *testing.T) {
	t.Run("collector only", func(t *testing.T) { churnThenRestart(t, "") })
	t.Run("query plane", func(t *testing.T) { churnThenRestart(t, "127.0.0.1:0") })
}

func churnThenRestart(t *testing.T, httpAddr string) {
	const fleet = 5 // K + 2
	dir := t.TempDir()
	d := start(t, dir, httpAddr, 10*time.Millisecond)

	clients := make([]*transport.BatchClient, fleet)
	dial := func(node int) {
		c, err := transport.DialBatch(d.ingest, node, transport.BatchOptions{Linger: time.Millisecond})
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

	d.await(t, pump, summaryOf5)
	for node := 0; node < fleet; node++ {
		d.await(t, pump, fmt.Sprintf(`msg="joined node" \S+ step=\d+ generation=\d+ node=%d slot=\d+`, node))
	}

	// Node 1 goes silent, is evicted, and comes back as a fresh member.
	_ = clients[1].Close()
	clients[1] = nil
	d.await(t, pump, `msg="evicted node" \S+ step=\d+ generation=\d+ node=1 silent_ticks=10`)
	dial(1)
	d.await(t, pump, `(?s)msg="evicted node".*msg="joined node" \S+ step=\d+ generation=\d+ node=1 slot=\d+`)
	d.await(t, pump, `(?s)msg="evicted node".*`+summaryOf5)
	d.await(t, pump, `msg="models trained"`)

	stopped := d.shutdown(t)
	want := rosterFromLog(t, d.log.String())

	recovered := func(d *daemon, stopped string) {
		t.Helper()
		got := d.await(t, nil, `msg="recovered durable state" \S+ step=(\d+) .* members="([^"]*)"`)
		if got[1] != stopped {
			t.Fatalf("recovered to step %s, stopped at %s", got[1], stopped)
		}
		if got[2] != want {
			t.Fatalf("recovered roster %s, stopped with %s", got[2], want)
		}
	}
	if httpAddr == "" {
		d2 := start(t, dir, httpAddr, 10*time.Millisecond)
		recovered(d2, stopped)
		d2.shutdown(t)
		return
	}

	// A slow second run takes live steps past the recovered generation; read
	// the forecast one of them published and stop before the next. (Should a
	// tick slip in between the read and the stop, go around again.)
	var before []byte
	var generation uint64
	for attempt := 1; ; attempt++ {
		d2 := start(t, dir, httpAddr, 250*time.Millisecond)
		recovered(d2, stopped)
		_, restored, _ := d2.get(t, "/v1/forecast?h=4")
		var servedAt string
		for generation = restored; generation == restored; time.Sleep(5 * time.Millisecond) {
			before, generation, servedAt = d2.get(t, "/v1/forecast?h=4")
		}
		if stopped = d2.shutdown(t); stopped == servedAt {
			break
		}
		if attempt == 3 {
			t.Fatalf("no forecast read at the generation the daemon stopped at in %d runs", attempt)
		}
	}

	// The third run never ticks: what it serves is what restore republished.
	d3 := start(t, dir, httpAddr, time.Hour)
	recovered(d3, stopped)
	after, restored, _ := d3.get(t, "/v1/forecast?h=4")
	if restored != generation {
		t.Fatalf("restart serves generation %d, stopped at %d", restored, generation)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("forecast served after the restart differs from the one served before the stop:\n got %s\nwant %s", after, before)
	}
	stats, _, _ := d3.get(t, "/v1/stats")
	var st struct {
		Persist *struct {
			RecoveredStep int `json:"recovered_step"`
		}
	}
	if err := json.Unmarshal(stats, &st); err != nil {
		t.Fatal(err)
	}
	if st.Persist == nil || strconv.Itoa(st.Persist.RecoveredStep) != stopped {
		t.Fatalf("/v1/stats persist block %+v, want recovered_step %s:\n%s", st.Persist, stopped, stats)
	}
	d3.shutdown(t)
}

// TestHugeFiniteRecordKeepsDaemonServing is the daemon-level reproducer of a
// remote record that used to stop the collector: under a zoo with ar, one
// member of a three-node fleet, all sent by one in-process agent, reports
// 1e160 from the first trained step on. Squared, that value overflows an AR
// fit's normal equations, and a failed fit used to end the daemon with exit
// 1 at the next retrain. The record must instead be rejected and counted in
// orcf_ingest_rejected_records_total, the daemon must keep ticking and
// serving forecasts through several retrains, and it must exit 0 on stop.
func TestHugeFiniteRecordKeepsDaemonServing(t *testing.T) {
	const rejected = "orcf_ingest_rejected_records_total"
	d := start(t, t.TempDir(), "127.0.0.1:0", 10*time.Millisecond,
		"-k", "2", "-models", "sample-and-hold,ar", "-initial", "10", "-retrain", "5")
	agent, err := transport.DialBatch(d.ingest, 0, transport.BatchOptions{Linger: time.Millisecond, Mux: true})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	huge := false
	step := 0
	pump := func() { // the agent samples and transmits for all three nodes
		step++
		for node := 0; node < 3; node++ {
			v := 0.2 + 0.3*float64(node) + 0.05*float64(step%7)/7
			if node == 2 && huge {
				v = 1e160
			}
			if err := agent.SendNode(node, step, []float64{v, 0.5}); err != nil {
				t.Fatalf("node %d: %v", node, err)
			}
		}
	}
	d.await(t, pump, `msg="models trained"`)
	if got := d.metric(t, rejected); got != 0 {
		t.Fatalf("%s = %v before any out-of-range record", rejected, got)
	}
	huge = true
	ticks := strings.Count(d.log.String(), `msg="pipeline step"`)
	// The periodic line comes every 25 ticks: 50 ticks span ten retrains.
	d.await(t, pump, fmt.Sprintf(`(?s)(msg="pipeline step" [^\n]*ready=true.*){%d}`, ticks+2))
	if got := d.metric(t, rejected); got == 0 {
		t.Fatalf("%s did not rise while a member sent 1e160", rejected)
	}
	d.get(t, "/v1/forecast?h=2")
	d.shutdown(t)
}
