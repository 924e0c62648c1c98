package alert

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"orcf/internal/core"
	"orcf/internal/transmit"
)

// FuzzParseRules pins two properties of the rules-file parser: it never
// panics on hostile input, and any document it accepts survives a
// Marshal → ParseRules round trip identically (so a rules file rewritten by
// tooling keeps alerting on exactly the same conditions).
func FuzzParseRules(f *testing.F) {
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"rules": []}`))
	f.Add([]byte(`{"steps_per_hour": 12, "rules": [{"name": "hot", "kind": "threshold", "scope": "cluster", "above": true, "threshold": 0.8}]}`))
	f.Add([]byte(`{"rules": [{"name": "ramp", "kind": "trend", "scope": "node", "horizon": 6, "threshold": -0.25, "clear_margin": 0.1}]}`))
	f.Add([]byte(`{"rules": [{"name": "a", "kind": "threshold", "scope": "cluster", "cluster": -1, "fire_streak": 1, "clear_streak": 9}]}`))
	f.Add([]byte(`{"rules": [{"name": "dup", "kind": "threshold", "scope": "cluster"}, {"name": "dup", "kind": "threshold", "scope": "node"}]}`))
	f.Add([]byte(`{"rules": [{"name": "x", "kind": "threshold", "scope": "cluster", "threshold": 1e308}]}`))
	f.Add([]byte(`{"rules": []} trailing`))
	f.Add([]byte(`[1, 2, 3]`))
	f.Add([]byte(`"just a string"`))
	f.Add([]byte("\x00\xff\xfe"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := ParseRules(data)
		if err != nil {
			return
		}
		// Accepted documents are valid by construction...
		if verr := rs.Validate(); verr != nil {
			t.Fatalf("ParseRules accepted an invalid set: %v\ninput: %q", verr, data)
		}
		// ...and canonical: marshal and reparse must reproduce the set.
		out, err := rs.Marshal()
		if err != nil {
			t.Fatalf("marshal of accepted set failed: %v\ninput: %q", err, data)
		}
		rs2, err := ParseRules(out)
		if err != nil {
			t.Fatalf("reparse of own marshal failed: %v\nmarshal: %s", err, out)
		}
		if !reflect.DeepEqual(rs, rs2) {
			t.Fatalf("round trip drifted\nfirst:  %+v\nsecond: %+v", rs, rs2)
		}
	})
}

// byteSchedule replays a fuzzer's bytes as a differential schedule: every
// draw takes one byte, IntN(n) as the byte mod n and Float64 as the byte over
// 256. Past the end every draw reads 0xff: a step with no membership change
// and one evaluation.
type byteSchedule []byte

func (s *byteSchedule) next() byte {
	if len(*s) == 0 {
		return 0xff
	}
	b := (*s)[0]
	*s = (*s)[1:]
	return b
}

func (s *byteSchedule) IntN(n int) int { return int(s.next()) % n }

func (s *byteSchedule) Float64() float64 { return float64(s.next()) / 256 }

// driveBytes runs the differential on one fuzz input: its first byte picks
// the measurement seed, the rest is the schedule.
func driveBytes(t *testing.T, data []byte, cov *oracleCoverage) {
	s := byteSchedule(data)
	seed := 1 + uint64(s.next())
	driveSchedule(t, seed, &s, cov)
}

// FuzzEngineMatchesReference is TestEngineMatchesReference over arbitrary
// schedules: joins, removals, silences and the absence evictions they lead
// to, recycled slots, restores into a new System, and skipped or repeated
// generations, decoded from bytes, with the Engine's events, Stats and
// Active checked against the referenceEngine's after every evaluation. The
// committed corpus reaches every oracleCoverage counter
// (TestEngineFuzzCorpusCoverage).
func FuzzEngineMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		driveBytes(t, data, &oracleCoverage{})
	})
}

// TestEngineFuzzCorpusCoverage drives FuzzEngineMatchesReference's committed
// corpus and requires it to reach every path TestEngineMatchesReference
// counts, so a corpus that stops reaching one fails here rather than
// silently fuzzing less.
func TestEngineFuzzCorpusCoverage(t *testing.T) {
	t.Parallel()
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzEngineMatchesReference", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed corpus (%v)", err)
	}
	var cov oracleCoverage
	for _, name := range files {
		raw, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a one-[]byte corpus entry", name)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		driveBytes(t, []byte(data), &cov)
	}
	if cov.events == 0 || cov.departed == 0 || cov.recycled == 0 || cov.moved == 0 ||
		cov.restores == 0 || cov.skipped == 0 || cov.nanSkips == 0 {
		t.Fatalf("corpus lost coverage: %+v", cov)
	}
	t.Logf("coverage over %d corpus entries: %+v", len(files), cov)
}

// ruleSetFromBytes builds one to four rules from the fuzzer's bytes, each
// field drawn from a range that crosses its valid one: either kind or an
// unknown one, either scope, tracker −1…2, cluster −2…3, dim −1…2, horizon
// −1…6 (past the engine's MaxHorizon of 4), thresholds and clear margins
// that include NaN, ±Inf and negative values, and streaks −1…3.
func ruleSetFromBytes(data []byte) *RuleSet {
	s := byteSchedule(data)
	draw := func(n, lo int) int { return lo + s.IntN(n) }
	values := []float64{0.5, 0.2, 0.8, 0, 1, -0.1, 0.05, math.NaN(), math.Inf(1), math.Inf(-1), -1e300}
	rs := &RuleSet{StepsPerHour: draw(12, 1)}
	for i := range draw(4, 1) {
		rs.Rules = append(rs.Rules, Rule{
			Name:        fmt.Sprintf("r%d", i),
			Kind:        []Kind{KindThreshold, KindTrend, "spike"}[s.IntN(3)],
			Scope:       []Scope{ScopeCluster, ScopeNode}[s.IntN(2)],
			Tracker:     draw(4, -1),
			Cluster:     draw(6, -2),
			Dim:         draw(4, -1),
			Horizon:     draw(8, -1),
			Above:       s.IntN(2) == 1,
			Threshold:   values[s.IntN(len(values))],
			ClearMargin: values[s.IntN(len(values))],
			FireStreak:  draw(5, -1),
			ClearStreak: draw(5, -1),
		})
	}
	return rs
}

// FuzzRuleSet holds the engine to a binary contract over arbitrary rule
// sets: either New rejects the set with an error wrapping ErrBadRule, or 30
// evaluations of a small scalar and a small joint System (N = 6, d = 2,
// SnapshotHorizon 4) succeed, without a panic either way. Every node-scope
// event's Value must be what the rule reads off Snapshot.Forecast: the
// entry at the rule's horizon, the node's slot and the rule's resource —
// resource Tracker under scalar clustering, resource Dim under joint — or,
// for a trend rule, the per-hour slope from horizon 1 to it.
func FuzzRuleSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 2, 1, 2, 2, 1, 2, 2, 2, 1, 1})
	f.Add([]byte{11, 3, 1, 1, 2, 3, 2, 5, 0, 1, 6, 2, 3, 0, 0, 1, 0, 2, 4, 1, 1, 3, 5, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		rs := ruleSetFromBytes(data)
		for _, joint := range []bool{false, true} {
			engine, err := New(Config{Rules: rs, MaxHorizon: 4})
			if err != nil {
				if !errors.Is(err, ErrBadRule) {
					t.Fatalf("New(%+v): %v, want ErrBadRule", rs.Rules, err)
				}
				return
			}
			sys, err := core.NewSystem(core.Config{
				Nodes: 6, Resources: 2, K: 2, JointClustering: joint, InitialCollection: 4,
				RetrainEvery: 5, MPrime: 2, SnapshotHorizon: 4, Seed: 9,
				Policy: func(int) (transmit.Policy, error) { return transmit.Always{}, nil },
			})
			if err != nil {
				t.Fatal(err)
			}
			for step := range 30 {
				x := make([][]float64, 6)
				for i := range x {
					v := 0.5 + 0.45*math.Sin(float64(step)*0.3+float64(i))
					x[i] = []float64{v, 1 - v*v}
				}
				if _, err := sys.Step(x); err != nil {
					t.Fatal(err)
				}
				snap := sys.Snapshot()
				events, err := engine.Evaluate(snap)
				if err != nil {
					t.Fatalf("joint=%v step %d: %v", joint, step, err)
				}
				checkNodeEventValues(t, rs, snap, joint, events)
			}
		}
	})
}

// checkNodeEventValues requires each node-scope event's Value to be its
// rule's reading of snap.Forecast.
func checkNodeEventValues(t *testing.T, rs *RuleSet, snap *core.Snapshot, joint bool, events []Event) {
	t.Helper()
	var tensor [][][]float64
	for _, ev := range events {
		if ev.Scope != ScopeNode {
			continue
		}
		if tensor == nil {
			var err error
			if tensor, err = snap.Forecast(snap.MaxHorizon()); err != nil {
				t.Fatal(err)
			}
		}
		var r Rule
		for _, rule := range rs.Rules {
			if rule.Name == ev.Rule {
				r = rule
			}
		}
		res := r.Tracker
		if joint {
			res = r.Dim
		}
		slot, ok := snap.SlotOf(ev.Node)
		if !ok {
			t.Fatalf("event %+v: node not in the snapshot", ev)
		}
		want := tensor[r.Horizon-1][slot][res]
		if r.Kind == KindTrend {
			want = (want - tensor[0][slot][res]) / float64(r.Horizon-1) * float64(rs.StepsPerHour)
		}
		if math.Float64bits(ev.Value) != math.Float64bits(want) {
			t.Fatalf("joint=%v rule %+v node %d: event value %v, forecast reads %v", joint, r, ev.Node, ev.Value, want)
		}
	}
}
