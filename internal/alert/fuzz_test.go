package alert

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
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
