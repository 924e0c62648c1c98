package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBadFlagsExit pins that a flag no policy or agent can be built with
// exits 2 with the construction error, instead of printing it and exiting 0,
// and that valid flags still run the agents to -steps. Nothing listens on
// the collector address: an agent rides the outage out.
func TestBadFlagsExit(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string // in stderr for a failing row, in stdout for code 0
	}{
		{[]string{"-count", "0"}, 2, "-count must be ≥ 1"},
		{[]string{"-budget", "2"}, 2, "nodeagent: node 0: transmit: budget 2 outside [0,1]"},
		{[]string{"-budget", "-0.5", "-count", "3"}, 2, "nodeagent: node 0: transmit: budget -0.5 outside [0,1]"},
		{[]string{"-tick", "-1s"}, 2, "nodeagent: node 0: agent: interval -1s < 0"},
		{[]string{"-tick", "0"}, 0, "node 0: done after 5 steps"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-collector", "127.0.0.1:1", "-steps", "5"}, tc.args...)
			if got := run(args, &stdout, &stderr); got != tc.code {
				t.Fatalf("exit %d, want %d:\n%s", got, tc.code, stderr.String())
			}
			out, quiet := stderr.String(), stdout.Len() == 0
			if tc.code == 0 {
				out, quiet = stdout.String(), stderr.Len() == 0
			}
			if !strings.Contains(out, tc.want) || !quiet {
				t.Fatalf("stdout %q, stderr %q, want %q", stdout.String(), stderr.String(), tc.want)
			}
		})
	}
}
