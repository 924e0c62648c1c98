package main

import (
	"bytes"
	"go/build"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsChaosFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-chaos", "burst"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run -chaos burst = %d, want 2 (unknown flag)", code)
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -chaos") {
		t.Fatalf("stderr does not name the unknown flag:\n%s", stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("a rejected run wrote to stdout:\n%s", stdout.String())
	}
}

func TestRunRejectsBadFleetShape(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "0"},
		{"-nodes", "2", "-conns", "4"},
		{"-nodes", "4", "-conns", "1", "-steps", "0"},
		{"-nodes", "4", "-conns", "1", "-churn", "-1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run %q = %d, want 2", args, code)
		}
		if !strings.Contains(stderr.String(), "need nodes ≥ conns ≥ 1") {
			t.Errorf("run %q: stderr %q does not state the constraint", args, stderr.String())
		}
	}
}

// TestRunVerifiesStore soaks a small fleet end to end — agents, batched mux
// connections, the collector's store — and requires the bit-for-bit
// verification against the serial expectation to pass, with and without
// membership churn.
func TestRunVerifiesStore(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"static", []string{"-nodes", "32", "-conns", "2", "-steps", "12"}},
		{"churn", []string{"-nodes", "64", "-conns", "4", "-steps", "40", "-churn", "1.5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 0 {
				t.Fatalf("run %q = %d\nstdout:\n%s\nstderr:\n%s", tc.args, code, stdout.String(), stderr.String())
			}
			if !strings.Contains(stdout.String(), "0/") || !strings.Contains(stdout.String(), "loadgen: OK") {
				t.Fatalf("run %q did not report a clean verification:\n%s", tc.args, stdout.String())
			}
		})
	}
}

// TestImportGraph pins loadgen as a transport soak: nothing it links, in
// this module or out of it, may reach the serving pipeline or test servers.
func TestImportGraph(t *testing.T) {
	const module = "orcf/"
	banned := map[string]bool{
		"orcf/internal/alert": true,
		"orcf/internal/core":  true,
		"orcf/internal/serve": true,
		"net/http/httptest":   true,
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var walk func(path, dir string, chain []string)
	walk = func(path, dir string, chain []string) {
		if seen[path] {
			return
		}
		seen[path] = true
		chain = append(chain, path)
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for _, imp := range pkg.Imports {
			if banned[imp] {
				t.Errorf("loadgen imports %s via %s", imp, strings.Join(chain, " → "))
			}
			if strings.HasPrefix(imp, module) {
				walk(imp, filepath.Join(root, strings.TrimPrefix(imp, module)), chain)
			}
		}
	}
	walk("orcf/cmd/loadgen", ".", nil)
	if !seen["orcf/internal/transport"] {
		t.Fatal("walk never reached orcf/internal/transport; the graph was not followed")
	}
}
