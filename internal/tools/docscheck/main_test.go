package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixture is a miniature repository that passes every gate: one binary
// with two flags, one histogram and one counter, one analyzer, two model
// families and two alert rule kinds, each documented where docscheck looks
// for it, plus the Makefile and workflow that run the gates.
func fixture() map[string]string {
	return map[string]string{
		"README.md": "# fixture\n\nSee [operations](docs/OPERATIONS.md).\n",
		"docs/OPERATIONS.md": "# Operations\n\n" +
			"## forecastd\n\n" +
			"`-state-dir DIR` keeps the WAL; `-nodes` sizes the fleet.\n\n" +
			"```sh\ngo run ./cmd/forecastd -fenced-only 1\n```\n\n" +
			"It exports `orcf_steps_total` and `orcf_step_seconds` (`orcf_step_seconds_bucket`).\n\n" +
			"Run `make lint`; suppress with `//orcflint:ignore <rule> <reason>`.\n\n" +
			"## Model families\n\n" +
			"| Family | Notes |\n|---|---|\n| `sample-and-hold` | default |\n| `holt` | trend |\n\n" +
			"## Alerting\n\n" +
			"| Kind | Meaning |\n|---|---|\n| `threshold` | level |\n| `trend` | slope |\n\n" +
			"### Why is this alert flapping?\n\nWiden the margin.\n",
		"docs/ARCHITECTURE.md": "# Architecture\n\nBack to the [readme](../README.md).\n\n" +
			"## Enforced invariants\n\n" +
			"| Analyzer | Invariant |\n|---|---|\n| `lockio` | no lock across I/O |\n",
		"Makefile": "ci: fmt docs\n\nfmt:\n\tgofmt -l .\n\ndocs:\n\tgo run ./internal/tools/docscheck\n",
		".github/workflows/ci.yml": "jobs:\n  ci:\n    steps:\n" +
			"      - name: gofmt\n        run: make fmt\n" +
			"      - name: docs gate\n        run: make docs\n",
		"go.mod": "module fixture\n\ngo 1.24\n",
		"fixture.go": "// Package fixture is the public package.\npackage fixture\n\n" +
			"// Stepped is documented.\nfunc Stepped() {}\n",
		"cmd/forecastd/main.go": "package main\n\nimport \"flag\"\n\n" +
			"func main() {\n\tfs := flag.NewFlagSet(\"forecastd\", flag.ExitOnError)\n" +
			"\tfs.String(\"state-dir\", \"\", \"\")\n\tflag.Int(\"nodes\", 8, \"\")\n}\n",
		"internal/obs/obs.go": "// Package obs registers the series.\npackage obs\n\n" +
			"var names = []string{\"orcf_steps_total\", \"orcf_step_seconds\"}\n",
		"internal/tools/orcflint/lockio.go": "// Package orcflint holds the analyzers.\npackage orcflint\n\n" +
			"// Analyzer is one check.\ntype Analyzer struct{ Name string }\n\n" +
			"var lockio = &Analyzer{Name: \"lockio\"}\n",
		"internal/forecast/registry.go": "package forecast\n\n" +
			"func mustRegister(name string, _ any) {}\n\n" +
			"func init() {\n\tmustRegister(\"sample-and-hold\", nil)\n\tmustRegister(\"holt\", nil)\n}\n",
		"internal/alert/rules.go": "// Package alert evaluates rules.\npackage alert\n\n" +
			"// Rule kinds.\nconst (\n\tKindThreshold = \"threshold\"\n\tKindTrend = \"trend\"\n)\n",
	}
}

// runCheck writes files into a fresh directory, runs every gate there and
// returns the problems.
func runCheck(t *testing.T, files map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	for _, dir := range gatedDirs {
		if err := os.MkdirAll(filepath.Join(root, dir), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(root)
	return check()
}

// edit replaces old, which must occur in the fixture file, by new.
func edit(t *testing.T, files map[string]string, name, old, new string) {
	t.Helper()
	if !strings.Contains(files[name], old) {
		t.Fatalf("fixture %s has no %q", name, old)
	}
	files[name] = strings.Replace(files[name], old, new, 1)
}

// wantProblem fails unless some problem names both file and name.
func wantProblem(t *testing.T, problems []string, file, name string) {
	t.Helper()
	for _, p := range problems {
		if strings.Contains(p, file) && strings.Contains(p, name) {
			return
		}
	}
	t.Fatalf("no problem names %s and %q; got %q", file, name, problems)
}

func TestCleanTreeReportsNothing(t *testing.T) {
	if problems := runCheck(t, fixture()); len(problems) != 0 {
		t.Fatalf("clean fixture: %q", problems)
	}
}

// TestReferenceDrift seeds one drift per direction into each two-way
// reference and expects exactly one problem, naming the doc file and the
// drifted name.
func TestReferenceDrift(t *testing.T) {
	const ops, arch = "docs/OPERATIONS.md", "docs/ARCHITECTURE.md"
	for _, c := range []struct {
		name           string
		file, old, new string
		wantFile, want string
	}{
		{"flag undocumented", "cmd/forecastd/main.go", "\tflag.Int(", "\tflag.Bool(\"verbose\", false, \"\")\n\tflag.Int(", ops, "verbose"},
		{"flag undeclared", ops, "`-nodes`", "`-nodes` and `-ghost-flag`", ops, "ghost-flag"},
		{"metric undocumented", "internal/obs/obs.go", "\"orcf_steps_total\",", "\"orcf_steps_total\", \"orcf_refits_total\",", ops, "orcf_refits_total"},
		{"metric undeclared", ops, "`orcf_steps_total`", "`orcf_steps_total`, `orcf_ghost_total`", ops, "orcf_ghost_total"},
		{"analyzer undocumented", "internal/tools/orcflint/lockio.go", "var lockio", "var detrange = &Analyzer{Name: \"detrange\"}\n\nvar lockio", arch, "detrange"},
		{"analyzer undeclared", arch, "| `lockio` |", "| `nanjson` | gone |\n| `lockio` |", arch, "nanjson"},
		{"family undocumented", "internal/forecast/registry.go", "mustRegister(\"holt\", nil)", "mustRegister(\"holt\", nil)\n\tmustRegister(\"arima\", nil)", ops, "arima"},
		{"family undeclared", ops, "| `holt` |", "| `lstm` | gone |\n| `holt` |", ops, "lstm"},
		{"rule kind undocumented", "internal/alert/rules.go", "\tKindTrend", "\tKindAbsent = \"absent\"\n\tKindTrend", ops, "absent"},
		{"rule kind undeclared", ops, "| `trend` |", "| `spike` | gone |\n| `trend` |", ops, "spike"},
	} {
		t.Run(c.name, func(t *testing.T) {
			files := fixture()
			edit(t, files, c.file, c.old, c.new)
			problems := runCheck(t, files)
			if len(problems) != 1 {
				t.Fatalf("want one problem, got %q", problems)
			}
			wantProblem(t, problems, c.wantFile, c.want)
		})
	}
}

// TestRequirements covers the gates that are not name lists.
func TestRequirements(t *testing.T) {
	const ops = "docs/OPERATIONS.md"
	for _, c := range []struct {
		name           string
		file, old, new string
		wantFile, want string
	}{
		{"broken link", "README.md", "(docs/OPERATIONS.md)", "(docs/MISSING.md)", "README.md", "MISSING.md"},
		{"undocumented export", "fixture.go", "// Stepped is documented.\n", "", "fixture.go", "Stepped"},
		{"no model families section", ops, "## Model families", "## Models", ops, "Model families"},
		{"no flapping runbook", ops, "### Why is this alert flapping?", "### Why is this alert noisy?", ops, "flapping"},
		{"no make lint", ops, "Run `make lint`", "Run the linter", ops, "make lint"},
	} {
		t.Run(c.name, func(t *testing.T) {
			files := fixture()
			edit(t, files, c.file, c.old, c.new)
			wantProblem(t, runCheck(t, files), c.wantFile, c.want)
		})
	}
}

// TestCIDrift: the Makefile's ci: prerequisites and the workflow's make
// steps are one more reference, checked both ways.
func TestCIDrift(t *testing.T) {
	const mk, ci = "Makefile", ".github/workflows/ci.yml"
	for _, c := range []struct {
		name           string
		file, old, new string
		want           string
	}{
		{"target not in the workflow", mk, "ci: fmt docs", "ci: fmt vet docs", "vet"},
		{"step not in ci:", ci, "run: make docs\n", "run: make docs\n      - name: race\n        run: make race\n", "race"},
	} {
		t.Run(c.name, func(t *testing.T) {
			files := fixture()
			edit(t, files, c.file, c.old, c.new)
			problems := runCheck(t, files)
			if len(problems) != 1 {
				t.Fatalf("want one problem, got %q", problems)
			}
			wantProblem(t, problems, ci, c.want)
		})
	}
}
