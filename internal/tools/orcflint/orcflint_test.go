package orcflint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader amortizes standard-library type-checking across the fixture
// tests: the source importer caches packages per loader.
var (
	loaderOnce sync.Once
	loader     *Loader
)

func testLoader() *Loader {
	loaderOnce.Do(func() { loader = NewLoader() })
	return loader
}

// wantRe matches fixture expectations: `// want "substr"` expects a
// diagnostic on the same line, `// want(+1) "substr"` on the following line
// (for diagnostics anchored to suppression comments, which cannot carry a
// second comment themselves).
var wantRe = regexp.MustCompile(`// want(\(\+1\))? "([^"]*)"`)

type expectation struct {
	file    string
	line    int
	substr  string
	matched bool
}

func parseWants(t *testing.T, files []string) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range files {
		f, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				at := line
				if m[1] != "" {
					at++
				}
				wants = append(wants, &expectation{file: file, line: at, substr: m[2]})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture loads the fixture directory as a single package under
// importPath, runs exactly one analyzer, and checks the diagnostics against
// the `// want` comments: every expectation must be hit, and every
// diagnostic must be expected.
func runFixture(t *testing.T, a *Analyzer, importPath, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}
	pkg, err := testLoader().load(importPath, files)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}
	wants := parseWants(t, files)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if strings.Contains(d.Rule+": "+d.Msg, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic containing %q, got none", w.file, w.line, w.substr)
		}
	}
}

func TestLockIO(t *testing.T) {
	runFixture(t, LockIO, "orcf/internal/transport", filepath.Join("testdata", "lockio"))
}

func TestSnapFreeze(t *testing.T) {
	runFixture(t, SnapFreeze, "orcf/internal/core", filepath.Join("testdata", "snapfreeze"))
}

func TestDetRange(t *testing.T) {
	runFixture(t, DetRange, "orcf/internal/kmeans", filepath.Join("testdata", "detrange"))
}

func TestNaNJSON(t *testing.T) {
	runFixture(t, NaNJSON, "orcf/internal/serve", filepath.Join("testdata", "nanjson"))
}

func TestPureState(t *testing.T) {
	runFixture(t, PureState, "orcf/internal/persist", filepath.Join("testdata", "purestate"))
}

// TestScopedOut checks that a rule stays silent outside its package scope:
// the same PR 4 pattern that fires under orcf/internal/transport is ignored
// in an unrelated package.
func TestScopedOut(t *testing.T) {
	dir := filepath.Join("testdata", "lockio")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	pkg, err := testLoader().load("example.com/external/transport", files)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkg, []*Analyzer{LockIO})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		if d.Rule == "lockio" {
			t.Errorf("lockio fired outside its scope: %s", d)
		}
	}
}

// TestSuiteRegistry pins the analyzer set: the docs and driver both promise
// these five rules.
func TestSuiteRegistry(t *testing.T) {
	want := []string{"lockio", "snapfreeze", "detrange", "nanjson", "purestate"}
	got := All()
	if len(got) != len(want) {
		t.Fatalf("All() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("analyzer %d: got %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc", a.Name)
		}
	}
}

// TestRepoClean runs the full suite over the whole module and requires zero
// diagnostics — the same gate `make lint` enforces.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module; skipped under -short")
	}
	pkgs, err := testLoader().LoadPatterns([]string{"orcf/..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	for _, pkg := range pkgs {
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			t.Errorf("repo not lint-clean: %s", d)
		}
	}
}

// TestDiagnosticString pins the driver's output format.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Rule: "lockio", Msg: "boom"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: lockio: boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func ExampleDiagnostic_String() {
	d := Diagnostic{Rule: "nanjson", Msg: "unguarded float"}
	d.Pos.Filename = "serve.go"
	d.Pos.Line = 10
	d.Pos.Column = 2
	fmt.Println(d.String())
	// Output: serve.go:10:2: nanjson: unguarded float
}
