// Command docscheck is the CI docs gate: it fails when documentation has
// drifted from the code.
//
// It enforces seven invariants:
//
//  1. Markdown hygiene — every relative link in README.md and docs/*.md
//     resolves to an existing file or directory in the repository.
//  2. Godoc coverage — every exported identifier (top-level consts, vars,
//     types, funcs, and methods on exported types) in the gated packages
//     (the root orcf package, internal/core, internal/serve,
//     internal/persist, internal/transmit, internal/cluster) carries a doc
//     comment.
//  3. Flag reference — every command-line flag registered by a cmd/*
//     binary appears (as an inline `-flag` code span) in
//     docs/OPERATIONS.md, and every `-flag` span in OPERATIONS.md is still
//     registered by some binary, so the operational flag reference can
//     never drift from the code in either direction. Fenced code blocks
//     are ignored: an example invocation is not documentation.
//  4. Lint reference — every analyzer registered in internal/tools/orcflint
//     has a row in the "Enforced invariants" table of docs/ARCHITECTURE.md,
//     every table row names a registered analyzer (two-way, like the flag
//     gate), and docs/OPERATIONS.md documents the `make lint` target and
//     the `orcflint:ignore` suppression convention.
//  5. Metric reference — every `orcf_*` series name appearing as a string
//     literal in non-test Go code is documented (as an inline code span) in
//     docs/OPERATIONS.md, and every `orcf_*` name OPERATIONS.md mentions is
//     still registered somewhere in the code, so the metrics reference can
//     never drift in either direction. Series names must therefore be
//     spelled as full literals at registration sites (no runtime
//     concatenation) — serve.stepPhaseSeries is the pattern.
//  6. Model-family reference — every forecasting family registered via
//     mustRegister in internal/forecast/registry.go has a row in the
//     "Model families" table of docs/OPERATIONS.md, and every table row
//     names a registered family (two-way, like the flag gate), so the
//     operator-facing roster for -models / WithModelZoo can never drift.
//  7. Alert reference — every alert rule kind declared in
//     internal/alert/rules.go (the Kind* string constants) has a row in the
//     rule-kind table of the "Alerting" section of docs/OPERATIONS.md, and
//     every table row names a declared kind (two-way, like the flag gate);
//     the section must also carry the flapping-alert runbook. Together with
//     gate 5 (which covers the orcf_alert_* series) the alerting reference
//     can never drift from the engine.
//
// Run from the repository root: go run ./internal/tools/docscheck
// (make ci and .github/workflows/ci.yml do). Exit status 1 lists every
// violation.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// gatedDirs are the directories whose exported identifiers must be
// documented. "." is the public orcf package.
var gatedDirs = []string{".", "internal/core", "internal/serve", "internal/persist",
	"internal/transmit", "internal/cluster", "internal/tools/orcflint", "internal/obs",
	"internal/alert"}

// markdownFiles lists the documents whose links are checked, plus every
// *.md under docs/.
var markdownFiles = []string{"README.md"}

func main() {
	var problems []string
	problems = append(problems, checkMarkdown()...)
	problems = append(problems, checkGodoc()...)
	problems = append(problems, checkFlags()...)
	problems = append(problems, checkLintDocs()...)
	problems = append(problems, checkMetrics()...)
	problems = append(problems, checkModelRegistry()...)
	problems = append(problems, checkAlertDocs()...)
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// linkRe matches inline markdown links [text](target).
var linkRe = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func checkMarkdown() []string {
	files := append([]string(nil), markdownFiles...)
	docs, err := filepath.Glob("docs/*.md")
	if err == nil {
		files = append(files, docs...)
	}
	if len(docs) == 0 {
		return []string{"docscheck: no docs/*.md found (docs plane missing?)"}
	}
	var problems []string
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: %v", err))
			continue
		}
		for _, match := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := match[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (%s does not exist)", file, match[1], resolved))
			}
		}
	}
	return problems
}

func checkGodoc() []string {
	var problems []string
	for _, dir := range gatedDirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: parsing %s: %v", dir, err))
			continue
		}
		for _, pkg := range pkgs {
			for file, f := range pkg.Files {
				problems = append(problems, checkFile(fset, file, f)...)
			}
		}
	}
	return problems
}

// checkFile reports every exported top-level identifier and method in one
// file that lacks a doc comment.
func checkFile(fset *token.FileSet, file string, f *ast.File) []string {
	var problems []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, what, name))
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() || d.Doc != nil {
				continue
			}
			what := "function"
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				recv := receiverName(d.Recv.List[0].Type)
				if recv != "" && !ast.IsExported(recv) {
					continue // method on an unexported type
				}
				what = "method"
				name = recv + "." + name
			}
			report(d.Pos(), what, name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(s.Pos(), "type", s.Name.Name)
					}
				case *ast.ValueSpec:
					// A const/var block's grouping comment covers all its
					// specs; otherwise each exported spec needs its own.
					if d.Doc != nil {
						continue
					}
					for _, n := range s.Names {
						if n.IsExported() && s.Doc == nil && s.Comment == nil {
							what := "var"
							if d.Tok == token.CONST {
								what = "const"
							}
							report(n.Pos(), what, n.Name)
						}
					}
				}
			}
		}
	}
	return problems
}

// operationsDoc is the file carrying the operational flag reference.
const operationsDoc = "docs/OPERATIONS.md"

// flagFuncs are the flag-package constructors whose first argument is the
// flag name.
var flagFuncs = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "String": true, "Duration": true,
}

// checkFlags enforces the two-way flag-reference invariant between the
// cmd/* binaries and docs/OPERATIONS.md.
func checkFlags() []string {
	registered, problems := registeredFlags()
	documented, docProblems := documentedFlags()
	problems = append(problems, docProblems...)

	var missing []string
	for name, cmds := range registered {
		if !documented[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: flag `-%s` (registered by %s) is not documented", operationsDoc, name,
				strings.Join(cmds, ", ")))
		}
	}
	for name := range documented {
		if _, ok := registered[name]; !ok {
			missing = append(missing, fmt.Sprintf(
				"%s: documents flag `-%s`, which no cmd/* binary registers", operationsDoc, name))
		}
	}
	sort.Strings(missing)
	return append(problems, missing...)
}

// registeredFlags parses every cmd/* package and returns flag name →
// registering commands.
func registeredFlags() (map[string][]string, []string) {
	var problems []string
	flags := make(map[string][]string)
	dirs, err := filepath.Glob("cmd/*")
	if err != nil || len(dirs) == 0 {
		return flags, []string{"docscheck: no cmd/* directories found"}
	}
	for _, dir := range dirs {
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			continue
		}
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: parsing %s: %v", dir, err))
			continue
		}
		cmd := filepath.Base(dir)
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !flagFuncs[sel.Sel.Name] || len(call.Args) == 0 {
						return true
					}
					// The flag package itself, or a FlagSet named fs (cmd/forecastd's
					// run takes its arguments as a parameter).
					if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
						return true
					}
					lit, ok := call.Args[0].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						return true
					}
					name := strings.Trim(lit.Value, `"`)
					if !contains(flags[name], cmd) {
						flags[name] = append(flags[name], cmd)
					}
					return true
				})
			}
		}
	}
	return flags, problems
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// flagSpanRe matches a -flag token at the start (or after a space) of an
// inline code span's content.
var (
	inlineCodeRe = regexp.MustCompile("`([^`]+)`")
	flagSpanRe   = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
)

// documentedFlags extracts the flags OPERATIONS.md mentions in inline code
// spans, skipping fenced code blocks.
func documentedFlags() (map[string]bool, []string) {
	data, err := os.ReadFile(operationsDoc)
	if err != nil {
		return nil, []string{fmt.Sprintf("docscheck: %v", err)}
	}
	out := make(map[string]bool)
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, span := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			for _, m := range flagSpanRe.FindAllStringSubmatch(span[1], -1) {
				out[m[1]] = true
			}
		}
	}
	return out, nil
}

// architectureDoc carries the "Enforced invariants" analyzer table.
const architectureDoc = "docs/ARCHITECTURE.md"

// lintDir is the analyzer suite package.
const lintDir = "internal/tools/orcflint"

// invariantsHeading opens the section holding the analyzer table.
const invariantsHeading = "## Enforced invariants"

// analyzerRowRe matches a table row whose first column is an inline-code
// analyzer name: | `lockio` | ... |
var analyzerRowRe = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9]*)`\\s*\\|")

// checkLintDocs enforces the two-way analyzer-reference invariant between
// internal/tools/orcflint and the docs, mirroring the flag gate: each
// registered analyzer needs a table row in ARCHITECTURE.md's "Enforced
// invariants" section, each row must name a registered analyzer, and
// OPERATIONS.md must document the lint entry point and the suppression
// convention.
func checkLintDocs() []string {
	registered, problems := registeredAnalyzers()
	if len(registered) == 0 {
		problems = append(problems,
			fmt.Sprintf("docscheck: no Analyzer literals with Name fields found in %s", lintDir))
	}

	documented, sectionFound, err := documentedAnalyzers()
	if err != nil {
		return append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	if !sectionFound {
		problems = append(problems, fmt.Sprintf(
			"%s: missing %q section (analyzer table)", architectureDoc, invariantsHeading))
	}
	var missing []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: analyzer `%s` (registered in %s) has no row in the %q table",
				architectureDoc, name, lintDir, invariantsHeading))
		}
	}
	for name := range documented {
		if !registered[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: documents analyzer `%s`, which %s does not register",
				architectureDoc, name, lintDir))
		}
	}
	sort.Strings(missing)
	problems = append(problems, missing...)

	ops, err := os.ReadFile(operationsDoc)
	if err != nil {
		return append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	for _, needle := range []string{"make lint", "orcflint:ignore"} {
		if !strings.Contains(string(ops), needle) {
			problems = append(problems, fmt.Sprintf(
				"%s: must document %q (lint entry point / suppression convention)",
				operationsDoc, needle))
		}
	}
	return problems
}

// registeredAnalyzers parses the orcflint package and collects the Name
// fields of Analyzer composite literals.
func registeredAnalyzers() (map[string]bool, []string) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, lintDir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		return names, []string{fmt.Sprintf("docscheck: parsing %s: %v", lintDir, err)}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				cl, ok := n.(*ast.CompositeLit)
				if !ok {
					return true
				}
				if id, ok := cl.Type.(*ast.Ident); !ok || id.Name != "Analyzer" {
					return true
				}
				for _, elt := range cl.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); !ok || key.Name != "Name" {
						continue
					}
					if lit, ok := kv.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
						names[strings.Trim(lit.Value, `"`)] = true
					}
				}
				return true
			})
		}
	}
	return names, nil
}

// documentedAnalyzers scans ARCHITECTURE.md's "Enforced invariants" section
// for analyzer table rows.
func documentedAnalyzers() (map[string]bool, bool, error) {
	data, err := os.ReadFile(architectureDoc)
	if err != nil {
		return nil, false, err
	}
	out := make(map[string]bool)
	inSection, found := false, false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, invariantsHeading)
			if inSection {
				found = true
			}
			continue
		}
		if !inSection {
			continue
		}
		if m := analyzerRowRe.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	return out, found, nil
}

// metricNameRe matches a complete orcf_* series name: underscore-separated
// lowercase/digit words. A trailing underscore (a concatenation prefix like
// "orcf_step_") deliberately does not match — full names must be literal.
var metricNameRe = regexp.MustCompile(`^orcf_[a-z0-9]+(?:_[a-z0-9]+)*$`)

// metricSpanRe extracts orcf_* tokens from inline code span content.
var metricSpanRe = regexp.MustCompile(`\borcf_[a-z0-9_]*[a-z0-9]\b`)

// histogramSuffixes are the per-series forms the Prometheus text exposition
// derives from one registered histogram; docs mentioning a derived form
// count as documenting the base series.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

// checkMetrics enforces the two-way metric-reference invariant between the
// registered orcf_* series and docs/OPERATIONS.md, mirroring the flag gate.
// The registered side is collected statically: every string literal in
// non-test Go code matching metricNameRe. That is exactly why registration
// sites spell series names as full literals — a name built by concatenation
// at runtime would be invisible here and flagged as documented-but-missing.
func checkMetrics() []string {
	registered, problems := registeredMetrics()
	if len(registered) == 0 {
		problems = append(problems, "docscheck: no orcf_* metric literals found in non-test Go code")
	}
	documented, docProblems := documentedMetrics()
	problems = append(problems, docProblems...)

	var missing []string
	for name, file := range registered {
		if !documented[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: metric `%s` (registered in %s) is not documented", operationsDoc, name, file))
		}
	}
	for name := range documented {
		if _, ok := registered[name]; ok {
			continue
		}
		base := name
		for _, suf := range histogramSuffixes {
			if s, ok := strings.CutSuffix(name, suf); ok {
				base = s
				break
			}
		}
		if _, ok := registered[base]; !ok {
			missing = append(missing, fmt.Sprintf(
				"%s: documents metric `%s`, which no Go file registers", operationsDoc, name))
		}
	}
	sort.Strings(missing)
	return append(problems, missing...)
}

// registeredMetrics walks the repository's non-test Go files and returns
// metric name → one file registering it.
func registeredMetrics() (map[string]string, []string) {
	var problems []string
	names := make(map[string]string)
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			base := d.Name()
			if base == ".git" || base == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: parsing %s: %v", path, err))
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			name := strings.Trim(lit.Value, "`\"")
			if metricNameRe.MatchString(name) {
				if _, seen := names[name]; !seen {
					names[name] = path
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	return names, problems
}

// documentedMetrics extracts the orcf_* names OPERATIONS.md mentions in
// inline code spans, skipping fenced code blocks (same rules as flags).
func documentedMetrics() (map[string]bool, []string) {
	data, err := os.ReadFile(operationsDoc)
	if err != nil {
		return nil, []string{fmt.Sprintf("docscheck: %v", err)}
	}
	out := make(map[string]bool)
	inFence := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, span := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
			for _, m := range metricSpanRe.FindAllString(span[1], -1) {
				if metricNameRe.MatchString(m) {
					out[m] = true
				}
			}
		}
	}
	return out, nil
}

// forecastRegistryFile is the model-zoo registry whose mustRegister calls
// define the forecasting family names (the -models / WithModelZoo roster).
const forecastRegistryFile = "internal/forecast/registry.go"

// familiesHeading opens the OPERATIONS.md section holding the family table.
const familiesHeading = "## Model families"

// familyRowRe matches a table row whose first column is an inline-code
// family name: | `sample-and-hold` | ... |
var familyRowRe = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9-]*)`\\s*\\|")

// checkModelRegistry enforces the two-way model-family invariant between
// internal/forecast/registry.go and docs/OPERATIONS.md, mirroring the
// analyzer gate: every mustRegister'd family needs a table row in the
// "Model families" section, and every row must name a registered family.
// Family names must therefore be spelled as string literals at the
// mustRegister call sites — a name built at runtime would be invisible here.
func checkModelRegistry() []string {
	registered, problems := registeredFamilies()
	if len(registered) == 0 {
		problems = append(problems, fmt.Sprintf(
			"docscheck: no mustRegister string literals found in %s", forecastRegistryFile))
	}
	documented, sectionFound, err := documentedFamilies()
	if err != nil {
		return append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	if !sectionFound {
		problems = append(problems, fmt.Sprintf(
			"%s: missing %q section (model-family table)", operationsDoc, familiesHeading))
	}
	var missing []string
	for name := range registered {
		if !documented[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: model family `%s` (registered in %s) has no row in the %q table",
				operationsDoc, name, forecastRegistryFile, familiesHeading))
		}
	}
	for name := range documented {
		if !registered[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: documents model family `%s`, which %s does not register",
				operationsDoc, name, forecastRegistryFile))
		}
	}
	sort.Strings(missing)
	return append(problems, missing...)
}

// registeredFamilies parses the forecast registry and collects the first-arg
// string literal of every mustRegister call.
func registeredFamilies() (map[string]bool, []string) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, forecastRegistryFile, nil, 0)
	if err != nil {
		return names, []string{fmt.Sprintf("docscheck: parsing %s: %v", forecastRegistryFile, err)}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "mustRegister" || len(call.Args) == 0 {
			return true
		}
		if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			names[strings.Trim(lit.Value, `"`)] = true
		}
		return true
	})
	return names, nil
}

// documentedFamilies scans OPERATIONS.md's "Model families" section for
// family table rows.
func documentedFamilies() (map[string]bool, bool, error) {
	data, err := os.ReadFile(operationsDoc)
	if err != nil {
		return nil, false, err
	}
	out := make(map[string]bool)
	inSection, found := false, false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, familiesHeading)
			if inSection {
				found = true
			}
			continue
		}
		if !inSection {
			continue
		}
		if m := familyRowRe.FindStringSubmatch(line); m != nil {
			out[m[1]] = true
		}
	}
	return out, found, nil
}

// alertRulesFile declares the rule-kind constants the alerting gate reads.
const alertRulesFile = "internal/alert/rules.go"

// alertingHeading opens the OPERATIONS.md section holding the rule-kind
// table and the flapping runbook.
const alertingHeading = "## Alerting"

// checkAlertDocs enforces the two-way rule-kind invariant between
// internal/alert/rules.go and the "Alerting" section of docs/OPERATIONS.md,
// and requires that section to carry the flapping-alert runbook.
func checkAlertDocs() []string {
	declared, problems := declaredRuleKinds()
	if len(declared) == 0 {
		problems = append(problems, fmt.Sprintf(
			"docscheck: no Kind* string constants found in %s", alertRulesFile))
	}
	documented, sectionFound, runbookFound, err := documentedRuleKinds()
	if err != nil {
		return append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	if !sectionFound {
		problems = append(problems, fmt.Sprintf(
			"%s: missing %q section (rule-kind table)", operationsDoc, alertingHeading))
	} else if !runbookFound {
		problems = append(problems, fmt.Sprintf(
			"%s: %q section has no flapping-alert runbook subsection", operationsDoc, alertingHeading))
	}
	var missing []string
	for name := range declared {
		if !documented[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: rule kind `%s` (declared in %s) has no row in the %q table",
				operationsDoc, name, alertRulesFile, alertingHeading))
		}
	}
	for name := range documented {
		if !declared[name] {
			missing = append(missing, fmt.Sprintf(
				"%s: documents rule kind `%s`, which %s does not declare",
				operationsDoc, name, alertRulesFile))
		}
	}
	sort.Strings(missing)
	return append(problems, missing...)
}

// declaredRuleKinds parses the alert rules file and collects the string
// value of every top-level Kind* constant.
func declaredRuleKinds() (map[string]bool, []string) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, alertRulesFile, nil, 0)
	if err != nil {
		return names, []string{fmt.Sprintf("docscheck: parsing %s: %v", alertRulesFile, err)}
	}
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, id := range vs.Names {
				if !strings.HasPrefix(id.Name, "Kind") || i >= len(vs.Values) {
					continue
				}
				if lit, ok := vs.Values[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					names[strings.Trim(lit.Value, `"`)] = true
				}
			}
		}
	}
	return names, nil
}

// documentedRuleKinds scans OPERATIONS.md's "Alerting" section for rule-kind
// table rows and a flapping-runbook subsection heading.
func documentedRuleKinds() (kinds map[string]bool, sectionFound, runbookFound bool, err error) {
	data, err := os.ReadFile(operationsDoc)
	if err != nil {
		return nil, false, false, err
	}
	kinds = make(map[string]bool)
	inSection := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inSection = strings.HasPrefix(line, alertingHeading)
			if inSection {
				sectionFound = true
			}
			continue
		}
		if !inSection {
			continue
		}
		if strings.HasPrefix(line, "### ") && strings.Contains(strings.ToLower(line), "flapping") {
			runbookFound = true
		}
		if m := familyRowRe.FindStringSubmatch(line); m != nil {
			kinds[m[1]] = true
		}
	}
	return kinds, sectionFound, runbookFound, nil
}

// receiverName unwraps a method receiver type expression to its type name.
func receiverName(expr ast.Expr) string {
	switch t := expr.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return receiverName(t.X)
	case *ast.IndexExpr: // generic receiver
		return receiverName(t.X)
	}
	return ""
}
