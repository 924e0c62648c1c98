// Command docscheck is the CI docs gate: it fails when documentation has
// drifted from the code.
//
// It enforces:
//
//  1. Markdown hygiene — every relative link in README.md and docs/*.md
//     resolves to an existing file or directory in the repository.
//  2. Godoc coverage — every exported identifier (top-level consts, vars,
//     types, funcs, and methods on exported types) in the gatedDirs
//     packages (the root orcf package, internal/core, internal/serve,
//     internal/persist, internal/transmit, internal/cluster,
//     internal/tools/orcflint, internal/obs and internal/alert) carries a
//     doc comment.
//  3. Two-way references — for each row of the references table, every
//     name the code declares is listed in its document and every listed
//     name is still declared: the flags of the cmd/* binaries and the
//     orcf_* series (inline code spans of docs/OPERATIONS.md outside fenced
//     blocks; a histogram's _bucket/_sum/_count form lists the histogram),
//     the orcflint analyzers (the "Enforced invariants" table of
//     docs/ARCHITECTURE.md), the forecasting families registered in
//     internal/forecast/registry.go and the alert rule kinds of
//     internal/alert/rules.go (the "Model families" and "Alerting" tables of
//     OPERATIONS.md), and the prerequisites of the Makefile's ci: target
//     (the make steps of .github/workflows/ci.yml). Names must be literals
//     where they are declared: one built at runtime is invisible here.
//  4. Requirements — OPERATIONS.md documents `make lint` and the
//     `orcflint:ignore` suppression convention, and its Alerting section
//     carries the flapping-alert runbook.
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
	"slices"
	"sort"
	"strconv"
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
	problems := check()
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: ok")
}

// check runs every gate over the working directory and returns the
// violations.
func check() []string {
	var problems []string
	problems = append(problems, checkMarkdown()...)
	problems = append(problems, checkGodoc()...)
	problems = append(problems, checkReferences()...)
	problems = append(problems, checkRequirements()...)
	return problems
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

// operationsDoc is the operator reference most references are listed in.
const operationsDoc = "docs/OPERATIONS.md"

// alertingHeading opens the OPERATIONS.md section holding the rule-kind
// table and the flapping runbook.
const alertingHeading = "## Alerting"

// A reference is one two-way name list: the names the code declares and
// the names a document lists must be the same set.
type reference struct {
	kind string // what a name is, for messages
	// code is where the names are declared: a path prefix of the non-test
	// Go files whose AST nodes goNames reads ("" for every file), or the
	// one text file textNames reads.
	code      string
	goNames   func(ast.Node) []string
	textNames func(string) []string
	// doc lists the names: as the first column of the table rows under the
	// section heading, or, without one, as docNames reads them.
	doc      string
	section  string
	docNames func(string) []string
	// alias maps a listed name that derives from a declared one onto it.
	alias func(string) string
}

// references are the two-way invariants between the code and its docs.
var references = []reference{
	{kind: "flag", code: "cmd/", goNames: flagName, doc: operationsDoc, docNames: inSpans(flagSpanRe)},
	{kind: "metric", goNames: metricLiteral, doc: operationsDoc, docNames: inSpans(metricSpanRe),
		alias: histogramBase},
	{kind: "analyzer", code: "internal/tools/orcflint/", goNames: analyzerName,
		doc: "docs/ARCHITECTURE.md", section: "## Enforced invariants"},
	{kind: "model family", code: "internal/forecast/registry.go", goNames: familyName,
		doc: operationsDoc, section: "## Model families"},
	{kind: "rule kind", code: "internal/alert/rules.go", goNames: ruleKinds,
		doc: operationsDoc, section: alertingHeading},
	{kind: "CI target", code: "Makefile", textNames: ciPrerequisites,
		doc: ".github/workflows/ci.yml", docNames: func(text string) []string { return matches(makeStepRe, text) }},
}

var (
	// inlineCodeRe matches an inline code span.
	inlineCodeRe = regexp.MustCompile("`([^`]+)`")
	// flagSpanRe matches a -flag token at the start (or after a space) of a
	// code span.
	flagSpanRe = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	// metricNameRe matches a complete orcf_* series name: underscore-separated
	// lowercase/digit words. A concatenation prefix like "orcf_step_" does
	// not match, so series names must be full literals at registration sites
	// (serve.stepPhaseSeries is the pattern).
	metricNameRe      = regexp.MustCompile(`^orcf_[a-z0-9]+(?:_[a-z0-9]+)*$`)
	metricSpanRe      = regexp.MustCompile(`\borcf_[a-z0-9]+(?:_[a-z0-9]+)*\b`)
	histogramSuffixRe = regexp.MustCompile(`_(bucket|sum|count)$`)
	// rowRe matches a table row whose first column is one code span:
	// | `lockio` | ... |
	rowRe = regexp.MustCompile("^\\|\\s*`([a-z][a-z0-9-]*)`\\s*\\|")
	// ciRuleRe and makeStepRe read the Makefile's ci: prerequisites and the
	// workflow's make steps.
	ciRuleRe   = regexp.MustCompile(`(?m)^ci:(.*)$`)
	makeStepRe = regexp.MustCompile(`(?m)^\s*run:\s*make\s+([a-z][a-z0-9-]*)`)
)

// flagFuncs are the flag-package constructors whose first argument is the
// flag name.
var flagFuncs = map[string]bool{
	"Bool": true, "Int": true, "Int64": true, "Uint": true, "Uint64": true,
	"Float64": true, "String": true, "Duration": true,
}

// checkReferences compares the two sides of every reference and reports
// each name one side has and the other lacks.
func checkReferences() []string {
	declared, problems := declarations()
	var drift []string
	for i, r := range references {
		where := r.code
		if where == "" {
			where = "the Go code"
		}
		if len(declared[i]) == 0 {
			problems = append(problems, fmt.Sprintf("docscheck: no %s declarations found in %s", r.kind, where))
		}
		listed, err := r.listed()
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		for name, file := range declared[i] {
			if !listed[name] {
				drift = append(drift, fmt.Sprintf("%s: %s `%s` (declared in %s) is not listed",
					r.doc, r.kind, name, file))
			}
		}
		for name := range listed {
			_, ok := declared[i][name]
			if !ok && r.alias != nil {
				_, ok = declared[i][r.alias(name)]
			}
			if !ok {
				drift = append(drift, fmt.Sprintf("%s: lists %s `%s`, which %s does not declare",
					r.doc, r.kind, name, where))
			}
		}
	}
	sort.Strings(drift)
	return append(problems, drift...)
}

// listed reads the names r's document lists.
func (r reference) listed() (map[string]bool, error) {
	data, err := os.ReadFile(r.doc)
	if err != nil {
		return nil, fmt.Errorf("docscheck: %w", err)
	}
	var names []string
	if r.section != "" {
		lines, found := section(string(data), r.section)
		if !found {
			return nil, fmt.Errorf("%s: missing %q section (%s table)", r.doc, r.section, r.kind)
		}
		for _, line := range lines {
			if m := rowRe.FindStringSubmatch(line); m != nil {
				names = append(names, m[1])
			}
		}
	} else {
		names = r.docNames(string(data))
	}
	set := make(map[string]bool, len(names))
	for _, name := range names {
		set[name] = true
	}
	return set, nil
}

// declarations reads the text file of every text reference and walks the
// repository's non-test Go files once for the rest, returning each
// reference's declared names with the first file declaring each.
func declarations() ([]map[string]string, []string) {
	declared := make([]map[string]string, len(references))
	add := func(i int, file string, names []string) {
		for _, name := range names {
			if _, seen := declared[i][name]; !seen {
				declared[i][name] = file
			}
		}
	}
	var problems []string
	for i, r := range references {
		declared[i] = make(map[string]string)
		if r.textNames != nil {
			data, err := os.ReadFile(r.code)
			if err != nil {
				problems = append(problems, fmt.Sprintf("docscheck: %v", err))
				continue
			}
			add(i, r.code, r.textNames(string(data)))
		}
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		var refs []int
		for i, r := range references {
			if r.goNames != nil && strings.HasPrefix(filepath.ToSlash(path), r.code) {
				refs = append(refs, i)
			}
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: parsing %s: %v", path, err))
			return nil
		}
		ast.Inspect(f, func(n ast.Node) bool {
			for _, i := range refs {
				add(i, path, references[i].goNames(n))
			}
			return true
		})
		return nil
	})
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	return declared, problems
}

// stringLit returns the value of a string literal node as a one-name list,
// and nil for any other node.
func stringLit(n ast.Node) []string {
	lit, ok := n.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return nil
	}
	return []string{s}
}

// flagName reads the first argument of flag.X("name", …) or
// fs.X("name", …): the flag package itself, or a FlagSet named fs.
func flagName(n ast.Node) []string {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !flagFuncs[sel.Sel.Name] {
		return nil
	}
	if recv, ok := sel.X.(*ast.Ident); !ok || (recv.Name != "flag" && recv.Name != "fs") {
		return nil
	}
	return stringLit(call.Args[0])
}

// metricLiteral reads a string literal that is a whole orcf_* series name.
func metricLiteral(n ast.Node) []string {
	if s := stringLit(n); s != nil && metricNameRe.MatchString(s[0]) {
		return s
	}
	return nil
}

// analyzerName reads the Name field of an Analyzer composite literal.
func analyzerName(n ast.Node) []string {
	cl, ok := n.(*ast.CompositeLit)
	if !ok {
		return nil
	}
	if id, ok := cl.Type.(*ast.Ident); !ok || id.Name != "Analyzer" {
		return nil
	}
	for _, elt := range cl.Elts {
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Name" {
				return stringLit(kv.Value)
			}
		}
	}
	return nil
}

// familyName reads the first argument of a mustRegister call.
func familyName(n ast.Node) []string {
	call, ok := n.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "mustRegister" {
		return nil
	}
	return stringLit(call.Args[0])
}

// ruleKinds reads the string values of the Kind* constants of a const
// declaration.
func ruleKinds(n ast.Node) []string {
	gd, ok := n.(*ast.GenDecl)
	if !ok || gd.Tok != token.CONST {
		return nil
	}
	var kinds []string
	for _, spec := range gd.Specs {
		vs := spec.(*ast.ValueSpec)
		for i, id := range vs.Names {
			if i < len(vs.Values) && strings.HasPrefix(id.Name, "Kind") {
				kinds = append(kinds, stringLit(vs.Values[i])...)
			}
		}
	}
	return kinds
}

// ciPrerequisites reads the prerequisites of a Makefile's ci: rule.
func ciPrerequisites(text string) []string {
	if m := ciRuleRe.FindStringSubmatch(text); m != nil {
		return strings.Fields(m[1])
	}
	return nil
}

// histogramBase maps a series the Prometheus text exposition derives from a
// histogram onto the histogram's name.
func histogramBase(name string) string {
	return histogramSuffixRe.ReplaceAllString(name, "")
}

// matches returns what re finds in text: its first group, or the whole
// match when re has none.
func matches(re *regexp.Regexp, text string) []string {
	var out []string
	for _, m := range re.FindAllStringSubmatch(text, -1) {
		out = append(out, m[len(m)-1])
	}
	return out
}

// inSpans reads the names re finds in a markdown document's inline code
// spans, skipping fenced code blocks: an example invocation is not
// documentation.
func inSpans(re *regexp.Regexp) func(string) []string {
	return func(text string) []string {
		var names []string
		inFence := false
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, span := range inlineCodeRe.FindAllStringSubmatch(line, -1) {
				names = append(names, matches(re, span[1])...)
			}
		}
		return names
	}
}

// section returns the lines under a "## " heading, up to the next one, and
// whether the heading was found.
func section(text, heading string) (lines []string, found bool) {
	in := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "## ") {
			in = strings.HasPrefix(line, heading)
			found = found || in
			continue
		}
		if in {
			lines = append(lines, line)
		}
	}
	return lines, found
}

// checkRequirements checks what OPERATIONS.md must say that is not a name
// list: the lint entry point, the suppression convention and the
// flapping-alert runbook.
func checkRequirements() []string {
	data, err := os.ReadFile(operationsDoc)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	for _, needle := range []string{"make lint", "orcflint:ignore"} {
		if !strings.Contains(string(data), needle) {
			problems = append(problems, fmt.Sprintf(
				"%s: must document %q (lint entry point / suppression convention)", operationsDoc, needle))
		}
	}
	lines, found := section(string(data), alertingHeading)
	if found && !slices.ContainsFunc(lines, func(line string) bool {
		return strings.HasPrefix(line, "### ") && strings.Contains(strings.ToLower(line), "flapping")
	}) {
		problems = append(problems, fmt.Sprintf(
			"%s: %q section has no flapping-alert runbook subsection", operationsDoc, alertingHeading))
	}
	return problems
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
