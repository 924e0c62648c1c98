package orcflint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
)

// A Package is one loaded, type-checked target package.
type Package struct {
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files holds the parsed non-test source files.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker facts the analyzers consult.
	Info *types.Info
}

// A Loader parses and type-checks packages with a shared file set and a
// shared source importer, so dependencies (including the standard library)
// are type-checked once per process.
type Loader struct {
	fset *token.FileSet
	imp  types.ImporterFrom
}

// NewLoader builds a loader. It must be used from inside the module
// (anywhere under the repository root) so intra-module import paths resolve.
func NewLoader() *Loader {
	fset := token.NewFileSet()
	return &Loader{
		fset: fset,
		imp:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool
}

// LoadPatterns resolves the package patterns with `go list` and loads every
// matched first-party package.
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	args := append([]string{"list", "-json=ImportPath,Dir,GoFiles,Standard", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("orcflint: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*Package
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("orcflint: decoding go list output: %v", err)
		}
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		files := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			files[i] = filepath.Join(lp.Dir, f)
		}
		pkg, err := l.load(lp.ImportPath, files)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// load parses and type-checks an explicit file list as one package under the
// given import path. The analyzer tests use it to load fixture packages from
// testdata under the import path of the package whose invariants they
// exercise.
func (l *Loader) load(path string, filenames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("orcflint: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("orcflint: type-checking %s: %v", path, err)
	}
	return &Package{Fset: l.fset, Files: files, Types: pkg, Info: info}, nil
}
