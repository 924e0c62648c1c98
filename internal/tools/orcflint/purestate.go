package orcflint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PureState flags nondeterminism inside the state export/restore plane:
// time.Now/Since/Until, package-level math/rand calls (a seeded local
// *rand.Rand is fine), and order-sensitive map iteration, anywhere in the
// transitive same-package call closure of the ExportState/RestoreState/
// RestoreAll/WAL replay entry points. Crash/restore promises bit-identical
// state — a wall clock read or a map-ordered loop in that path makes two
// replays of the same WAL diverge. Pure map-to-map copies are exempt: they
// are order-insensitive.
var PureState = &Analyzer{
	Name: "purestate",
	Doc:  "wall clock, global rand, or map iteration in deterministic state paths",
	Run:  runPureState,
}

// pureStatePaths scopes the rule to the packages that own state methods.
var pureStatePaths = []string{
	"orcf/internal/core",
	"orcf/internal/cluster",
	"orcf/internal/forecast",
	"orcf/internal/transmit",
	"orcf/internal/persist",
	"orcf/internal/serve",
}

// pureStateRoots are the entry points of the deterministic plane (of
// core.System.Reapply, reconcileRoster: a step's phase timer reads a clock).
var pureStateRoots = map[string]bool{
	"ExportState": true, "RestoreState": true, "RestoreAll": true,
	"MarshalState": true, "UnmarshalState": true,
	"reconcileRoster": true, "Recover": true,
	"republish": true, "readWAL": true, "readCheckpoint": true,
	"restoreSlot": true, "exportSlot": true, "validateState": true,
}

func runPureState(pass *Pass) error {
	if !inScope(pass.Path(), pureStatePaths) {
		return nil
	}
	decls := funcDecls(pass.Files)
	byObj := make(map[*types.Func]*ast.FuncDecl, len(decls))
	for _, fd := range decls {
		if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
			byObj[obj] = fd
		}
	}
	// Close the root set over same-package static calls.
	inPlane := map[*types.Func]bool{}
	var queue []*types.Func
	for obj, fd := range byObj {
		if pureStateRoots[fd.Name.Name] {
			inPlane[obj] = true
			queue = append(queue, obj)
		}
	}
	for len(queue) > 0 {
		obj := queue[0]
		queue = queue[1:]
		fd := byObj[obj]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.Info, call)
			if callee == nil || callee.Pkg() != pass.Pkg || inPlane[callee] {
				return true
			}
			if _, local := byObj[callee]; local {
				inPlane[callee] = true
				queue = append(queue, callee)
			}
			return true
		})
	}
	for obj := range inPlane {
		fd := byObj[obj]
		if fd == nil {
			continue
		}
		checkPureStateFunc(pass, fd)
	}
	return nil
}

func checkPureStateFunc(pass *Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			p, name := pkgFunc(pass.Info, x)
			switch {
			case p == "time" && (name == "Now" || name == "Since" || name == "Until"):
				pass.Reportf(x.Pos(), "time.%s in deterministic state path %s", name, fd.Name.Name)
			case p == "math/rand" || p == "math/rand/v2":
				pass.Reportf(x.Pos(), "global %s.%s in deterministic state path %s (use a seeded local source)", p, name, fd.Name.Name)
			}
		case *ast.RangeStmt:
			if isMapRange(pass.Info, x) && !isMapToMapCopy(pass, x) {
				pass.Reportf(x.Pos(), "map iteration in deterministic state path %s (sort keys first)", fd.Name.Name)
			}
		}
		return true
	})
}

// isMapToMapCopy exempts the one order-insensitive shape: a body that only
// assigns into map elements (e.g. dst[k] = v), as in Roster copying.
func isMapToMapCopy(pass *Pass, rs *ast.RangeStmt) bool {
	if len(rs.Body.List) == 0 {
		return false
	}
	for _, s := range rs.Body.List {
		as, ok := s.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return false
		}
		for _, lhs := range as.Lhs {
			ix, ok := ast.Unparen(lhs).(*ast.IndexExpr)
			if !ok {
				return false
			}
			t := pass.Info.TypeOf(ix.X)
			if t == nil {
				return false
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return false
			}
		}
	}
	return true
}
