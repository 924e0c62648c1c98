package orcflint

import (
	"go/ast"
	"go/types"
)

// SnapFreeze flags writes through the fields of core.Snapshot and core.Roster
// — the types the serving plane reads lock-free — outside the publishing
// functions that are allowed to build them. The PR 5 stale-tail bug was
// exactly this class: a ring slice reachable from a published snapshot was
// mutated in place, so readers observed a tail that moved under them.
// Snapshots must be built by composite literal plus the allow-listed
// publishers, then treated as frozen. One level of local aliasing is tracked:
// a variable bound to a frozen field's slice or map is itself frozen.
var SnapFreeze = &Analyzer{
	Name: "snapfreeze",
	Doc:  "write through core.Snapshot/Roster fields outside publishing functions",
	Run:  runSnapFreeze,
}

// frozenTypes are the published, reader-shared types.
var frozenTypes = map[[2]string]bool{
	{"orcf/internal/core", "Snapshot"}: true,
	{"orcf/internal/core", "Roster"}:   true,
}

// snapPublishers may write frozen fields, and only inside internal/core: the
// snapshot builders — assembleSnapshot before the ring commit, publish after
// it, which copies the newest ring slot and writes the plan before storing
// the snapshot for readers — and the roster constructor.
var snapPublishers = map[string]bool{
	"assembleSnapshot": true,
	"publish":          true,
	"roster":           true,
}

func runSnapFreeze(pass *Pass) error {
	for _, fd := range funcDecls(pass.Files) {
		if pass.Path() == "orcf/internal/core" && snapPublishers[fd.Name.Name] {
			continue
		}
		checkSnapFreezeFunc(pass, fd)
	}
	return nil
}

func checkSnapFreezeFunc(pass *Pass, fd *ast.FuncDecl) {
	// aliased holds local variables bound to a frozen field's slice/map.
	aliased := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if frozenLValue(pass, lhs, aliased) {
					pass.Reportf(lhs.Pos(), "write through frozen %s field outside publishing functions", frozenLValueType(pass, lhs, aliased))
				}
			}
			// Track one level of aliasing: x := snap.field (slice/map).
			if len(st.Lhs) == len(st.Rhs) {
				for i, rhs := range st.Rhs {
					id, ok := st.Lhs[i].(*ast.Ident)
					if !ok {
						continue
					}
					obj := pass.Info.Defs[id]
					if obj == nil {
						obj = pass.Info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if frozenReference(pass, rhs, aliased) {
						aliased[obj] = true
					}
				}
			}
		case *ast.IncDecStmt:
			if frozenLValue(pass, st.X, aliased) {
				pass.Reportf(st.X.Pos(), "write through frozen %s field outside publishing functions", frozenLValueType(pass, st.X, aliased))
			}
		}
		return true
	})
}

// frozenLValue reports whether the lvalue chain passes through a field of a
// frozen type, or through a local alias of one, ending in a mutation target
// (field store, element store, or pointed-to store).
func frozenLValue(pass *Pass, e ast.Expr, aliased map[types.Object]bool) bool {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if p, n := namedType(pass.Info.TypeOf(x.X)); frozenTypes[[2]string{p, n}] {
					return true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				obj := pass.Info.Uses[id]
				if obj != nil && aliased[obj] {
					return true
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// frozenLValueType names the frozen type for the diagnostic.
func frozenLValueType(pass *Pass, e ast.Expr, aliased map[types.Object]bool) string {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				if p, n := namedType(pass.Info.TypeOf(x.X)); frozenTypes[[2]string{p, n}] {
					return n
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if obj := pass.Info.Uses[id]; obj != nil && aliased[obj] {
					return "Snapshot-aliased"
				}
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return "Snapshot"
		}
	}
}

// frozenReference reports whether the expression reads a slice/map field of a
// frozen type (an alias through which element writes would be visible to
// snapshot readers).
func frozenReference(pass *Pass, e ast.Expr, aliased map[types.Object]bool) bool {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.SelectorExpr:
		sel, ok := pass.Info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return false
		}
		p, n := namedType(pass.Info.TypeOf(x.X))
		if !frozenTypes[[2]string{p, n}] {
			return false
		}
		switch pass.Info.TypeOf(x).Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			return true
		}
	case *ast.Ident:
		if obj := pass.Info.Uses[x]; obj != nil && aliased[obj] {
			return true
		}
	}
	return false
}
