package orcflint

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// NaNJSON flags floating-point values flowing into JSON-marshaled struct
// fields in the serving plane without passing through a finiteness guard.
// encoding/json refuses NaN/±Inf with an error that internal/serve's
// writeJSON cannot surface mid-body — the client gets a truncated 200 — so a
// single NaN reaching a response struct is a silent availability bug (the
// PR 5 class). Assignments and composite-literal entries for float-bearing
// fields of structs with json tags must be constants, integer conversions,
// or calls to a Finite* guard. Bodies written without a struct — floats
// formatted straight into the response with strconv.AppendFloat — are held to
// the same rule at the AppendFloat call: its operand must be guarded, or a
// local variable that only ever holds guarded values.
var NaNJSON = &Analyzer{
	Name: "nanjson",
	Doc:  "unguarded float reaching a JSON-marshaled field in the serving plane",
	Run:  runNaNJSON,
}

func nanjsonInScope(path string) bool {
	return path == "orcf/internal/serve" || strings.HasPrefix(path, "orcf/cmd/")
}

func runNaNJSON(pass *Pass) error {
	if !nanjsonInScope(pass.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range x.Lhs {
					field, owner := jsonFloatField(pass, lhs)
					if field == "" {
						continue
					}
					if i < len(x.Rhs) && len(x.Lhs) == len(x.Rhs) && !finiteGuarded(pass, x.Rhs[i]) {
						pass.Reportf(lhs.Pos(), "unguarded float assigned to JSON field %s.%s; wrap with a Finite* guard", owner, field)
					}
				}
			case *ast.CompositeLit:
				checkJSONComposite(pass, x)
			}
			return true
		})
	}
	for _, fd := range funcDecls(pass.Files) {
		checkAppendFloat(pass, fd)
	}
	return nil
}

// checkAppendFloat flags strconv.AppendFloat calls in fd whose float operand
// is neither finite-guarded nor a guarded local.
func checkAppendFloat(pass *Pass, fd *ast.FuncDecl) {
	guarded := guardedLocals(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 {
			return true
		}
		if pkg, name := pkgFunc(pass.Info, call); pkg != "strconv" || name != "AppendFloat" {
			return true
		}
		operand := ast.Unparen(call.Args[1])
		if id, ok := operand.(*ast.Ident); ok && guarded[pass.Info.Uses[id]] {
			return true
		}
		if !finiteGuarded(pass, operand) {
			pass.Reportf(operand.Pos(), "unguarded float formatted by strconv.AppendFloat; wrap with a Finite* guard")
		}
		return true
	})
}

// guardedLocals returns the variables fd defines with := from a
// finite-guarded expression and never assigns anything else.
func guardedLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	guarded := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			ok = len(as.Lhs) == len(as.Rhs) && finiteGuarded(pass, as.Rhs[i])
			if obj := pass.Info.Defs[id]; obj != nil && as.Tok == token.DEFINE {
				guarded[obj] = ok
			} else if obj := pass.Info.Uses[id]; guarded[obj] {
				guarded[obj] = as.Tok == token.ASSIGN && ok
			}
		}
		return true
	})
	return guarded
}

// jsonFloatField reports the JSON-tagged float field an lvalue writes
// through, walking index expressions down to the selector ("" when the
// lvalue is not such a write).
func jsonFloatField(pass *Pass, e ast.Expr) (field, owner string) {
	for {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			sel, ok := pass.Info.Selections[x]
			if !ok || sel.Kind() != types.FieldVal {
				return "", ""
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok || !hasFloat(v.Type(), nil) {
				return "", ""
			}
			ownerType := pass.Info.TypeOf(x.X)
			st, tagged := jsonStruct(ownerType)
			if !tagged || !fieldHasJSONTag(st, v.Name()) {
				return "", ""
			}
			_, name := namedType(ownerType)
			return v.Name(), name
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return "", ""
		}
	}
}

// jsonStruct unwraps to a struct type and reports whether any field carries a
// json tag — the marker for a wire-facing response type.
func jsonStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil, false
	}
	for i := 0; i < st.NumFields(); i++ {
		if reflect.StructTag(st.Tag(i)).Get("json") != "" {
			return st, true
		}
	}
	return nil, false
}

func fieldHasJSONTag(st *types.Struct, name string) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return reflect.StructTag(st.Tag(i)).Get("json") != ""
		}
	}
	return false
}

// checkJSONComposite checks keyed composite literals of JSON response types.
func checkJSONComposite(pass *Pass, cl *ast.CompositeLit) {
	t := pass.Info.TypeOf(cl)
	st, tagged := jsonStruct(t)
	if !tagged {
		return
	}
	_, owner := namedType(t)
	for _, elt := range cl.Elts {
		kv, ok := elt.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok || !fieldHasJSONTag(st, key.Name) {
			continue
		}
		obj := pass.Info.Uses[key]
		if obj == nil {
			obj = pass.Info.Defs[key]
		}
		v, ok := obj.(*types.Var)
		if !ok || !hasFloat(v.Type(), nil) {
			continue
		}
		if !finiteGuarded(pass, kv.Value) {
			pass.Reportf(kv.Value.Pos(), "unguarded float in JSON field %s.%s; wrap with a Finite* guard", owner, key.Name)
		}
	}
}

// finiteGuarded reports whether the expression cannot introduce NaN/Inf:
// constants, nil, integer-to-float conversions, make/new, composite literals
// of guarded elements, and calls to Finite*-named guard functions.
func finiteGuarded(pass *Pass, e ast.Expr) bool {
	e = ast.Unparen(e)
	if tv, ok := pass.Info.Types[e]; ok && tv.Value != nil {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		return x.Name == "nil"
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			if !finiteGuarded(pass, elt) {
				return false
			}
		}
		return true
	case *ast.CallExpr:
		fun := ast.Unparen(x.Fun)
		// Guard functions by naming convention: Finite64, FiniteRow, ...
		var name string
		switch f := fun.(type) {
		case *ast.Ident:
			name = f.Name
		case *ast.SelectorExpr:
			name = f.Sel.Name
		}
		if strings.HasPrefix(name, "Finite") || strings.HasPrefix(name, "finite") {
			return true
		}
		switch name {
		case "make", "new", "len", "cap":
			return true
		}
		// Conversions from integer types cannot produce NaN/Inf.
		if tv, ok := pass.Info.Types[fun]; ok && tv.IsType() && len(x.Args) == 1 {
			if at := pass.Info.TypeOf(x.Args[0]); at != nil {
				if b, ok := at.Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					return true
				}
			}
		}
		return false
	}
	return false
}
