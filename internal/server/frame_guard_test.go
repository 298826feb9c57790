package server

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyTheFrameTouchesTheWire keeps the request lifecycle in one
// place: outside frame.go, no non-test file of either serving tier may
// call http.Error, acquire or release the admission gate, start or
// finish a span, or write to an http.ResponseWriter. A new endpoint is a
// func(*Req) registered with Tier.Handle; it cannot grow its own copy of
// trace / admit / body / reply.
func TestOnlyTheFrameTouchesTheWire(t *testing.T) {
	for _, dir := range []string{".", "../cluster"} {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pkg := range pkgs {
			// Whatever the package declares as an http.ResponseWriter —
			// parameter, field or variable — by name.
			writers := map[string]bool{}
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					var names []*ast.Ident
					var typ ast.Expr
					switch n := n.(type) {
					case *ast.Field:
						names, typ = n.Names, n.Type
					case *ast.ValueSpec:
						names, typ = n.Names, n.Type
					}
					if isSelector(typ, "http", "ResponseWriter") {
						for _, name := range names {
							writers[name.Name] = true
						}
					}
					return true
				})
			}
			for path, f := range pkg.Files {
				if dir == "." && filepath.Base(path) == "frame.go" {
					continue
				}
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					recv := strings.ToLower(lastName(sel.X))
					var what string
					switch method := sel.Sel.Name; {
					case isSelector(sel, "http", "Error"):
						what = "http.Error"
					case isSelector(sel, "admit", "NewGate"), isSelector(sel, "trace", "New"):
						what = "a gate or tracer of its own"
					case method == "Acquire",
						method == "Release" && strings.Contains(recv, "gate"):
						what = "the admission gate"
					case (method == "Start" || method == "Finish") && strings.Contains(recv, "tracer"):
						what = "the tracer"
					case (method == "Write" || method == "WriteHeader") && writers[lastName(sel.X)]:
						what = "a ResponseWriter"
					default:
						return true
					}
					t.Errorf("%s: touches %s (%s.%s) outside the request frame",
						fset.Position(call.Pos()), what, lastName(sel.X), sel.Sel.Name)
					return true
				})
			}
		}
	}
}

// isSelector reports whether e is the selector pkg.name.
func isSelector(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg
}

// lastName is the final identifier of a receiver expression: w for w,
// gate for s.gate, Gate for ro.Gate().
func lastName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.CallExpr:
		return lastName(e.Fun)
	}
	return ""
}
