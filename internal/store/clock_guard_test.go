package store

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestStoreKeepsNoClock holds the store to DESIGN.md §5.10's rule that a
// request is timed once, by its span: no non-test file here may read the
// clock (time.Now, time.Since) or take a time.Time, such as an
// operation's start, as a parameter. A store operation's time is the
// stages it records onto the caller's span (Span.Begin/End), and the
// tier's request latency around it.
func TestStoreKeepsNoClock(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// timeName is name for a selector time.name, "" for anything else.
	timeName := func(e ast.Expr) string {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "time" {
				return sel.Sel.Name
			}
		}
		return ""
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CallExpr:
					if name := timeName(n.Fun); name == "Now" || name == "Since" {
						t.Errorf("%s: the store reads the clock (time.%s); time it as a span stage",
							fset.Position(n.Pos()), name)
					}
				case *ast.FuncType:
					for _, p := range n.Params.List {
						if timeName(p.Type) == "Time" {
							t.Errorf("%s: a store function takes a time.Time", fset.Position(p.Pos()))
						}
					}
				}
				return true
			})
		}
	}
}
