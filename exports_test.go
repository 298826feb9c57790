package avr

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported names under internal/ that only tests
// call, each kept for the reason given at its declaration: a test in
// another package calls it, or (CompressLatency) it is the paper's figure.
var testOnlyExports = []string{
	"internal/compress.CompressLatency",
	"internal/compress.Compress64",
	"internal/obs.Dropped",
	"internal/obs.Epochs",
	"internal/obs.LintExposition",
	"internal/trace.StageDur",
}

// TestNoTestOnlyExports is the callers-outside-tests sweep: every
// exported name declared in a non-test file under internal/ must be used
// by some non-test file of the module (bench/ included), or be listed in
// testOnlyExports. A package-level name counts as used when its own
// package names it bare or another file names it pkg.Name; a method
// counts as used when any selector has its name, so a method that shares
// a name with another can hide from the sweep, never be flagged wrongly.
// That is the sweep's blind spot: a test-only Get, Count, Size or
// Quantile passes because sync.Pool.Get, block.Cursor.Count,
// fs.FileInfo.Size or obs.Summary.Quantile has a caller, so a method
// named like a common one needs a caller found by hand.
func TestNoTestOnlyExports(t *testing.T) {
	fset := token.NewFileSet()
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && path != ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		files = append(files, f)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	type decl struct{ key, name string }
	var decls []decl
	declared := map[token.Pos]bool{}
	used := map[string]bool{}
	for _, f := range files {
		dir := filepath.Dir(fset.Position(f.Pos()).Filename)
		inInternal := strings.HasPrefix(dir, "internal/")
		declare := func(id *ast.Ident, method bool) {
			if !inInternal || !id.IsExported() {
				return
			}
			declared[id.Pos()] = true
			key := dir + "#" + id.Name
			if method {
				key = "." + id.Name
			}
			decls = append(decls, decl{key, dir + "." + id.Name})
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				declare(d.Name, d.Recv != nil)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(s.Name, false)
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declare(n, false)
						}
					}
				}
			}
		}
	}
	for _, f := range files {
		dir := filepath.Dir(fset.Position(f.Pos()).Filename)
		imports := map[string]string{} // local name -> package directory
		for _, im := range f.Imports {
			path := strings.Trim(im.Path.Value, `"`)
			if !strings.HasPrefix(path, "avr/") {
				continue
			}
			name := filepath.Base(path)
			if im.Name != nil {
				name = im.Name.Name
			}
			imports[name] = strings.TrimPrefix(path, "avr/")
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				used["."+n.Sel.Name] = true
				if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
					used[imports[x.Name]+"#"+n.Sel.Name] = true
					return false
				}
			case *ast.Ident:
				if !declared[n.Pos()] {
					used[dir+"#"+n.Name] = true
				}
			}
			return true
		})
	}

	allowed := map[string]bool{}
	for _, name := range testOnlyExports {
		allowed[name] = true
	}
	var found []string
	for _, d := range decls {
		if used[d.key] {
			continue
		}
		found = append(found, d.name)
		if !allowed[d.name] {
			t.Errorf("%s has no caller outside tests: move it into the test that uses it, or list it in testOnlyExports with a reason at its declaration", d.name)
		}
		delete(allowed, d.name)
	}
	for name := range allowed {
		t.Errorf("%s is listed in testOnlyExports but has a caller outside tests now: drop it from the list", name)
	}
	sort.Strings(found)
	t.Logf("%d test-only exports: %s", len(found), strings.Join(found, ", "))
}
