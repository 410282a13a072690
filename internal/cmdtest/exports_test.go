package cmdtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// testOnlyExports names the exported names under internal/ that only tests
// use, each with the reason it stays in a non-test file.
var testOnlyExports = map[string]string{
	"meshgnn/internal/comm.Run":          "starts in-process ranks for the tests of comm, gnn and solver",
	"meshgnn/internal/graph.BuildSingle": "the single-rank graph, built by the tests of graph, gnn and field",
	"meshgnn/internal/parallel.Stats":    "the dispatch counters the dispatch-budget gates of gnn read",
	"meshgnn/internal/tensor.FromSlice":  "wraps a literal as a matrix in the tests of tensor, nn and gnn",
}

// TestNoTestOnlyExports keeps code that only tests reach from growing back.
// Every exported package-level func, type, var and const declared in a
// non-test file under internal/ must be used by a non-test file somewhere
// in the repository (the benchmark module included), or be listed in
// testOnlyExports with its reason. A use is a qualified name (pkg.Name)
// in another package or a bare identifier in the declaring package, other
// than the declaring identifier itself. The check parses and does not
// type-check, so methods and struct fields are outside its scope, and an
// identifier that happens to share a name counts as a use: it can miss a
// dead name, never invent one.
func TestNoTestOnlyExports(t *testing.T) {
	root := moduleRoot()
	fset := token.NewFileSet()
	declared := map[string]token.Position{} // import path + "." + name → where
	uses := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		// Both modules' paths are their directories under meshgnn.
		pkg := "meshgnn"
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		decls := declaringIdents(f)
		if strings.HasPrefix(pkg, "meshgnn/internal/") {
			for _, id := range topLevelNames(f) {
				if id.IsExported() {
					declared[pkg+"."+id.Name] = fset.Position(id.Pos())
				}
			}
		}
		imports := map[string]string{} // local name → import path
		for _, s := range f.Imports {
			p, _ := strconv.Unquote(s.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if s.Name != nil {
				name = s.Name.Name
			}
			imports[name] = p
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if p, ok := imports[x.Name]; ok {
						uses[p+"."+n.Sel.Name]++
					}
				}
			case *ast.Ident:
				if n.IsExported() && !decls[n] {
					uses[pkg+"."+n.Name]++
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 {
		t.Fatal("found no exported name under internal/")
	}
	var unused []string
	for name := range declared {
		if uses[name] == 0 && testOnlyExports[name] == "" {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	for _, name := range unused {
		t.Errorf("%s: %s has no non-test use: delete it, move it into the _test.go file that needs it, or list it in testOnlyExports with its reason", declared[name], name)
	}
	for name := range testOnlyExports {
		if _, ok := declared[name]; !ok {
			t.Errorf("testOnlyExports lists %s, which is not declared", name)
		} else if uses[name] > 0 {
			t.Errorf("testOnlyExports lists %s, which non-test code now uses", name)
		}
	}
}

// topLevelNames returns the identifiers a file declares at package level:
// funcs (not methods), types, vars and consts.
func topLevelNames(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name)
				case *ast.ValueSpec:
					out = append(out, s.Names...)
				}
			}
		}
	}
	return out
}

// declaringIdents returns the identifiers of a file that name something
// rather than refer to it — the declared names of funcs, methods, types,
// values, fields and parameters — and the selected names of selector
// expressions, which are fields, methods or another package's names.
func declaringIdents(f *ast.File) map[*ast.Ident]bool {
	out := map[*ast.Ident]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			out[n.Name] = true
		case *ast.TypeSpec:
			out[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				out[id] = true
			}
		case *ast.Field:
			for _, id := range n.Names {
				out[id] = true
			}
		case *ast.SelectorExpr:
			out[n.Sel] = true
		}
		return true
	})
	return out
}
