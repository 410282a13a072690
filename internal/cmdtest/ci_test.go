package cmdtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsSelectTests reads the CI workflow and checks every
// alternative of every quoted `go test … -run '…' <packages>` pattern: each
// must match at least one Test, Benchmark, Fuzz or Example function
// declared in those packages. A pattern naming a deleted or renamed test
// otherwise selects nothing, and go test passes without running it.
func TestCIRunPatternsSelectTests(t *testing.T) {
	root := moduleRoot()
	ci, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	invocation := regexp.MustCompile(`go test .*?-run '([^']*)'(.*)`)
	names := map[string][]string{} // package pattern → its test functions
	checked := 0
	for n, line := range strings.Split(string(ci), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		m := invocation.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(m[2]) {
			if !strings.HasPrefix(f, ".") {
				if strings.HasPrefix(f, "-") {
					continue
				}
				break // the end of the command: &&, |, a comment
			}
			pkgs = append(pkgs, f)
		}
		if len(pkgs) == 0 {
			t.Errorf("ci.yml:%d: no package after the -run pattern", n+1)
			continue
		}
		var funcs []string
		for _, p := range pkgs {
			if _, ok := names[p]; !ok {
				names[p] = testFuncs(t, root, p)
			}
			funcs = append(funcs, names[p]...)
		}
		for _, alt := range strings.Split(m[1], "|") {
			top, _, _ := strings.Cut(alt, "/") // a subtest path selects by its top level
			re, err := regexp.Compile(top)
			if err != nil {
				t.Errorf("ci.yml:%d: alternative %q: %v", n+1, alt, err)
				continue
			}
			checked++
			if !anyMatch(re, funcs) {
				t.Errorf("ci.yml:%d: alternative %q of -run matches no test in %s", n+1, alt, strings.Join(pkgs, " "))
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no go test -run pattern in ci.yml")
	}
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, s := range names {
		if re.MatchString(s) {
			return true
		}
	}
	return false
}

// testFuncs returns the Test, Benchmark, Fuzz and Example functions
// declared in the _test.go files of a go test package pattern: a
// directory, or one ending in /... for the directories below it that
// belong to this module.
func testFuncs(t *testing.T, root, pattern string) []string {
	t.Helper()
	dir, walk := strings.CutSuffix(pattern, "/...")
	base := filepath.Join(root, dir)
	var out []string
	err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == base {
				return nil
			}
			name := d.Name()
			if !walk || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // another module
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil {
				continue
			}
			for _, prefix := range []string{"Test", "Benchmark", "Fuzz", "Example"} {
				if strings.HasPrefix(fn.Name.Name, prefix) {
					out = append(out, fn.Name.Name)
					break
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("reading the tests of %s: %v", pattern, err)
	}
	return out
}
