package repro_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateOptions = flag.Bool("update", false, "rewrite testdata/options.golden from this tree")

const optionsGolden = "testdata/options.golden"

// optionStructs are the struct types listed field by field although their
// names do not say they are settings.
var optionStructs = map[string]bool{
	"internal/simnet.Faults": true,
	"internal/mqp.Prefs":     true,
}

// isOptionStruct reports whether the exported struct type name in package
// pkg holds settings: a Config, an Options or a Policy, by name or by
// optionStructs.
func isOptionStruct(pkg, name string) bool {
	return name == "Config" || strings.HasSuffix(name, "Config") ||
		strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Policy") ||
		optionStructs[pkg+"."+name]
}

// TestOptionsInventory lists every value a caller can set without changing
// code, read from the non-test sources of the module (bench/ is a module of
// its own and is skipped), and holds the list to testdata/options.golden:
// the exported fields of settings structs (isOptionStruct), every flag a
// command under cmd/ defines, and every exported package-level var that is
// not an errors.New sentinel. A new knob fails the test until the golden
// is rewritten (go test -run TestOptionsInventory . -update), so it shows
// up as a golden diff in review.
func TestOptionsInventory(t *testing.T) {
	fset := token.NewFileSet()
	var lines []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		lines = append(lines, fileOptions(filepath.ToSlash(filepath.Dir(path)), f)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	got := "# Every setting a caller can vary without changing code (TestOptionsInventory).\n" +
		"# Rewrite with: go test -run TestOptionsInventory . -update\n" +
		strings.Join(lines, "\n") + "\n"
	if *updateOptions {
		if err := os.WriteFile(optionsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(optionsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("the options inventory differs from %s; a new or removed setting must show in the golden "+
			"(rewrite with -update and review the diff):\n%s", optionsGolden, lineDiff(string(want), got))
	}
}

// fileOptions lists the settings one file of package pkg declares.
func fileOptions(pkg string, f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				st, ok := s.Type.(*ast.StructType)
				if !ok || !s.Name.IsExported() || !isOptionStruct(pkg, s.Name.Name) {
					continue
				}
				for _, fld := range st.Fields.List {
					typ := types.ExprString(fld.Type)
					if len(fld.Names) == 0 { // embedded
						name := strings.TrimPrefix(typ, "*")
						if i := strings.LastIndex(name, "."); i >= 0 {
							name = name[i+1:]
						}
						if ast.IsExported(name) {
							out = append(out, fmt.Sprintf("field %s.%s.%s (embedded)", pkg, s.Name.Name, name))
						}
					}
					for _, n := range fld.Names {
						if n.IsExported() {
							out = append(out, fmt.Sprintf("field %s.%s.%s %s", pkg, s.Name.Name, n.Name, typ))
						}
					}
				}
			case *ast.ValueSpec:
				if gd.Tok != token.VAR {
					continue
				}
				for i, n := range s.Names {
					if !n.IsExported() || (i < len(s.Values) && isErrorsNew(s.Values[i])) {
						continue
					}
					out = append(out, fmt.Sprintf("var %s.%s", pkg, n.Name))
				}
			}
		}
	}
	if strings.HasPrefix(pkg, "cmd/") {
		ast.Inspect(f, func(n ast.Node) bool {
			if name, ok := flagName(n); ok {
				out = append(out, fmt.Sprintf("flag %s -%s", pkg, name))
			}
			return true
		})
	}
	return out
}

// isErrorsNew reports whether e is a call errors.New(...).
func isErrorsNew(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "errors" && sel.Sel.Name == "New"
}

// flagName returns the name a flag definition under cmd/ gives: the first
// string literal passed to a function of package flag (flag.Int("n", ...),
// flag.Var(&v, "alias", ...)).
func flagName(n ast.Node) (string, bool) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
		return "", false
	}
	for _, arg := range call.Args {
		if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, err := strconv.Unquote(lit.Value)
			return name, err == nil
		}
	}
	return "", false
}

// lineDiff lists the lines only one of want and got holds.
func lineDiff(want, got string) string {
	in := func(s string) map[string]bool {
		m := map[string]bool{}
		for _, l := range strings.Split(s, "\n") {
			m[l] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, l := range strings.Split(want, "\n") {
		if !g[l] {
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !w[l] {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	return b.String()
}
