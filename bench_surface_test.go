package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const benchSurfaceGolden = "testdata/bench_surface.golden"

// benchBlocks names, for each root identifier bench/ uses that a numbered
// ROADMAP item must move, change or delete, that item: a root change there
// breaks bench/, so it waits for a benchmark PR that takes bench/ off the
// identifier. An identifier bench/ uses that is not listed blocks nothing.
var benchBlocks = map[string]string{
	"internal/peer.Config":                    "10 (its Workers field)",
	"internal/peer.KindResult":                "15 (no peer sends it)",
	"internal/simnet.Message":                 "3",
	"internal/simnet.Network":                 "3 (Serve's and Deliver's *Network parameter)",
	"internal/simnet.Peer":                    "3, 15",
	"internal/wire.ReadFrame":                 "16",
	"internal/xmltree.DefaultFrameCacheBytes": "7",
	"internal/xmltree.SetFrameCacheLimit":     "7",
}

// TestBenchSurface lists every exported identifier of the root module that
// bench/ (a module of its own, which root builds never compile) names as
// pkg.Ident, test files included, and holds the list, each entry with the
// item it blocks (benchBlocks), to testdata/bench_surface.golden. A root
// change sees up front what bench/ pins, and a benchmark PR's golden diff
// shows what it freed. Methods are not listed: bench/'s net.Send, for one,
// is (*simnet.Network).Send, whose alias path item 3 deletes. Rewrite with:
// go test -run TestBenchSurface . -update
func TestBenchSurface(t *testing.T) {
	paths, err := filepath.Glob("bench/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no bench sources: %v", err)
	}
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for id := range rootIdents(f) {
			used[id] = true
		}
	}
	var lines []string
	for id := range used {
		blocks := benchBlocks[id]
		if blocks == "" {
			blocks = "none"
		}
		lines = append(lines, id+"\t"+blocks)
	}
	sort.Strings(lines)
	for id := range benchBlocks {
		if !used[id] {
			t.Errorf("benchBlocks names %s, which bench/ no longer uses", id)
		}
	}
	got := "# Every root identifier bench/ names, and the ROADMAP item it blocks (TestBenchSurface).\n" +
		"# Rewrite with: go test -run TestBenchSurface . -update\n" +
		strings.Join(lines, "\n") + "\n"
	if *update {
		if err := os.WriteFile(benchSurfaceGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(benchSurfaceGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("bench/'s root surface differs from %s (rewrite with -update and review the diff):\n%s",
			benchSurfaceGolden, lineDiff(string(want), got))
	}
}

// rootIdents returns the pkg.Ident selectors of f whose pkg is an import of
// the root module, keyed by the package's path inside it. A selector on a
// local name that shadows an import is resolved by the parser to its
// declaration and skipped.
func rootIdents(f *ast.File) map[string]bool {
	const module = "repro/"
	imports := map[string]string{} // local name -> path inside the module
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil || !strings.HasPrefix(path, module) {
			continue
		}
		name := path[strings.LastIndexByte(path, '/')+1:]
		if imp.Name != nil {
			name = imp.Name.Name
		}
		imports[name] = strings.TrimPrefix(path, module)
	}
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil {
			if pkg, ok := imports[x.Name]; ok && sel.Sel.IsExported() {
				out[pkg+"."+sel.Sel.Name] = true
			}
		}
		return true
	})
	return out
}
