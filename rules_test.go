package repro_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stateAllow is every package-level var the module's non-test sources may
// hold, with the reason it stays. Error sentinels (errors.New), sync.Pools and
// blank vars need no entry. A var shared by every plan a daemon serves is
// state only a measurement or an immutable table justifies.
var stateAllow = map[string]string{
	"internal/xmltree.frameCache":  "identical-frame decode cache, bounded by SetFrameCacheLimit; its ablation is ROADMAP item 7",
	"internal/xmltree.unsealMu":    "serializes building a sealed node's children, so concurrent readers build them once",
	"internal/xmltree.byteClass":   "immutable byte-class table of the decoder's scans",
	"internal/algebra.fnvZeros":    "immutable table of FNV prime powers for the plan hash",
	"internal/algebra.parseTable":  "predicate parse table; it hits on 98.5-99.96% of parses (ROADMAP ablations)",
	"internal/algebra.predRenders": "test probe: counts renderer calls, so a test shows a warm hop renders nothing",
	"internal/algebra.predParses":  "test probe: counts parser runs, so a test shows a warm hop parses nothing",
	"internal/workload.conditions": "immutable table of the item conditions the generator draws from",
	"cmd/benchjson.benchLine":      "immutable compiled pattern of a go test -bench line",
	"internal/wire.readTimeout":    "read deadline; a var so the package's own tests can shorten it",
	"internal/wire.writeTimeout":   "write deadline; a var so the package's own tests can shorten it",
	"internal/wire.idleTimeout":    "pooled-link idle bound; a var so the package's own tests can shorten it",
	"internal/hierarchy.Top":       "the all-inclusive top category, which bench/ reads",
}

// TestPackageState holds the module's package-level vars to stateAllow: an
// unlisted var fails, and so does an entry nothing declares any more.
func TestPackageState(t *testing.T) {
	_, files := moduleSources(t, ".", 0)
	for _, p := range stateProblems(files, stateAllow) {
		t.Error(p)
	}
}

// TestFrameEncoderReleased holds every pooled frame encoder outside xmltree
// to its discipline: released in the function that got it, or returned.
func TestFrameEncoderReleased(t *testing.T) {
	fset, files := moduleSources(t, ".", 0)
	for _, p := range poolProblems(fset, files) {
		t.Error(p)
	}
}

// TestNoRecover: no recover() outside tests. A boundary that must survive a
// panic is a decision to make on purpose, with this rule changed beside it.
func TestNoRecover(t *testing.T) {
	fset, files := moduleSources(t, ".", 0)
	for _, p := range recoverProblems(fset, files) {
		t.Error(p)
	}
}

// TestRulesFlagFixtures runs each rule over testdata/rules, a tree with one
// planted violation of each kind beside code each rule must accept, and
// holds the rules to finding exactly the planted ones.
func TestRulesFlagFixtures(t *testing.T) {
	fset, files := moduleSources(t, "testdata/rules", 0)
	check := func(rule string, got, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Errorf("%s rule on testdata/rules:\ngot  %q\nwant %q", rule, got, want)
		}
	}
	check("state", stateProblems(files, map[string]string{
		"state.listed": "fixture",
		"state.gone":   "fixture",
	}), []string{
		"package-level var state.gone is listed in stateAllow but no longer declared",
		"package-level var state.unlisted is not in stateAllow; give it a reason there or make it local",
	})
	check("pool", poolProblems(fset, files), []string{
		"testdata/rules/pool/pool.go:11: leak: the pooled encoder enc is neither released nor returned",
		"testdata/rules/pool/pool.go:14: dropped: the pooled encoder is not bound to a variable",
		"testdata/rules/pool/pool.go:36: staged: the pooled encoder enc is neither released nor returned",
	})
	check("recover", recoverProblems(fset, files), []string{
		"testdata/rules/recover/recover.go:6: recover() outside tests",
	})
}

// srcFile is one non-test Go source of the module.
type srcFile struct {
	pkg  string // its directory relative to the walk's root, slash-separated
	path string
	f    *ast.File
}

// moduleSources parses every non-test Go file under root in mode. It skips
// nested modules (bench/), testdata and dot-directories below root: it is
// the one reading of "the module's sources" that the layering, options and
// rules censuses share, so they cannot disagree on which files exist.
func moduleSources(t *testing.T, root string, mode parser.Mode) (*token.FileSet, []srcFile) {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
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
		f, err := parser.ParseFile(fset, path, nil, mode)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, srcFile{pkg: filepath.ToSlash(rel), path: filepath.ToSlash(path), f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return fset, files
}

// stateProblems lists the package-level vars of files that allow does not
// name, and the entries of allow that no file declares.
func stateProblems(files []srcFile, allow map[string]string) []string {
	var out []string
	seen := map[string]bool{}
	for _, sf := range files {
		for _, decl := range sf.f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				s := spec.(*ast.ValueSpec)
				for i, n := range s.Names {
					var val ast.Expr
					if i < len(s.Values) {
						val = s.Values[i]
					}
					if n.Name == "_" || isErrorsNew(val) || isSyncPool(s.Type, val) {
						continue
					}
					key := sf.pkg + "." + n.Name
					seen[key] = true
					if allow[key] == "" {
						out = append(out, fmt.Sprintf("package-level var %s is not in stateAllow; give it a reason there or make it local", key))
					}
				}
			}
		}
	}
	for key := range allow {
		if !seen[key] {
			out = append(out, fmt.Sprintf("package-level var %s is listed in stateAllow but no longer declared", key))
		}
	}
	slices.Sort(out)
	return out
}

// isSyncPool reports whether a var of type typ initialised to val is a
// sync.Pool: declared with that type, or a (pointer to a) sync.Pool literal.
func isSyncPool(typ, val ast.Expr) bool {
	if u, ok := val.(*ast.UnaryExpr); ok && u.Op == token.AND {
		val = u.X
	}
	if lit, ok := val.(*ast.CompositeLit); ok {
		typ = lit.Type
	}
	return isSel(typ, "sync", "Pool")
}

// isSel reports whether e is the selector pkg.name.
func isSel(e ast.Expr, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg
}

// poolProblems lists the pooled frame encoders outside internal/xmltree that
// escape their discipline. A source is xmltree.GetFrameEncoder or a plain
// function of the same package that returns an encoder it got from a source
// (algebra.framed, wire.stage), found to a fixpoint. Every source call must
// bind its encoder to a variable that the function releases (a Release call
// on it anywhere in the body, deferred or in a closure) or returns.
func poolProblems(fset *token.FileSet, files []srcFile) []string {
	byPkg := map[string][]*ast.FuncDecl{}
	for _, sf := range files {
		if sf.pkg == "internal/xmltree" {
			continue
		}
		for _, decl := range sf.f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				byPkg[sf.pkg] = append(byPkg[sf.pkg], fd)
			}
		}
	}
	var out []string
	for _, fns := range byPkg {
		sources := map[string]bool{}
		for changed := true; changed; {
			changed = false
			for _, fd := range fns {
				if fd.Recv == nil && !sources[fd.Name.Name] {
					if returns, _ := encoderUse(fset, fd, sources); returns {
						sources[fd.Name.Name], changed = true, true
					}
				}
			}
		}
		for _, fd := range fns {
			_, leaks := encoderUse(fset, fd, sources)
			out = append(out, leaks...)
		}
	}
	slices.Sort(out)
	return out
}

// isSourceCall reports whether e calls a source of pooled encoders.
func isSourceCall(e ast.Expr, sources map[string]bool) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		return sources[id.Name]
	}
	return isSel(call.Fun, "xmltree", "GetFrameEncoder")
}

// encoderUse reads fd's body. It reports whether fd's own return statements
// (not a closure's) hand a pooled encoder to the caller, and lists each
// source call whose encoder is not bound to a variable, and each variable
// bound to one that fd neither releases (a Release call on it anywhere,
// deferred or in a closure) nor returns.
func encoderUse(fset *token.FileSet, fd *ast.FuncDecl, sources map[string]bool) (returns bool, leaks []string) {
	bound := map[string]ast.Expr{} // variable -> the source call bound to it
	kept := map[ast.Expr]bool{}    // source calls bound or returned
	released, returned := map[string]bool{}, map[string]bool{}
	var calls []ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if id, ok := n.Lhs[0].(*ast.Ident); ok && len(n.Rhs) == 1 && isSourceCall(n.Rhs[0], sources) {
				bound[id.Name], kept[n.Rhs[0]] = n.Rhs[0], true
			}
		case *ast.CallExpr:
			if isSourceCall(n, sources) {
				calls = append(calls, n)
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Release" {
				if id, ok := sel.X.(*ast.Ident); ok {
					released[id.Name] = true
				}
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if id, ok := r.(*ast.Ident); ok && bound[id.Name] != nil {
					returns, returned[id.Name] = true, true
				}
				if isSourceCall(r, sources) {
					returns, kept[r] = true, true
				}
			}
		}
		return true
	})
	where := func(e ast.Expr) string { return posString(fset, e.Pos()) + ": " + fd.Name.Name + ": " }
	for v, call := range bound {
		if !released[v] && !returned[v] {
			leaks = append(leaks, where(call)+"the pooled encoder "+v+" is neither released nor returned")
		}
	}
	for _, call := range calls {
		if !kept[call] {
			leaks = append(leaks, where(call)+"the pooled encoder is not bound to a variable")
		}
	}
	return returns, leaks
}

// recoverProblems lists every recover() call in files.
func recoverProblems(fset *token.FileSet, files []srcFile) []string {
	var out []string
	for _, sf := range files {
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && len(call.Args) == 0 {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" {
					out = append(out, posString(fset, call.Pos())+": recover() outside tests")
				}
			}
			return true
		})
	}
	slices.Sort(out)
	return out
}

// posString is pos as file:line.
func posString(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.ToSlash(p.Filename), p.Line)
}
