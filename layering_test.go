package repro_test

import (
	"go/parser"
	"strconv"
	"strings"
	"testing"
)

// layerRank orders the module's packages: an import between two of them must
// go strictly down the ranks, so the graph cannot grow a cycle and a lower
// layer cannot reach up (the codec into the processor, the processor into a
// peer). A new package fails the test until it is given a rank here.
var layerRank = map[string]int{
	"internal/xmltree":   0,
	"internal/hierarchy": 0,

	"internal/algebra":   1,
	"internal/namespace": 1,
	"internal/stats":     1,
	"internal/simnet":    1,
	"internal/wire":      1,

	"internal/catalog":    2,
	"internal/provenance": 2,
	"internal/blobstore":  2,
	"internal/engine":     2,
	"internal/workload":   2,
	"internal/baseline":   2,

	"internal/route":       3,
	"internal/mqp":         4,
	"internal/peer":        5,
	"internal/world":       6,
	"internal/chaos":       7,
	"internal/experiments": 8,

	"cmd":      9,
	"examples": 10,
}

// harnesses build simulated worlds; the daemon must link none of them.
var harnesses = []string{"internal/world", "internal/chaos", "internal/experiments"}

// transports carry frozen documents and know nothing of what is in them:
// inside the module they may import xmltree and nothing else.
var transports = map[string]bool{"internal/wire": true, "internal/simnet": true}

// rankOf ranks an internal package by its own entry and the trees ranked as
// a whole (cmd, examples) by their top directory.
func rankOf(pkg string) (int, bool) {
	if top, _, _ := strings.Cut(pkg, "/"); top != "internal" {
		pkg = top
	}
	r, ok := layerRank[pkg]
	return r, ok
}

// TestImportLayering reads the import clauses of every non-test file in the
// module (bench/ is a module of its own and is skipped) and holds them to
// layerRank. From the same clauses it computes what cmd/mqpd links and holds
// that to harnesses.
func TestImportLayering(t *testing.T) {
	const module = "repro/"
	imports := map[string][]string{} // package -> module packages it imports
	_, files := moduleSources(t, ".", parser.ImportsOnly)
	for _, sf := range files {
		pkg := sf.pkg
		if pkg == "." {
			continue
		}
		from, ok := rankOf(pkg)
		if !ok {
			t.Errorf("%s: package %s has no rank in layerRank", sf.path, pkg)
			continue
		}
		for _, spec := range sf.f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			if !strings.HasPrefix(imp, module) {
				continue
			}
			imp = strings.TrimPrefix(imp, module)
			imports[pkg] = append(imports[pkg], imp)
			if to, ok := rankOf(imp); !ok {
				t.Errorf("%s imports %s, which has no rank in layerRank", sf.path, imp)
			} else if to >= from {
				t.Errorf("%s: %s (rank %d) imports %s (rank %d); imports must go strictly down", sf.path, pkg, from, imp, to)
			}
			if transports[pkg] && imp != "internal/xmltree" {
				t.Errorf("%s: transport %s imports %s; it may import only xmltree", sf.path, pkg, imp)
			}
		}
	}

	linked := map[string]bool{}
	var link func(pkg string)
	link = func(pkg string) {
		if !linked[pkg] {
			linked[pkg] = true
			for _, imp := range imports[pkg] {
				link(imp)
			}
		}
	}
	link("cmd/mqpd")
	if !linked["internal/peer"] {
		t.Fatalf("cmd/mqpd does not link internal/peer: its imports were not read")
	}
	for _, h := range harnesses {
		if linked[h] {
			t.Errorf("cmd/mqpd links %s; the daemon must link no world harness", h)
		}
	}
}
