package algebra

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/xmltree"
)

// fnvFingerprint is Fingerprint as it was first written, through hash/fnv's
// hash.Hash64: the reference the hand-rolled FNV-1a is pinned against. The
// digest is on the wire in <visited> records, so the two must agree bit for
// bit, not just collide equally rarely.
func fnvFingerprint(n *Node) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	writeInt := func(i int) {
		v := uint64(i)
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	var walk func(m *Node)
	walk = func(m *Node) {
		writeInt(int(m.Kind))
		writeStr(m.URL)
		writeStr(m.PathExp)
		writeStr(m.URN)
		if m.Pred != nil {
			writeStr(m.Pred.String())
		}
		writeStr(joinFields(m.Fields))
		writeStr(m.As)
		writeStr(m.LeftKey)
		writeStr(m.RightKey)
		writeStr(m.LeftName)
		writeStr(m.RightName)
		writeInt(m.N)
		writeStr(m.OrderBy)
		if m.Desc {
			writeInt(1)
		} else {
			writeInt(0)
		}
		keys := make([]string, 0, len(m.Annotations))
		for k := range m.Annotations {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			writeStr(k)
			writeStr(m.Annotations[k])
		}
		writeInt(len(m.Docs))
		for _, d := range m.Docs {
			writeInt(d.ByteSize())
		}
		writeInt(len(m.Children))
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
	return h.Sum64()
}

// randomOperator grows a random operator tree: every kind, annotations on
// any node, payload documents of varying size under data leaves, strings with
// multi-byte runes and the empty string.
func randomOperator(rng *rand.Rand, depth int) *Node {
	words := []string{"", "price", "title", "k", "naïve/ключ", "urn:InterestArea:(USA.OR,Music.CDs)", strings.Repeat("x", 300)}
	word := func() string { return words[rng.Intn(len(words))] }
	sub := func() *Node { return randomOperator(rng, depth-1) }
	var n *Node
	kind := Kind(rng.Intn(int(KindDisplay) + 1))
	if depth <= 0 {
		kind = Kind(rng.Intn(int(KindURN) + 1))
	}
	switch kind {
	case KindData:
		docs := make([]*xmltree.Node, rng.Intn(4))
		for i := range docs {
			docs[i] = xmltree.MustParse(fmt.Sprintf(`<item n="%d"><price>%d</price><t>%s</t></item>`,
				i, rng.Intn(1000), strings.Repeat("é", rng.Intn(40))))
			if rng.Intn(2) == 0 {
				docs[i].Freeze()
			}
		}
		n = Data(docs...)
	case KindURL:
		n = URL("http://"+word()+":9020/", "/data[id="+strconv.Itoa(rng.Intn(9))+"]")
	case KindURN:
		n = URN("urn:" + word())
	case KindSelect:
		preds := []string{"price < 10", "price < 10 and exists title", "title contains '<é>' or not price >= 3"}
		n = Select(MustParsePredicate(preds[rng.Intn(len(preds))]), sub())
	case KindProject:
		fields := make([]string, rng.Intn(3))
		for i := range fields {
			fields[i] = word()
		}
		n = Project(word(), fields, sub())
	case KindJoin:
		n = JoinNamed(word(), word(), word(), word(), sub(), sub())
	case KindUnion, KindOr:
		kids := make([]*Node, 1+rng.Intn(3))
		for i := range kids {
			kids[i] = sub()
		}
		if kind == KindUnion {
			n = Union(kids...)
		} else {
			n = Or(kids...)
		}
	case KindDifference:
		n = Difference(sub(), sub())
	case KindCount:
		n = Count(sub())
	case KindTopN:
		n = TopN(rng.Intn(1<<20)-5, word(), rng.Intn(2) == 0, sub())
	case KindDisplay:
		n = Display(sub())
	}
	for i := rng.Intn(4); i > 0; i-- {
		n.Annotate(word(), word())
	}
	return n
}

// fuzzCorpusPlans decodes every entry of the committed fuzz corpora (and the
// in-code seeds of this package's own fuzz target) that is a plan frame.
func fuzzCorpusPlans(t *testing.T) []*Plan {
	t.Helper()
	inputs := append([]string(nil), streamFuzzSeeds...)
	files, err := filepath.Glob("../*/testdata/fuzz/*/*")
	if err != nil || len(files) == 0 {
		t.Fatalf("no committed fuzz corpora found (%v)", err)
	}
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			open, shut := strings.Index(line, "("), strings.LastIndex(line, ")")
			if open < 0 || shut < open {
				continue
			}
			if v, err := strconv.Unquote(line[open+1 : shut]); err == nil {
				inputs = append(inputs, v)
				if len(v) > 4 { // wire corpora carry a length prefix
					inputs = append(inputs, v[4:])
				}
			}
		}
	}
	var plans []*Plan
	for _, in := range inputs {
		if p, err := DecodeString(in); err == nil {
			plans = append(plans, p)
		}
	}
	return plans
}

// TestFingerprintMatchesFNV pins the inlined hash to the hash/fnv
// formulation over seeded random plans, the hand-built plan spread of the
// stream tests, and every plan in the fuzz corpora. Replay a failure with
// the printed seed.
func TestFingerprintMatchesFNV(t *testing.T) {
	check := func(name string, root *Node) {
		t.Helper()
		if got, want := Fingerprint(root), fnvFingerprint(root); got != want {
			t.Fatalf("%s: Fingerprint = %016x, hash/fnv says %016x", name, got, want)
		}
	}
	kinds := map[Kind]bool{}
	for seed := int64(1); seed <= 2000; seed++ {
		root := randomOperator(rand.New(rand.NewSource(seed)), 4)
		root.Walk(func(m *Node) bool { kinds[m.Kind] = true; return true })
		check(fmt.Sprintf("random plan, seed %d", seed), root)
	}
	for k := KindData; k <= KindDisplay; k++ {
		if !kinds[k] {
			t.Errorf("random plans never produced a %v operator", k)
		}
	}
	// Integers at every byte-length boundary: fnvInt folds the zero high
	// bytes in one multiplication.
	for _, n := range []int{0, 1, 255, 256, 65535, 65536, 1<<24 - 1, 1 << 24, 1 << 32, 1<<56 - 1, 1 << 56, -1, -256, 1<<63 - 1, -1 << 63} {
		check(fmt.Sprintf("topn n=%d", n), TopN(n, "", false, Data()))
	}
	for name, p := range streamPlans(t) {
		check(name, p.Root)
	}
	corpus := fuzzCorpusPlans(t)
	if len(corpus) < len(streamFuzzSeeds) {
		t.Fatalf("only %d corpus entries decoded as plans", len(corpus))
	}
	for i, p := range corpus {
		check(fmt.Sprintf("corpus plan %d (%s)", i, p.ID), p.Root)
	}
}

var fingerprintSink uint64

// BenchmarkFingerprint digests the seven-operator plan of the visited-memory
// tests.
func BenchmarkFingerprint(b *testing.B) {
	root := visitedTestPlan().Root
	b.ReportAllocs()
	for b.Loop() {
		fingerprintSink = Fingerprint(root)
	}
}
