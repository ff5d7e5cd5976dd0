package stats

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/xmltree"
)

func genItems(n int, seed int64) []*xmltree.Node {
	r := rand.New(rand.NewSource(seed))
	out := make([]*xmltree.Node, n)
	for i := range out {
		out[i] = xmltree.MustParse(fmt.Sprintf(
			`<item><title>t%d</title><price>%d</price></item>`, r.Intn(50), r.Intn(100)))
	}
	return out
}

// total returns the number of observations h recorded.
func total(h *Histogram) int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func TestCollect(t *testing.T) {
	items := genItems(200, 1)
	s := Collect(items, []string{"title"}, "price", 10)
	if s.Card != 200 {
		t.Fatalf("card = %d", s.Card)
	}
	if s.Distinct["title"] <= 0 || s.Distinct["title"] > 50 {
		t.Fatalf("distinct = %d", s.Distinct["title"])
	}
	if s.Hist == nil || total(s.Hist) != 200 {
		t.Fatalf("hist total = %v", s.Hist)
	}
}

func TestCollectEmptyAndMissing(t *testing.T) {
	s := Collect(nil, []string{"title"}, "price", 10)
	if s.Card != 0 || s.Distinct["title"] != 0 || s.Hist != nil {
		t.Fatalf("empty collect = %+v", s)
	}
	// Items missing the histogram field are skipped.
	items := []*xmltree.Node{xmltree.MustParse(`<i><x>1</x></i>`)}
	s2 := Collect(items, nil, "price", 4)
	if s2.Hist != nil {
		t.Fatal("histogram over missing field must be nil")
	}
	// One item whose value is missing, not a number, or NaN withholds the
	// histogram; the counts are kept.
	numeric := []*xmltree.Node{xmltree.MustParse(`<i><price>10</price></i>`), xmltree.MustParse(`<i><price> 20 </price></i>`)}
	if s := Collect(numeric, nil, "price", 4); s.Hist == nil || s.Hist.Lo != 10 || s.Hist.Hi != 20 {
		t.Fatalf("all-numeric collect = %+v", s.Hist)
	}
	for _, odd := range []string{`<i><x>1</x></i>`, `<i><price>N/A</price></i>`, `<i><price>NaN</price></i>`} {
		items := append(numeric[:2:2], xmltree.MustParse(odd))
		if s := Collect(items, nil, "price", 4); s.Hist != nil || s.Card != 3 {
			t.Fatalf("%s: collect = %+v, want no histogram", odd, s)
		}
	}
}

// TestDistinctRoundTrip pins the wire form of the distinct annotation:
// "path:count" entries sorted by path, and nothing for an empty map.
func TestDistinctRoundTrip(t *testing.T) {
	if got, want := EncodeDistinct(map[string]int{"title": 42, "seller/city": 7}), "seller/city:7,title:42"; got != want {
		t.Fatalf("EncodeDistinct = %q, want %q", got, want)
	}
	if got := EncodeDistinct(map[string]int{}); got != "" {
		t.Fatalf("EncodeDistinct(empty) = %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	vals := []float64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	h := NewHistogram("price", vals, 5)
	if h.Lo != 0 || h.Hi != 9 {
		t.Fatalf("range = [%g,%g]", h.Lo, h.Hi)
	}
	if total(h) != 10 {
		t.Fatalf("total = %d", total(h))
	}
	for i, c := range h.Counts {
		if c != 2 {
			t.Fatalf("bucket %d = %d, want 2", i, c)
		}
	}
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram("p", []float64{5, 5, 5}, 4)
	if total(h) != 3 || h.Counts[0] != 3 {
		t.Fatalf("degenerate hist = %v", h.Counts)
	}
}

func TestHistogramRoundTrip(t *testing.T) {
	h := NewHistogram("price", []float64{1, 2, 3, 10, 20}, 4)
	enc := h.Encode()
	back, err := DecodeHistogram(enc)
	if err != nil {
		t.Fatal(err)
	}
	if back.Path != h.Path || back.Lo != h.Lo || back.Hi != h.Hi || len(back.Counts) != len(h.Counts) {
		t.Fatalf("round trip = %+v", back)
	}
	for i := range h.Counts {
		if back.Counts[i] != h.Counts[i] {
			t.Fatalf("bucket %d mismatch", i)
		}
	}
	for _, bad := range []string{"x", "p;a;2;1|2", "p;1;b;1|2", "p;1;2;x|y"} {
		if _, err := DecodeHistogram(bad); err == nil {
			t.Errorf("DecodeHistogram(%q): want error", bad)
		}
	}
}

// Property: histogram round trip preserves all fields.
func TestPropertyHistogramRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(1000))
		}
		h := NewHistogram("p", vals, 1+r.Intn(8))
		back, err := DecodeHistogram(h.Encode())
		if err != nil || back.Lo != h.Lo || back.Hi != h.Hi {
			return false
		}
		for i := range h.Counts {
			if back.Counts[i] != h.Counts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
