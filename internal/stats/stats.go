// Package stats provides the statistics a server may attach to an MQP
// instead of evaluating a sub-plan (§5.1): cardinalities, distinct counts of
// a join column, and equi-width histograms. Annotations are encoded as
// compact strings so they fit the algebra package's key/value annotation
// model and survive XML round trips.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/xmltree"
)

// Summary captures the per-collection statistics a server publishes.
type Summary struct {
	// Card is the exact number of items.
	Card int
	// Distinct maps a field path to its distinct-value count.
	Distinct map[string]int
	// Hist holds an equi-width histogram over a numeric field.
	Hist *Histogram
}

// Collect computes a Summary for a collection: cardinality, distinct counts
// for the given key paths, and (when histPath is non-empty) a histogram of
// that numeric field with the given number of buckets. The histogram is
// published only when every item's value at histPath reads as a number
// under xmltree.Number: a select compares any other value (a missing field,
// "N/A", "NaN") as text, so it can match outside the histogram's range, and
// pruning by that range would drop it.
func Collect(items []*xmltree.Node, keyPaths []string, histPath string, buckets int) Summary {
	s := Summary{Card: len(items), Distinct: map[string]int{}}
	for _, p := range keyPaths {
		path := xmltree.ParsePath(p)
		seen := map[string]bool{}
		for _, it := range items {
			v := strings.TrimSpace(path.Value(it))
			if v != "" {
				seen[v] = true
			}
		}
		s.Distinct[p] = len(seen)
	}
	if histPath != "" && buckets > 0 {
		path := xmltree.ParsePath(histPath)
		var vals []float64
		for _, it := range items {
			f, ok := xmltree.Number(path.Value(it))
			if !ok {
				vals = nil
				break
			}
			vals = append(vals, f)
		}
		if len(vals) > 0 {
			s.Hist = NewHistogram(histPath, vals, buckets)
		}
	}
	return s
}

// EncodeDistinct renders a distinct-count map in the "path:count,..." wire
// form used for the AnnotDistinct annotation; paths are sorted for
// determinism.
func EncodeDistinct(d map[string]int) string {
	paths := make([]string, 0, len(d))
	for p := range d {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	parts := make([]string, len(paths))
	for i, p := range paths {
		parts[i] = p + ":" + strconv.Itoa(d[p])
	}
	return strings.Join(parts, ",")
}

// Histogram is an equi-width histogram over a numeric field.
type Histogram struct {
	Path   string
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds an equi-width histogram of vals with the given number
// of buckets.
func NewHistogram(path string, vals []float64, buckets int) *Histogram {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	h := &Histogram{Path: path, Lo: lo, Hi: hi, Counts: make([]int, buckets)}
	for _, v := range vals {
		h.Counts[h.bucket(v)]++
	}
	return h
}

func (h *Histogram) bucket(v float64) int {
	if h.Hi == h.Lo {
		return 0
	}
	b := int(float64(len(h.Counts)) * (v - h.Lo) / (h.Hi - h.Lo))
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Encode renders the histogram in the compact wire form
// "path;lo;hi;c0|c1|...". It is the value of the AnnotHistogram annotation.
func (h *Histogram) Encode() string {
	parts := make([]string, len(h.Counts))
	for i, c := range h.Counts {
		parts[i] = strconv.Itoa(c)
	}
	return fmt.Sprintf("%s;%g;%g;%s", h.Path, h.Lo, h.Hi, strings.Join(parts, "|"))
}

// DecodeHistogram parses the wire form produced by Encode.
func DecodeHistogram(s string) (*Histogram, error) {
	parts := strings.Split(s, ";")
	if len(parts) != 4 {
		return nil, fmt.Errorf("stats: malformed histogram %q", s)
	}
	lo, err := strconv.ParseFloat(parts[1], 64)
	if err != nil {
		return nil, fmt.Errorf("stats: histogram lo: %w", err)
	}
	hi, err := strconv.ParseFloat(parts[2], 64)
	if err != nil {
		return nil, fmt.Errorf("stats: histogram hi: %w", err)
	}
	countStrs := strings.Split(parts[3], "|")
	counts := make([]int, len(countStrs))
	for i, cs := range countStrs {
		c, err := strconv.Atoi(cs)
		if err != nil {
			return nil, fmt.Errorf("stats: histogram bucket %d: %w", i, err)
		}
		counts[i] = c
	}
	return &Histogram{Path: parts[0], Lo: lo, Hi: hi, Counts: counts}, nil
}
