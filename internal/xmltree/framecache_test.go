package xmltree

import (
	"strings"
	"testing"
)

// TestFrameCacheHit: byte-identical canonical frames decode to the same
// frozen tree; distinct or non-canonical frames do not.
func TestFrameCacheHit(t *testing.T) {
	old := SetFrameCacheLimit(DefaultFrameCacheBytes)
	defer SetFrameCacheLimit(old)

	frame := `<mqp id="q"><plan><data><i>1</i></data></plan></mqp>`
	a, err := DecodeString(frame)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DecodeString(strings.Clone(frame))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("identical canonical frames decoded to distinct trees")
	}
	assertNormal(t, b, frame)

	// A non-canonical input must never be cached (its bytes are not the
	// tree's serialization), and must still decode correctly each time.
	loose := `<mqp id="q"><plan><data><i>1</i></data></plan><!--c--></mqp>`
	c, err := DecodeString(loose)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeString(strings.Clone(loose))
	if err != nil {
		t.Fatal(err)
	}
	if c == d {
		t.Fatalf("non-canonical frame was cached")
	}
	if !Equal(c, d) || !Equal(a, c) {
		t.Fatalf("trees diverge")
	}
}

// TestFrameCacheDisabled: limit 0 switches the cache off entirely.
func TestFrameCacheDisabled(t *testing.T) {
	old := SetFrameCacheLimit(0)
	defer SetFrameCacheLimit(old)
	frame := `<a><b>x</b></a>`
	x, _ := DecodeString(frame)
	y, _ := DecodeString(strings.Clone(frame))
	if x == y {
		t.Fatalf("cache served a hit while disabled")
	}
}

// TestFrameCacheEviction: the byte bound holds under FIFO eviction, and
// evicted frames simply decode fresh again.
func TestFrameCacheEviction(t *testing.T) {
	old := SetFrameCacheLimit(4096)
	defer SetFrameCacheLimit(old)
	pad := strings.Repeat("y", 900)
	var frames []string
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		frames = append(frames, `<d id="`+id+`">`+pad+`</d>`)
	}
	for _, f := range frames {
		if _, err := DecodeString(f); err != nil {
			t.Fatal(err)
		}
	}
	frameCache.mu.Lock()
	bytes, entries := frameCache.bytes, len(frameCache.m)
	frameCache.mu.Unlock()
	if bytes > 4096 {
		t.Fatalf("cache holds %d bytes, limit 4096", bytes)
	}
	if entries == 0 || entries >= len(frames) {
		t.Fatalf("expected partial retention, have %d of %d", entries, len(frames))
	}
	// The newest frame should be retained; the oldest evicted.
	last, _ := DecodeString(strings.Clone(frames[len(frames)-1]))
	again, _ := DecodeString(strings.Clone(frames[len(frames)-1]))
	if last != again {
		t.Fatalf("newest frame not retained")
	}
	// Oversized frames never enter.
	huge := `<h>` + strings.Repeat("z", 4096) + `</h>`
	u, _ := DecodeString(huge)
	v, _ := DecodeString(strings.Clone(huge))
	if u == v {
		t.Fatalf("oversized frame was cached")
	}
}
