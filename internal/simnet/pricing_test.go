package simnet

import (
	"testing"
	"time"

	"repro/internal/xmltree"
)

// TestLinkPricingReuse: the first frame on an ordered pair pays connection
// setup, reuse pays the frame header only, and the reverse direction is its
// own link.
func TestLinkPricingReuse(t *testing.T) {
	n := New()
	a := &echoPeer{addr: "a:1"}
	b := &echoPeer{addr: "b:1"}
	n.Add(a)
	n.Add(b)
	body := xmltree.MustParse(`<hello/>`)
	sz := int64(frameOverhead + body.ByteSize())

	send := func(from, to string) {
		t.Helper()
		if err := n.Send(&Message{From: from, To: to, Kind: "mqp", Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	send("a:1", "b:1")
	m := n.Metrics()
	if m.LinksOpened != 1 || m.Bytes != linkSetupOverhead+sz {
		t.Fatalf("first frame: links=%d bytes=%d, want 1 link and %d bytes",
			m.LinksOpened, m.Bytes, linkSetupOverhead+sz)
	}
	send("a:1", "b:1")
	m = n.Metrics()
	if m.LinksOpened != 1 || m.Bytes != linkSetupOverhead+2*sz {
		t.Fatalf("reused link: links=%d bytes=%d, want 1 link and %d bytes",
			m.LinksOpened, m.Bytes, linkSetupOverhead+2*sz)
	}
	send("b:1", "a:1") // reverse direction is a distinct link
	if m = n.Metrics(); m.LinksOpened != 2 {
		t.Fatalf("reverse direction reused forward link: links=%d", m.LinksOpened)
	}
}

// TestLinkPricingReplyRidesRequestConnection: a request opens a link; its
// reply must not open (or pay for) a reverse one.
func TestLinkPricingReplyRidesRequestConnection(t *testing.T) {
	n := New()
	n.Add(&echoPeer{addr: "a:1"})
	n.Add(&echoPeer{addr: "b:1"})
	body := xmltree.MustParse(`<q/>`)
	if _, _, err := n.Request(&Message{From: "a:1", To: "b:1", Kind: "fetch"}, body.Stage); err != nil {
		t.Fatal(err)
	}
	m := n.Metrics()
	if m.LinksOpened != 1 {
		t.Fatalf("request+reply opened %d links, want 1", m.LinksOpened)
	}
	want := int64(linkSetupOverhead + 2*(frameOverhead+body.ByteSize()))
	if m.Bytes != want {
		t.Fatalf("bytes = %d, want %d (one setup, two frames)", m.Bytes, want)
	}
}

// TestLinkPricingSeveredByCrashAndDown: a crash or SetDown severs the peer's
// links in both directions; traffic after recovery pays setup again.
func TestLinkPricingSeveredByCrashAndDown(t *testing.T) {
	n := New()
	a := &echoPeer{addr: "a:1"}
	b := &echoPeer{addr: "b:1"}
	n.Add(a)
	n.Add(b)
	body := xmltree.MustParse(`<hello/>`)

	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "mqp", Body: body}); err != nil {
		t.Fatal(err)
	}
	n.SetDown("b:1", true)
	n.SetDown("b:1", false)
	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "mqp", Body: body}); err != nil {
		t.Fatal(err)
	}
	if m := n.Metrics(); m.LinksOpened != 2 {
		t.Fatalf("links after down/up = %d, want 2 (redial after recovery)", m.LinksOpened)
	}

	// Scheduled crash: the control event severs links at its virtual time.
	n2 := New()
	n2.UseScheduler(1)
	c := &echoPeer{addr: "c:1"}
	d := &echoPeer{addr: "d:1"}
	n2.Add(c)
	n2.Add(d)
	if err := n2.Send(&Message{From: "c:1", To: "d:1", Kind: "mqp", Body: body, At: 0}); err != nil {
		t.Fatal(err)
	}
	n2.ScheduleCrash("d:1", 200*time.Millisecond, 300*time.Millisecond)
	if _, err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := n2.Send(&Message{From: "c:1", To: "d:1", Kind: "mqp", Body: body, At: 400 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if _, err := n2.Run(); err != nil {
		t.Fatal(err)
	}
	if m := n2.Metrics(); m.LinksOpened != 2 {
		t.Fatalf("links across crash window = %d, want 2", m.LinksOpened)
	}
}

// TestLinkPricingResetMetrics: resetting the counters also forgets open
// links, so each measured run prices its own establishment.
func TestLinkPricingResetMetrics(t *testing.T) {
	n := New()
	n.Add(&echoPeer{addr: "a:1"})
	n.Add(&echoPeer{addr: "b:1"})
	body := xmltree.MustParse(`<hello/>`)
	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "mqp", Body: body}); err != nil {
		t.Fatal(err)
	}
	n.ResetMetrics()
	if err := n.Send(&Message{From: "a:1", To: "b:1", Kind: "mqp", Body: body}); err != nil {
		t.Fatal(err)
	}
	if m := n.Metrics(); m.LinksOpened != 1 {
		t.Fatalf("links after reset = %d, want 1 (setup re-priced)", m.LinksOpened)
	}
}
