package mqp

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/route"
)

// TestEmptyShortcutsByteIdentical pins the Config.Shortcuts contract at the
// processor level: a nil table and an empty table must produce the same
// routing decisions and the same plan bytes at every hop. Only a table that
// has actually learned an edge may change where a plan travels, so turning
// the feature on (peer.Config.LearnShortcuts) before any trail has been
// mined is indistinguishable from leaving it off.
func TestEmptyShortcutsByteIdentical(t *testing.T) {
	run := func(withEmptyTable bool) (trace []string, outs []Outcome) {
		m, s1, s2, tr := fig34World(t)
		procs := map[string]*Processor{
			"M:9020": m, "10.1.2.3:9020": s1, "10.2.3.4:9020": s2, "tracks:9020": tr,
		}
		if withEmptyTable {
			for _, p := range procs {
				p.cfg.Shortcuts = route.NewShortcuts()
			}
		}
		plan := fig3Plan()
		at := m
		for hop := 0; hop < 16; hop++ {
			out, err := at.Step(plan)
			if err != nil {
				t.Fatalf("empty=%v hop %d: %v", withEmptyTable, hop, err)
			}
			trace = append(trace, algebra.EncodeString(plan))
			outs = append(outs, out)
			if out.Done || out.Partial {
				return trace, outs
			}
			next, ok := procs[out.NextHop]
			if !ok {
				t.Fatalf("empty=%v hop %d: unknown next hop %q", withEmptyTable, hop, out.NextHop)
			}
			at = next
		}
		t.Fatalf("empty=%v: plan did not terminate in 16 hops", withEmptyTable)
		return nil, nil
	}

	nilTrace, nilOuts := run(false)
	emptyTrace, emptyOuts := run(true)

	if len(nilTrace) != len(emptyTrace) {
		t.Fatalf("hop counts differ: nil=%d empty=%d", len(nilTrace), len(emptyTrace))
	}
	for i := range nilTrace {
		if nilTrace[i] != emptyTrace[i] {
			t.Errorf("hop %d plan bytes differ:\nnil:   %s\nempty: %s", i, nilTrace[i], emptyTrace[i])
		}
		no, eo := nilOuts[i], emptyOuts[i]
		if no.Done != eo.Done || no.Partial != eo.Partial || no.NextHop != eo.NextHop {
			t.Errorf("hop %d outcomes differ: nil=%+v empty=%+v", i, no, eo)
		}
	}
	last := nilOuts[len(nilOuts)-1]
	if !last.Done {
		t.Fatalf("fig3 plan should complete, final outcome %+v", last)
	}
}
