package experiments

import (
	"fmt"

	"repro/internal/chaos"
)

// E14Robustness is the adversarial re-validation of the paper's central
// robustness claim: mutant query plans survive an unreliable network without
// distributed coordination state. It sweeps seeded random scenarios
// (internal/chaos) at three fault intensities and differentially checks
// every completed query against a centralized oracle evaluating over the
// union of all data. The claim the table pins:
//
//   - answers that arrive are exactly the oracle's (oracle-equal = checked),
//     and explicit partial results are sub-multisets of the oracle's answer;
//   - every submitted plan is accounted for — completed, returned as a
//     partial result, surfaced as stuck, or attributably lost to an
//     injected fault (violations = 0);
//   - with no faults injected, nothing is ever lost in flight and nothing
//     is ever stuck: the visited-server routing memory turns every former
//     livelock into a completed or partial result.
//
// short sweeps 25 scenarios per fault level instead of 60.
func E14Robustness(short bool) (*Table, error) {
	t := &Table{
		ID:      "E14",
		Title:   "Robustness under injected faults, differentially checked against a centralized oracle",
		Columns: []string{"faults", "scenarios", "plans", "completed", "partial", "stuck", "lost-to-faults", "oracle-equal", "violations"},
	}
	scenarios := 60
	if short {
		scenarios = 25
	}
	for _, lv := range []chaos.Level{chaos.LevelNone, chaos.LevelLight, chaos.LevelHeavy} {
		var plans, completed, partial, stuck, lost, checked, violations int
		for i := 0; i < scenarios; i++ {
			// Seed bases are disjoint per level so each row is an
			// independent population.
			rep, err := chaos.Run(chaos.Config{Seed: 1400 + 10000*int64(lv) + int64(i), Level: lv})
			if err != nil {
				return nil, fmt.Errorf("E14: %w", err)
			}
			plans += rep.Plans
			completed += rep.Completed
			partial += rep.Partial
			stuck += rep.Stuck
			lost += rep.LostToFaults
			checked += rep.OracleChecked
			violations += len(rep.Violations)
		}
		if violations > 0 {
			return nil, fmt.Errorf("E14: %d invariant violations at level %s", violations, lv)
		}
		if lv == chaos.LevelNone && lost > 0 {
			return nil, fmt.Errorf("E14: %d plans lost with no faults injected", lost)
		}
		if lv == chaos.LevelNone && stuck > 0 {
			return nil, fmt.Errorf("E14: %d plans stuck with no faults injected", stuck)
		}
		t.AddRow(lv.String(), scenarios, plans, completed, partial, stuck, lost,
			fmt.Sprintf("%d/%d", checked, checked), violations)
	}
	t.Note("oracle-equal: full results equal the single-peer oracle's answer as a multiset; partial results are verified sub-multisets")
	t.Note("partial: plans whose every productive hop was exhausted (visited-server memory), returned with what was already reduced")
	t.Note("stuck: plans that could make no progress and said so (StuckErrors); none are silent losses, none occur fault-free")
	return t, nil
}
