package evaluation

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/errs"
)

// Document is the `beebsbench -json` output schema: one optional section
// per selected experiment plus the sweep's reuse ledgers. It lives here
// (rather than in the CLI) so shard fragments can be merged — and that
// merge tested — against the exact emitted shape. Each section's slot is
// filled and merged by its Sections entry.
//
// Field order is the emission order; changing it changes every golden
// byte downstream.
type Document struct {
	Fig5      []Figure5RowJSON    `json:"fig5,omitempty"`
	Aggregate *AggregateJSON      `json:"aggregate,omitempty"`
	Savers    []SaversRowJSON     `json:"savers,omitempty"`
	CaseStudy *ScenarioJSON       `json:"casestudy,omitempty"`
	Fig9      []Figure9SeriesJSON `json:"fig9,omitempty"`
	Selection []BestJSON          `json:"selection,omitempty"`
	// Intermittent is the harvested-power sweep (DESIGN.md §6l): each
	// benchmark × level replayed under each harvest profile, checkpoint-
	// oblivious and checkpoint-aware.
	Intermittent []IntermittentRowJSON `json:"intermittent,omitempty"`

	// Shard is present exactly on fragment documents (`-shard i/n`): it
	// records the shard coordinates and which sections were selected, so
	// MergeShards can verify the fragments describe one partition of one
	// invocation.
	Shard *ShardJSON `json:"shard,omitempty"`

	// The ledgers describe the producing process, not the experiment:
	// they differ per shard and per run, so `-noledger` omits them (and
	// MergeShards always drops them) to make documents byte-comparable.
	SessionStats *SweepStats       `json:"session_stats,omitempty"`
	SolverStats  *core.SolverStats `json:"solver_stats,omitempty"`
	WallMS       float64           `json:"wall_ms,omitempty"`
	Workers      int               `json:"workers,omitempty"`

	// Status is "incomplete" when any selected section was cut short —
	// by -timeout, an interrupt, or a failing cell — in which case
	// Errors lists what went wrong and the affected section rows carry
	// incomplete markers. Absent on a clean run.
	Status string   `json:"status,omitempty"`
	Errors []string `json:"errors,omitempty"`
}

// ShardJSON is the fragment metadata block of a sharded document.
type ShardJSON struct {
	Index    int      `json:"index"`
	Count    int      `json:"count"`
	Sections []string `json:"sections"`
}

// badFragment attributes a merge-validation failure to one fragment.
func badFragment(name, format string, a ...any) error {
	return errs.BadInput(fmt.Errorf("%s: "+format, append([]any{name}, a...)...))
}

// MergeShards reassembles the unsharded document from one fragment per
// shard of a single sharded invocation. names label the fragments in
// errors (the CLI passes file names); fragments may arrive in any order.
//
// Validation is strict — all failures are errs.ErrBadInput:
//
//   - every fragment must carry shard metadata with one consistent
//     count, equal to the number of fragments
//   - the indices must be exactly 0..count-1, no duplicates
//   - every fragment must have selected the same sections
//   - incomplete fragments are rejected (re-run that shard instead:
//     interleaving partial sections would silently misattribute cells)
//   - section lengths must interleave consistently (a fragment from a
//     different invocation — other levels, another -top — cannot pass
//     itself off as the missing piece)
//
// Each selected section is reassembled by its Sections entry's merge
// rule. The merged document is ledger-free: session/solver stats, wall
// time and worker counts describe each producing process, not the
// experiment, so the merge result is byte-identical to an unsharded
// `-noledger` run.
func MergeShards(fragments []Document, names []string) (*Document, error) {
	if len(fragments) == 0 {
		return nil, errs.BadInput(fmt.Errorf("merge: no fragments"))
	}
	name := func(i int) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("fragment %d", i)
	}

	first := fragments[0].Shard
	if first == nil {
		return nil, badFragment(name(0), "not a shard fragment (no shard metadata)")
	}
	n := first.Count
	if n < 1 || n != len(fragments) {
		return nil, badFragment(name(0), "shard count %d, but %d fragments given", n, len(fragments))
	}
	// With exactly n fragments, in-range distinct indices fill every slot.
	byIndex := make([]*Document, n)
	for i := range fragments {
		f := &fragments[i]
		switch {
		case f.Shard == nil:
			return nil, badFragment(name(i), "not a shard fragment (no shard metadata)")
		case f.Shard.Count != n:
			return nil, badFragment(name(i), "shard count %d conflicts with %s's %d",
				f.Shard.Count, name(0), n)
		case f.Shard.Index < 0 || f.Shard.Index >= n:
			return nil, badFragment(name(i), "shard index %d out of range [0, %d)", f.Shard.Index, n)
		case f.Status != "":
			return nil, badFragment(name(i), "fragment is %s — re-run shard %d/%d",
				f.Status, f.Shard.Index, n)
		case strings.Join(f.Shard.Sections, ",") != strings.Join(first.Sections, ","):
			return nil, badFragment(name(i), "sections %v conflict with %s's %v",
				f.Shard.Sections, name(0), first.Sections)
		case byIndex[f.Shard.Index] != nil:
			return nil, badFragment(name(i), "duplicate fragment for shard %d/%d", f.Shard.Index, n)
		}
		byIndex[f.Shard.Index] = f
	}

	out := &Document{}
	for _, s := range Sections() {
		if !slices.Contains(first.Sections, s.Name) {
			continue
		}
		if err := s.merge(byIndex, out); err != nil {
			return nil, badFragment(name(0), "%s: %v", s.Name, err)
		}
	}
	return out, nil
}
