package evaluation

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/errs"
)

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"0/1": {0, 1},
		"0/4": {0, 4},
		"3/4": {3, 4},
	}
	for in, want := range good {
		sh, err := ParseShard(in)
		if err != nil || sh != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, sh, err, want)
		}
	}
	for _, in := range []string{"", "3", "4/4", "-1/4", "1/0", "a/b", "1/2/3"} {
		if _, err := ParseShard(in); !errors.Is(err, errs.ErrBadInput) {
			t.Errorf("ParseShard(%q) = %v, want ErrBadInput", in, err)
		}
	}
}

// TestShardPartition: for any count, the shards' owned indices are
// disjoint and cover every cell exactly once, in order — the property
// the merge interleave inverts.
func TestShardPartition(t *testing.T) {
	const cells = 17
	for n := 1; n <= 5; n++ {
		owner := make([]int, cells)
		for i := range owner {
			owner[i] = -1
		}
		for i := 0; i < n; i++ {
			sh := Shard{Index: i, Count: n}
			if got, want := len(sh.indices(cells)), shardLen(cells, n, i); got != want {
				t.Errorf("shard %d/%d owns %d cells, want %d", i, n, got, want)
			}
			for _, j := range sh.indices(cells) {
				if !sh.Owns(j) {
					t.Errorf("shard %d/%d: indices lists %d but Owns(%d) is false", i, n, j, j)
				}
				if owner[j] != -1 {
					t.Errorf("cell %d owned by both shard %d and %d of %d", j, owner[j], i, n)
				}
				owner[j] = i
			}
		}
		for j, o := range owner {
			if o == -1 {
				t.Errorf("cell %d owned by no shard of %d", j, n)
			}
		}
	}
}

// shardFragment runs the named sections (in Sections order) through
// their registry runners on sw, restricted to shard sh, the way
// beebsbench -shard does, producing one ledger-free fragment document.
// Callers share sw across shards so every cell's pipeline runs once; the
// merge path, not run-to-run determinism, is what these tests exercise.
func shardFragment(t *testing.T, sw *Sweep, sh Shard, names ...string) Document {
	t.Helper()
	sw.Shard = sh
	doc := Document{Shard: &ShardJSON{Index: sh.Index, Count: sh.Count, Sections: names}}
	for _, s := range Sections() {
		if !slices.Contains(names, s.Name) {
			continue
		}
		if err := s.Run(context.Background(), sw, 3, &doc, nil); err != nil {
			t.Fatalf("shard %d/%d %s: %v", sh.Index, sh.Count, s.Name, err)
		}
	}
	return doc
}

// TestMergeShardsByteIdentity: merging the fragments of a 3-way sharded
// sweep reproduces the unsharded document byte for byte — including the
// aggregate's recomputed means and maxima, which no single shard can
// compute alone, and the case study only shard 0 runs.
func TestMergeShardsByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full aggregate sweep in -short mode")
	}
	const n = 3
	sections := []string{"aggregate", "casestudy", "fig9"}
	sw := NewSweep(2)
	frags := make([]Document, n)
	for i := 0; i < n; i++ {
		frags[i] = shardFragment(t, sw, Shard{Index: i, Count: n}, sections...)
	}
	// Shuffle the argument order: merge must key on the recorded index.
	merged, err := MergeShards([]Document{frags[2], frags[0], frags[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}

	full := shardFragment(t, sw, Shard{}, sections...)
	full.Shard = nil
	want, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(merged, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("merged document differs from unsharded run:\nmerged: %s\nfull:   %s", got, want)
	}
}

// syntheticDocument fills every section slot with distinct rows: seven
// cells per row section, so neither a 2- nor a 3-way split is even.
func syntheticDocument() Document {
	var d Document
	var runs []RunJSON
	for j := 0; j < 7; j++ {
		b := fmt.Sprintf("bench%d", j)
		f := float64(j)
		d.Fig5 = append(d.Fig5, Figure5RowJSON{Bench: b, Level: "O2", EnergyChange: -0.01 * f})
		d.Savers = append(d.Savers, SaversRowJSON{Bench: b, Level: "Os"})
		d.Fig9 = append(d.Fig9, Figure9SeriesJSON{Bench: b, Scenario: ScenarioJSON{Ke: f}})
		d.Intermittent = append(d.Intermittent, IntermittentRowJSON{Bench: b, Level: "O2", Profile: "steady"})
		d.Selection = append(d.Selection, BestJSON{Bench: b, Winner: "static"})
		runs = append(runs, RunJSON{Bench: b, Level: "O2", BlocksInRAM: j % 3,
			EnergyChange: 0.3 - 0.1*f, PowerChange: 0.1*f - 0.25, TimeChange: 0.07 * f})
	}
	d.Aggregate = &AggregateJSON{Runs: runs, AggregateSummary: summarize(runs)}
	d.CaseStudy = &ScenarioJSON{E0MJ: 1, Ke: 0.8}
	return d
}

// pick returns the rows a shard i of n owns: cells j with j%n == i.
func pick[T any](rows []T, i, n int) []T {
	var out []T
	for j := i; j < len(rows); j += n {
		out = append(out, rows[j])
	}
	return out
}

// TestSectionsRegistry holds the registry to its contract without
// running a pipeline: every section has its own name and Document slot,
// and splitting a document by the j%n ownership rule then merging it
// gives back the same bytes.
func TestSectionsRegistry(t *testing.T) {
	doc := syntheticDocument()
	var names []string
	slots := map[string]string{}
	for _, s := range Sections() {
		if slices.Contains(names, s.Name) {
			t.Fatalf("section name %s declared twice", s.Name)
		}
		names = append(names, s.Name)
		// A one-fragment merge of this section alone emits exactly its
		// own slot.
		one := doc
		one.Shard = &ShardJSON{Index: 0, Count: 1, Sections: []string{s.Name}}
		merged, err := MergeShards([]Document{one}, nil)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b, err := json.Marshal(merged)
		if err != nil {
			t.Fatal(err)
		}
		var keys map[string]json.RawMessage
		if err := json.Unmarshal(b, &keys); err != nil {
			t.Fatal(err)
		}
		if len(keys) != 1 {
			t.Fatalf("section %s fills %d slots: %s", s.Name, len(keys), b)
		}
		for k := range keys {
			if other, dup := slots[k]; dup {
				t.Errorf("sections %s and %s share the %q slot", other, s.Name, k)
			}
			slots[k] = s.Name
		}
	}

	want, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3} {
		frags := make([]Document, n)
		for i := range frags {
			f := &frags[i]
			f.Shard = &ShardJSON{Index: i, Count: n, Sections: names}
			f.Fig5 = pick(doc.Fig5, i, n)
			runs := pick(doc.Aggregate.Runs, i, n)
			f.Aggregate = &AggregateJSON{Runs: runs, AggregateSummary: summarize(runs)}
			f.Savers = pick(doc.Savers, i, n)
			if i == 0 {
				f.CaseStudy = doc.CaseStudy
			}
			f.Fig9 = pick(doc.Fig9, i, n)
			f.Selection = pick(doc.Selection, i, n)
			f.Intermittent = pick(doc.Intermittent, i, n)
		}
		slices.Reverse(frags)
		merged, err := MergeShards(frags, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("n=%d: split-then-merge changed the document:\ngot:  %s\nwant: %s", n, got, want)
		}
	}
}

func TestMergeShardsValidation(t *testing.T) {
	frag := func(i, n int, sections ...string) Document {
		if sections == nil {
			sections = []string{"fig9"}
		}
		return Document{Shard: &ShardJSON{Index: i, Count: n, Sections: sections}}
	}
	cases := []struct {
		name  string
		frags []Document
	}{
		{"empty", nil},
		{"no-metadata", []Document{{}}},
		{"count-conflict", []Document{frag(0, 2), frag(1, 3)}},
		{"index-out-of-range", []Document{frag(0, 2), frag(2, 2)}},
		{"duplicate", []Document{frag(0, 2), frag(0, 2)}},
		{"missing", []Document{frag(0, 3), frag(1, 3)}},
		{"negative-count", []Document{frag(0, -1)}},
		{"count-exceeds-fragments", []Document{frag(0, 1<<40)}},
		{"sections-conflict", []Document{frag(0, 2, "fig9"), frag(1, 2, "fig5")}},
		{"incomplete", []Document{frag(0, 2), {
			Shard:  &ShardJSON{Index: 1, Count: 2, Sections: []string{"fig9"}},
			Status: "incomplete",
		}}},
		// A 3-cell sweep sharded 2 ways puts 2 cells on shard 0 and 1 on
		// shard 1; the reverse split cannot come from one invocation.
		{"not-a-partition", []Document{
			{Shard: &ShardJSON{Index: 0, Count: 2, Sections: []string{"fig9"}},
				Fig9: make([]Figure9SeriesJSON, 1)},
			{Shard: &ShardJSON{Index: 1, Count: 2, Sections: []string{"fig9"}},
				Fig9: make([]Figure9SeriesJSON, 2)},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := MergeShards(tc.frags, nil); !errors.Is(err, errs.ErrBadInput) {
				t.Errorf("MergeShards = %v, want ErrBadInput", err)
			}
		})
	}
}
