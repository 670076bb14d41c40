package main

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/bounds"
	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
)

// TestAnalyzeLintsTheOptimizedImage: the lint driver checks exactly the
// image Optimize simulates. For every BEEBS benchmark at both paper
// levels, analyzeOne's result — with and without the energy-bounds pass
// — equals the same passes run over the Report's own transformed
// program, placement and RAM budget.
func TestAnalyzeLintsTheOptimizedImage(t *testing.T) {
	ctx := context.Background()
	for _, b := range beebs.All() {
		for _, lv := range []mcc.OptLevel{mcc.O2, mcc.Os} {
			prog, err := mcc.Compile(b.Source, lv)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, lv, err)
			}
			rep, err := core.Optimize(prog, core.Options{})
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, lv, err)
			}
			for _, withBounds := range []bool{false, true} {
				passes := analysis.DefaultPasses()
				if withBounds {
					passes = append(passes, bounds.Pass{})
				}
				want, err := analysis.Run(&analysis.Context{
					Original: prog, Prog: rep.Optimized0, InRAM: rep.Placement.InRAM,
					Rspare: rep.Model.Params.Rspare,
				}, passes...)
				if err != nil {
					t.Fatalf("%s %v: %v", b.Name, lv, err)
				}
				got, err := analyzeOne(ctx, b, lv, core.Options{}, false, withBounds)
				if err != nil {
					t.Fatalf("%s %v: %v", b.Name, lv, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %v (bounds %v): analyze reported\n%s\nthe Report's image gives\n%s",
						b.Name, lv, withBounds, got.Summary(), want.Summary())
				}
			}
		}
	}
}
