package trace_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
	"repro/internal/trace"
)

// TestModelDiffTotalMatchesEvaluate pins ModelDiff's predicted total to
// the model's own objective: equal to Evaluate's energy for the
// always-powered model, and equal to it minus the checkpoint term
// (Q per journaled byte, i.e. Q·RAMBytes) for a checkpoint-aware one.
func TestModelDiffTotalMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	prog, err := mcc.Compile(beebs.Get("int_matmult").Source, mcc.O2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := core.NewSession(prog, core.SessionConfig{})
	if err != nil {
		t.Fatal(err)
	}
	spare, err := s.SpareRAM()
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Solve(ctx, core.SolveSpec{ModelSpec: core.ModelSpec{Rspare: spare}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.InRAM) == 0 {
		t.Fatal("the solve placed nothing in RAM; the checkpoint term would be vacuous")
	}
	for _, q := range []float64{0, 0.25} {
		m, err := s.Model(ctx, core.ModelSpec{Rspare: spare, CkptNJPerByte: q})
		if err != nil {
			t.Fatal(err)
		}
		d := trace.ModelDiff(&trace.Profile{}, m, res.InRAM, trace.DiffOptions{})
		ev := m.Evaluate(res.InRAM)
		if q == 0 {
			if d.TotalPredictedNJ != ev.EnergyNJ {
				t.Errorf("Q=0: TotalPredictedNJ %v != Evaluate %v", d.TotalPredictedNJ, ev.EnergyNJ)
			}
			continue
		}
		ckpt := q * ev.RAMBytes
		if ckpt <= 0 {
			t.Fatalf("Q=%v: no checkpoint term under a non-empty placement", q)
		}
		if got := ev.EnergyNJ - ckpt; math.Abs(got-d.TotalPredictedNJ) > 1e-9*ev.EnergyNJ {
			t.Errorf("Q=%v: Evaluate − checkpoint term %v != TotalPredictedNJ %v", q, got, d.TotalPredictedNJ)
		}
	}
}
