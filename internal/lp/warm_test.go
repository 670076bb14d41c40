package lp

import (
	"context"
	"errors"
	"math/rand"
	"testing"
)

// sweepProblem builds min -Σ c_j x_j with x_j ≤ 1 box rows and one
// shared budget row Σ w_j x_j ≤ budget — the same all-LE shape as the
// placement model, where sweeps vary only the budget RHS.
func sweepProblem(n int, c, w []float64, budget float64) *Problem {
	p := NewProblem(n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -c[j])
		p.AddRow(map[int]float64{j: 1}, LE, 1)
	}
	row := make(map[int]float64, n)
	for j := 0; j < n; j++ {
		row[j] = w[j]
	}
	p.AddRow(row, LE, budget)
	return p
}

// TestSolveFromStickyError: a construction error recorded while building
// the problem wins over any carried state.
func TestSolveFromStickyError(t *testing.T) {
	donor := solve(t, sweepProblem(3, []float64{3, 2, 5}, []float64{1, 1, 2}, 2.5))
	p := NewProblem(1)
	p.AddRow(map[int]float64{2: 1}, LE, 1) // out of range: poisons the problem
	for _, st := range []*State{nil, donor.State} {
		if _, err := p.SolveFromState(context.Background(), st); !errors.Is(err, ErrBadProblem) {
			t.Fatalf("state %p: err = %v, want sticky ErrBadProblem", st, err)
		}
	}
}

func TestSolveFromStateMatchesColdAfterRHSChange(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	const n = 12
	c := make([]float64, n)
	w := make([]float64, n)
	for j := range c {
		c[j] = 1 + rng.Float64()*9
		w[j] = 1 + rng.Float64()*4
	}

	sol := solve(t, sweepProblem(n, c, w, 20))
	if sol.State == nil {
		t.Fatal("optimal solve returned nil State")
	}

	// Both directions of the sweep, chaining: each solve resumes from the
	// previous one's state, exactly how branch and bound walks its tree.
	// The first point repeats the donor's own budget.
	st, prev := sol.State, 20.0
	warmIters, coldIters := 0, 0
	for _, budget := range []float64{20, 4, 9, 14, 18, 22, 30} {
		next := sweepProblem(n, c, w, budget)
		cold := solve(t, next.Clone())
		warm, err := next.SolveFromState(context.Background(), st)
		if err != nil {
			t.Fatalf("budget %v: SolveFromState: %v", budget, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("budget %v: warm status %v, cold %v", budget, warm.Status, cold.Status)
		}
		if !warm.Warmed {
			t.Errorf("budget %v: state resume fell back to a cold solve", budget)
		}
		if !approx(warm.Obj, cold.Obj) {
			t.Errorf("budget %v: warm obj %v, cold %v", budget, warm.Obj, cold.Obj)
		}
		for j := range warm.X {
			if !approx(warm.X[j], cold.X[j]) {
				t.Errorf("budget %v: x[%d] warm %v cold %v", budget, j, warm.X[j], cold.X[j])
			}
		}
		// An unchanged RHS leaves the donor tableau optimal as it stands:
		// one dual scan and one primal scan, each finding nothing to
		// pivot (every pass counts its final scan as an iteration).
		if budget == prev && warm.Iters != 2 {
			t.Errorf("budget %v unchanged: warm Iters = %d, want 2 pivot-free scans", budget, warm.Iters)
		}
		warmIters += warm.Iters
		coldIters += cold.Iters
		if warm.State == nil {
			t.Fatalf("budget %v: warm optimal solve donated no State", budget)
		}
		st, prev = warm.State, budget
	}
	// A single large RHS jump can cost a pivot more than a cold solve,
	// but over the chain the dual repairs must beat re-derivation.
	if warmIters >= coldIters {
		t.Errorf("chained warm Iters %d not below cold %d", warmIters, coldIters)
	}
}

func TestSolveFromStateSharedDonorServesTwoReceivers(t *testing.T) {
	// Both children of a branch-and-bound node consume the same parent
	// state; the first consumer must not corrupt it for the second.
	c := []float64{3, 2, 5}
	w := []float64{1, 1, 2}
	parent := solve(t, sweepProblem(3, c, w, 2.5))
	for _, budget := range []float64{1.5, 3.5} {
		cold := solve(t, sweepProblem(3, c, w, budget))
		warm, err := sweepProblem(3, c, w, budget).SolveFromState(context.Background(), parent.State)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != Optimal || !approx(warm.Obj, cold.Obj) {
			t.Errorf("budget %v: got %v obj %v, want cold optimum %v",
				budget, warm.Status, warm.Obj, cold.Obj)
		}
	}
}

func TestSolveFromStateDetectsInfeasible(t *testing.T) {
	build := func(budget float64) *Problem {
		p := NewProblem(1)
		p.SetObj(0, 1)
		p.AddRow(map[int]float64{0: 1}, GE, 2)
		p.AddRow(map[int]float64{0: 1}, LE, budget)
		return p
	}
	sol := solve(t, build(5))
	warm, err := build(1).SolveFromState(context.Background(), sol.State)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Infeasible {
		t.Fatalf("warm status = %v, want Infeasible", warm.Status)
	}
}

func TestSolveFromStateLayoutMismatchFallsBackToCold(t *testing.T) {
	c := []float64{3, 2, 5}
	w := []float64{1, 1, 2}
	donor := solve(t, sweepProblem(3, c, w, 2.5))
	cold := solve(t, sweepProblem(3, c, w, 2.5))

	foreign := func(build func() *Problem) {
		t.Helper()
		p := build()
		pCold := solve(t, p.Clone())
		warm, err := p.SolveFromState(context.Background(), donor.State)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != pCold.Status || (warm.Status == Optimal && !approx(warm.Obj, pCold.Obj)) {
			t.Errorf("foreign state: got %v obj %v, want %v obj %v",
				warm.Status, warm.Obj, pCold.Status, pCold.Obj)
		}
		if warm.Warmed {
			t.Error("foreign state was consumed instead of rejected")
		}
	}

	// Different dimensions.
	foreign(func() *Problem { return sweepProblem(2, c[:2], w[:2], 2.5) })
	// Same shape, one relation changed.
	foreign(func() *Problem {
		p := sweepProblem(3, c, w, 2.5)
		p.AddRow(map[int]float64{0: 1}, GE, 0)
		return p
	})
	// RHS sign flipped on an existing row (layout re-negates the row).
	foreign(func() *Problem {
		p := NewProblem(3)
		for j := 0; j < 3; j++ {
			p.SetObj(j, -c[j])
			p.AddRow(map[int]float64{j: 1}, LE, 1)
		}
		p.AddRow(map[int]float64{0: w[0], 1: w[1], 2: w[2]}, LE, -1)
		return p
	})
	// nil state.
	warm, err := sweepProblem(3, c, w, 2.5).SolveFromState(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal || !approx(warm.Obj, cold.Obj) || warm.Warmed {
		t.Errorf("nil state: got %v obj %v warmed=%v, want cold optimum %v",
			warm.Status, warm.Obj, warm.Warmed, cold.Obj)
	}
}
