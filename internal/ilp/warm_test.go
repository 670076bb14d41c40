package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

func mustSolve(t *testing.T, s *Solver) *Result {
	t.Helper()
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sameX(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for j := range a {
		if math.Abs(a[j]-b[j]) > 1e-6 {
			return false
		}
	}
	return true
}

func TestWarmIncumbentWithBoundProvesWithoutLP(t *testing.T) {
	s := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	cold := mustSolve(t, s)

	// Same problem re-solved with its own optimum and objective as the
	// warm state: the carried bound closes the gap with zero LP solves.
	s2 := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	s2.Warm = &WarmStart{
		Incumbent: cold.X,
		Bound:     cold.Obj,
		HasBound:  true,
		RootIters: cold.RootIters,
	}
	warm := mustSolve(t, s2)
	if warm.Status != Optimal || !warm.WarmProof || !warm.WarmIncumbent {
		t.Fatalf("got status %v WarmProof %v WarmIncumbent %v", warm.Status, warm.WarmProof, warm.WarmIncumbent)
	}
	if warm.Nodes != 0 {
		t.Errorf("Nodes = %d, want 0 on an instant proof", warm.Nodes)
	}
	if !sameX(warm.X, cold.X) || math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Errorf("warm optimum differs: %v obj %v vs %v obj %v", warm.X, warm.Obj, cold.X, cold.Obj)
	}
}

func TestWarmIncumbentInfeasibleForTighterProblemIsRejected(t *testing.T) {
	loose := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	cold := mustSolve(t, loose)

	// Capacity 25: the carried solution (weight 50) is infeasible here
	// and must be dropped; the bound must not be applied either way
	// (the caller is responsible for only carrying admissible bounds,
	// but an unaccepted incumbent gives the bound nothing to prove).
	tight := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 25)
	tight.Warm = &WarmStart{Incumbent: cold.X, Bound: cold.Obj, HasBound: true}
	warm := mustSolve(t, tight)
	if warm.WarmIncumbent || warm.WarmProof {
		t.Fatalf("infeasible incumbent accepted: WarmIncumbent=%v WarmProof=%v", warm.WarmIncumbent, warm.WarmProof)
	}
	ref := mustSolve(t, knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 25))
	if warm.Status != Optimal || math.Abs(warm.Obj-ref.Obj) > 1e-9 {
		t.Errorf("warm got %v obj %v, cold obj %v", warm.Status, warm.Obj, ref.Obj)
	}
}

func TestWarmBasisMatchesColdAcrossCapacitySweep(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const n = 14
	values := make([]float64, n)
	weights := make([]float64, n)
	for j := range values {
		values[j] = 1 + math.Floor(rng.Float64()*50)
		weights[j] = 1 + math.Floor(rng.Float64()*20)
	}

	var prev *Result
	for _, capacity := range []float64{80, 60, 45, 30, 20, 10} {
		cold := mustSolve(t, knapsack(values, weights, capacity))

		warmSolver := knapsack(values, weights, capacity)
		if prev != nil {
			warmSolver.Warm = &WarmStart{
				Incumbent: prev.X,
				State:     prev.RootState,
				RootIters: prev.RootIters,
			}
		}
		warm := mustSolve(t, warmSolver)
		if warm.Status != cold.Status {
			t.Fatalf("cap %v: warm %v cold %v", capacity, warm.Status, cold.Status)
		}
		if math.Abs(warm.Obj-cold.Obj) > 1e-9 {
			t.Errorf("cap %v: warm obj %v, cold %v", capacity, warm.Obj, cold.Obj)
		}
		if !sameX(warm.X, cold.X) {
			t.Errorf("cap %v: warm x %v, cold %v", capacity, warm.X, cold.X)
		}
		if cold.RootState == nil {
			t.Fatalf("cap %v: cold solve has no root state", capacity)
		}
		prev = cold
	}
}

func TestWarmGarbageBasisStillSolves(t *testing.T) {
	cold := mustSolve(t, knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50))
	// A root state from a two-item knapsack describes another layout.
	foreign := mustSolve(t, knapsack([]float64{5, 7}, []float64{1, 2}, 2))
	s := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	s.Warm = &WarmStart{State: foreign.RootState}
	warm := mustSolve(t, s)
	if warm.Status != Optimal || math.Abs(warm.Obj-cold.Obj) > 1e-9 {
		t.Fatalf("garbage state: got %v obj %v, want cold obj %v", warm.Status, warm.Obj, cold.Obj)
	}
	if warm.WarmRoot {
		t.Error("foreign root state was consumed instead of rejected")
	}
}

func TestWarmNonIntegralIncumbentIsRejected(t *testing.T) {
	s := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	s.Warm = &WarmStart{Incumbent: []float64{0.5, 0.5, 0.5}, Bound: -1e9, HasBound: true}
	warm := mustSolve(t, s)
	if warm.WarmIncumbent || warm.WarmProof {
		t.Fatalf("fractional incumbent accepted: %+v", warm)
	}
	if warm.Status != Optimal {
		t.Fatalf("status = %v", warm.Status)
	}
}

// TestWarmIncumbentOutsideBinaryRangeIsRejected: a carried incumbent
// that is integral but not 0/1 satisfies the rows of Base, yet breaks
// the binary's [0, 1] range and must not be returned as optimal.
func TestWarmIncumbentOutsideBinaryRangeIsRejected(t *testing.T) {
	p := lp.NewProblem(1)
	p.SetObj(0, -1)
	p.AddRow(map[int]float64{0: 2}, 4)
	s := &Solver{Base: p, Binaries: []int{0}, Warm: &WarmStart{Incumbent: []float64{2}}}
	r := mustSolve(t, s)
	if r.WarmIncumbent {
		t.Error("incumbent x0 = 2 accepted for a binary")
	}
	if r.Status != Optimal || !sameX(r.X, []float64{1}) || r.Obj != -1 {
		t.Fatalf("got %v X %v obj %v, want optimal X [1] obj -1", r.Status, r.X, r.Obj)
	}
}
