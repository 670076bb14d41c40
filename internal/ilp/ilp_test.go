package ilp

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// knapsack builds max Σv·x s.t. Σw·x ≤ cap as a minimization of -v.
func knapsack(values, weights []float64, capacity float64) *Solver {
	n := len(values)
	p := lp.NewProblem(n)
	w := make(map[int]float64, n)
	bins := make([]int, n)
	for j := 0; j < n; j++ {
		p.SetObj(j, -values[j])
		w[j] = weights[j]
		bins[j] = j
	}
	p.AddRow(w, capacity)
	return &Solver{Base: p, Binaries: bins}
}

// exhaustive enumerates every assignment of s's binaries (2^k), fixing
// them through their bounds, and returns the true optimum: the oracle
// the branch-and-bound tests compare against.
func exhaustive(t testing.TB, s *Solver) *Result {
	t.Helper()
	k := len(s.Binaries)
	best := &Result{Status: Infeasible, Obj: math.Inf(1)}
	for mask := 0; mask < 1<<k; mask++ {
		p := s.Base.Clone()
		for bi, j := range s.Binaries {
			v := float64(mask >> bi & 1)
			p.SetBounds(j, v, v)
		}
		best.Nodes++
		sol, err := p.Solve(context.Background())
		if err != nil {
			t.Fatalf("exhaustive enumeration: %v", err)
		}
		if err := p.Certify(sol, 1e-6); err != nil {
			t.Fatalf("exhaustive enumeration, mask %b: %v", mask, err)
		}
		if sol.Status == lp.Unbounded {
			best.Status = Unbounded
		}
		if sol.Status == lp.Optimal && best.Status != Unbounded && sol.Obj < best.Obj-1e-9 {
			best.Status, best.X, best.Obj = Optimal, sol.X, sol.Obj
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	// Classic: values 60,100,120 weights 10,20,30 cap 50 → take 2+3 = 220.
	s := knapsack([]float64{60, 100, 120}, []float64{10, 20, 30}, 50)
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal {
		t.Fatalf("status = %v", r.Status)
	}
	if got := -r.Obj; math.Abs(got-220) > 1e-6 {
		t.Errorf("value = %v, want 220 (x=%v)", got, r.X)
	}
	if math.Round(r.X[0]) != 0 || math.Round(r.X[1]) != 1 || math.Round(r.X[2]) != 1 {
		t.Errorf("x = %v, want [0 1 1]", r.X)
	}
}

func TestInfeasibleILP(t *testing.T) {
	// Continuous y ≥ 3 pushes x0 + x1 + y ≤ 2 past its RHS whatever the
	// binaries do.
	p := lp.NewProblem(3)
	p.SetBounds(2, 3, math.Inf(1))
	p.AddRow(map[int]float64{0: 1, 1: 1, 2: 1}, 2)
	s := &Solver{Base: p, Binaries: []int{0, 1}}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", r.Status)
	}
}

func TestIntegralRootShortCircuits(t *testing.T) {
	// min -x0 over a binary x0: LP root is already integral.
	p := lp.NewProblem(1)
	p.SetObj(0, -1)
	s := &Solver{Base: p, Binaries: []int{0}}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || r.Nodes != 1 {
		t.Errorf("status=%v nodes=%d, want optimal in 1 node", r.Status, r.Nodes)
	}
}

func TestUnboundedILP(t *testing.T) {
	// Continuous variable x1 unbounded below drives the relaxation down.
	p := lp.NewProblem(2)
	p.SetObj(1, -1)
	s := &Solver{Base: p, Binaries: []int{0}}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", r.Status)
	}
}

// TestBranchAndBoundMatchesExhaustive is the core property test: on random
// knapsack-with-side-constraint instances, B&B must find exactly the
// exhaustive optimum.
func TestBranchAndBoundMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 120; trial++ {
		n := 2 + rng.Intn(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		for j := 0; j < n; j++ {
			values[j] = float64(1 + rng.Intn(40))
			weights[j] = float64(1 + rng.Intn(15))
		}
		capacity := float64(5 + rng.Intn(40))
		s := knapsack(values, weights, capacity)
		// Occasionally add a coupling row like the model's Eq. 9.
		if rng.Intn(2) == 0 {
			row := make(map[int]float64, n)
			for j := 0; j < n; j++ {
				row[j] = float64(rng.Intn(5))
			}
			s.Base.AddRow(row, float64(3+rng.Intn(12)))
		}
		got, err := s.Solve(context.Background())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := exhaustive(t, s)
		if got.Status != want.Status {
			t.Fatalf("trial %d: status %v vs exhaustive %v", trial, got.Status, want.Status)
		}
		if want.Status == Optimal && math.Abs(got.Obj-want.Obj) > 1e-6 {
			t.Fatalf("trial %d: B&B obj %v != exhaustive %v", trial, got.Obj, want.Obj)
		}
	}
}

func TestRounderSeedsIncumbent(t *testing.T) {
	// A fractional-root knapsack where rounding down is always feasible.
	s := knapsack([]float64{10, 9, 8}, []float64{5, 5, 5}, 7)
	s.Rounder = func(x []float64) ([]float64, bool) {
		rx := make([]float64, len(x))
		for j, v := range x {
			if v > 0.999 {
				rx[j] = 1
			}
		}
		return rx, true
	}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Optimal || math.Abs(-r.Obj-10) > 1e-6 {
		t.Errorf("status=%v value=%v, want optimal 10", r.Status, -r.Obj)
	}
}

func TestNodeLimitReturnsFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	for j := 0; j < n; j++ {
		values[j] = float64(10 + rng.Intn(90))
		weights[j] = float64(5 + rng.Intn(30))
	}
	s := knapsack(values, weights, 60)
	s.MaxNodes = 4
	s.Rounder = func(x []float64) ([]float64, bool) {
		rx := make([]float64, len(x))
		w := 0.0
		for j, v := range x {
			if v > 0.999 && w+weights[j] <= 60 {
				rx[j] = 1
				w += weights[j]
			}
		}
		return rx, true
	}
	r, err := s.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Status != Feasible && r.Status != Optimal {
		t.Fatalf("status = %v, want feasible or optimal under node limit", r.Status)
	}
	if r.X == nil {
		t.Fatal("no incumbent returned")
	}
}

func TestStatusStrings(t *testing.T) {
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" {
		t.Error("status strings wrong")
	}
}
