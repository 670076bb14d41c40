package lp

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
)

// solve runs a cold solve and holds an Optimal answer to its
// certificate.
func solve(t *testing.T, p *Problem) *Solution {
	t.Helper()
	s, err := p.Solve(context.Background())
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	certify(t, p, s)
	return s
}

func certify(t *testing.T, p *Problem, s *Solution) {
	t.Helper()
	if err := p.Certify(s, 1e-6); err != nil {
		t.Fatal(err)
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSimpleMin(t *testing.T) {
	// min -x - 2y s.t. x+y <= 4, x <= 2, y <= 3  → x=1? optimum x=1,y=3? obj
	// at (1,3) = -7; at (2,2) = -6; at (0,3) = -6. Optimal: x=1,y=3 → -7.
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.SetObj(1, -2)
	p.AddRow(map[int]float64{0: 1, 1: 1}, 4)
	p.AddRow(map[int]float64{0: 1}, 2)
	p.AddRow(map[int]float64{1: 1}, 3)
	s := solve(t, p)
	if s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
	if !approx(s.Obj, -7) || !approx(s.X[0], 1) || !approx(s.X[1], 3) {
		t.Errorf("got obj=%v x=%v, want -7 at (1,3)", s.Obj, s.X)
	}
}

func TestInfeasible(t *testing.T) {
	// A raised lower bound pushes the row past its RHS: x ≥ 2, x ≤ 1.
	p := NewProblem(1)
	p.SetBounds(0, 2, math.Inf(1))
	p.AddRow(map[int]float64{0: 1}, 1)
	s := solve(t, p)
	if s.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", s.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(1)
	p.SetObj(0, -1)
	s := solve(t, p)
	if s.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", s.Status)
	}
}

// TestNegativeRHS: every row is ≤ with b ≥ 0, so a negative RHS — from
// either builder or from SetRHS — is a sticky ErrBadProblem.
func TestNegativeRHS(t *testing.T) {
	build := map[string]func(p *Problem){
		"AddRow":      func(p *Problem) { p.AddRow(map[int]float64{0: -1}, -3) },
		"AddDenseRow": func(p *Problem) { p.AddDenseRow([]float64{-1}, -3) },
		"SetRHS": func(p *Problem) {
			p.AddRow(map[int]float64{0: -1}, 3)
			p.SetRHS(0, -3)
		},
	}
	for name, f := range build {
		p := NewProblem(1)
		p.SetObj(0, 1)
		f(p)
		if _, err := p.Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Solve error = %v, want ErrBadProblem", name, err)
		}
	}
}

func TestRaisedLowerBound(t *testing.T) {
	// min x + y s.t. x + y ≤ 4, x ∈ [1, 3], y ∈ [0.5, 2] → (1, 0.5): the
	// cold solve at lo = 0 is repaired up to the raised bounds.
	p := NewProblem(2)
	p.SetObj(0, 1)
	p.SetObj(1, 1)
	p.SetBounds(0, 1, 3)
	p.SetBounds(1, 0.5, 2)
	p.AddRow(map[int]float64{0: 1, 1: 1}, 4)
	s := solve(t, p)
	if s.Status != Optimal || !approx(s.X[0], 1) || !approx(s.X[1], 0.5) || !approx(s.Obj, 1.5) {
		t.Errorf("got %v obj=%v x=%v, want 1.5 at (1, 0.5)", s.Status, s.Obj, s.X)
	}
	// Maximizing instead drives both to the bounds the row leaves room
	// for: y = 2 at its upper bound, x = 2 against the row.
	p.SetObj(0, -1)
	p.SetObj(1, -1.5)
	s = solve(t, p)
	if s.Status != Optimal || !approx(s.X[0], 2) || !approx(s.X[1], 2) {
		t.Errorf("got %v x=%v, want (2, 2)", s.Status, s.X)
	}
}

func TestDegenerateKnapsackRelaxation(t *testing.T) {
	// A knapsack-style relaxation like the placement model's Eq. 7:
	// min -5a -4b -3c s.t. 2a+3b+c <= 5, a,b,c in [0, 1].
	// LP optimum: a=1, b=2/3? value: -5 -4*(2/3) ... check: after a=1,c=1:
	// weight 3, b can take 2/3: obj -5 -3 -8/3 = -10.666...
	p := NewProblem(3)
	p.SetObj(0, -5)
	p.SetObj(1, -4)
	p.SetObj(2, -3)
	p.AddRow(map[int]float64{0: 2, 1: 3, 2: 1}, 5)
	for j := 0; j < 3; j++ {
		p.SetBounds(j, 0, 1)
	}
	s := solve(t, p)
	want := -5.0 - 3.0 - 8.0/3.0
	if s.Status != Optimal || !approx(s.Obj, want) {
		t.Errorf("obj = %v, want %v (x=%v)", s.Obj, want, s.X)
	}
}

func TestDenseRow(t *testing.T) {
	p := NewProblem(2)
	p.SetObj(0, -1)
	p.AddDenseRow([]float64{1, 1}, 1)
	s := solve(t, p)
	if !approx(s.X[0], 1) {
		t.Errorf("x = %v, want x0=1", s.X)
	}
}

func TestBadProblemSurfacedBySolve(t *testing.T) {
	cases := []struct {
		name string
		p    *Problem
	}{
		{"negative variable count", NewProblem(-1)},
		{"out-of-range variable", func() *Problem {
			p := NewProblem(1)
			p.AddRow(map[int]float64{5: 1}, 1)
			return p
		}()},
		{"dense row length mismatch", func() *Problem {
			p := NewProblem(2)
			p.AddDenseRow([]float64{1}, 1)
			return p
		}()},
		{"out-of-range row", func() *Problem {
			p := NewProblem(1)
			p.SetRHS(0, 1)
			return p
		}()},
		{"out-of-range bounded variable", func() *Problem {
			p := NewProblem(1)
			p.SetBounds(1, 0, 1)
			return p
		}()},
		{"negative lower bound", func() *Problem {
			p := NewProblem(1)
			p.SetBounds(0, -1, 1)
			return p
		}()},
		{"crossed bounds", func() *Problem {
			p := NewProblem(1)
			p.SetBounds(0, 2, 1)
			return p
		}()},
	}
	for _, tc := range cases {
		if _, err := tc.p.Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Solve error = %v, want ErrBadProblem", tc.name, err)
		}
		// The error is part of the problem's state: a branch-and-bound
		// clone must refuse to solve too.
		if _, err := tc.p.Clone().Solve(context.Background()); !errors.Is(err, ErrBadProblem) {
			t.Errorf("%s: Clone().Solve error = %v, want ErrBadProblem", tc.name, err)
		}
	}
}

// bruteForceBinary finds the optimal 0/1 assignment of a problem with
// rows Σ rows[r]·x ≤ rhs[r] and each x_j within [lo_j, hi_j] ⊆ [0, 1];
// used as an oracle: the LP relaxation value must lower-bound it.
func bruteForceBinary(obj []float64, rows [][]float64, rhs, lo, hi []float64) (float64, bool) {
	n := len(obj)
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<n; mask++ {
		ok := true
		v := 0.0
		for j := 0; j < n; j++ {
			x := float64(mask >> j & 1)
			ok = ok && x >= lo[j] && x <= hi[j]
			v += obj[j] * x
		}
		for r := range rows {
			a := 0.0
			for j := 0; j < n; j++ {
				if mask&(1<<j) != 0 {
					a += rows[r][j]
				}
			}
			ok = ok && a <= rhs[r]+1e-9
		}
		if ok && v < best {
			best = v
			found = true
		}
	}
	return best, found
}

// TestRelaxationLowerBounds: on random binary-feasible problems — ≤ rows
// of mixed sign plus random variable bounds within [0, 1] (a raised lower
// bound plays the part a ≥ row used to) — the LP relaxation is a valid
// lower bound on the binary optimum, and the LP never reports infeasible
// when a binary solution exists.
func TestRelaxationLowerBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	boxes := [][2]float64{{0, 1}, {0, 1}, {0, 1}, {0, 0}, {1, 1}}
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(4)
		obj := make([]float64, n)
		lo := make([]float64, n)
		hi := make([]float64, n)
		for j := range obj {
			obj[j] = float64(rng.Intn(21) - 10)
			box := boxes[rng.Intn(len(boxes))]
			lo[j], hi[j] = box[0], box[1]
		}
		rows := make([][]float64, m)
		rhs := make([]float64, m)
		for r := 0; r < m; r++ {
			rows[r] = make([]float64, n)
			for j := 0; j < n; j++ {
				rows[r][j] = float64(rng.Intn(7) - 3)
			}
			rhs[r] = float64(rng.Intn(6))
		}
		intBest, feasible := bruteForceBinary(obj, rows, rhs, lo, hi)
		if !feasible {
			continue
		}
		p := NewProblem(n)
		for j := 0; j < n; j++ {
			p.SetObj(j, obj[j])
			p.SetBounds(j, lo[j], hi[j])
		}
		for r := 0; r < m; r++ {
			p.AddDenseRow(rows[r], rhs[r])
		}
		s := solve(t, p)
		if s.Status != Optimal {
			t.Fatalf("trial %d: status %v with binary-feasible instance", trial, s.Status)
		}
		if s.Obj > intBest+1e-6 {
			t.Fatalf("trial %d: LP obj %v exceeds binary optimum %v", trial, s.Obj, intBest)
		}
	}
}

func TestIterLimit(t *testing.T) {
	p := NewProblem(3)
	p.SetObj(0, -1)
	p.AddRow(map[int]float64{0: 1, 1: 1, 2: 1}, 10)
	p.MaxIter = 1
	s := solve(t, p)
	if s.Status != IterLimit && s.Status != Optimal {
		t.Fatalf("status = %v", s.Status)
	}
}
