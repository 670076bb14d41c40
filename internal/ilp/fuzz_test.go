package ilp

import (
	"context"
	"math"
	"testing"

	"repro/internal/lp"
)

// fuzzBytes hands out the fuzz input one byte at a time, zeros once it
// runs dry, so every input decodes to some problem.
type fuzzBytes struct {
	b []byte
	i int
}

func (f *fuzzBytes) next(mod int) int {
	if f.i >= len(f.b) {
		return 0
	}
	f.i++
	return int(f.b[f.i-1]) % mod
}

// fuzzProgram is a small 0–1 program: binaries 0..k-1, continuous
// auxiliaries after them, ≤ rows with b ≥ 0 and a mixed-sign objective.
type fuzzProgram struct {
	k      int
	obj    []float64
	lo, hi []float64 // continuous bounds; the binaries' are ilp's [0, 1]
	rows   [][]float64
	rhs    []float64
}

func decodeProgram(in *fuzzBytes) *fuzzProgram {
	k := 1 + in.next(10)
	n := k + in.next(4)
	pr := &fuzzProgram{k: k, obj: make([]float64, n), lo: make([]float64, n), hi: make([]float64, n)}
	for j := 0; j < n; j++ {
		pr.obj[j] = float64(in.next(21) - 10)
		if j < k {
			continue
		}
		switch in.next(3) {
		case 0: // unbounded above: a nonnegative cost keeps the program bounded
			pr.obj[j] = math.Abs(pr.obj[j])
			pr.hi[j] = math.Inf(1)
		case 1:
			pr.hi[j] = float64(1 + in.next(3))
		case 2: // a raised lower bound, possibly fixed
			pr.lo[j] = float64(1+in.next(2)) / 2
			pr.hi[j] = pr.lo[j] + float64(in.next(3))
		}
	}
	for r := 1 + in.next(5); r > 0; r-- {
		row := make([]float64, n)
		for j := range row {
			row[j] = float64(in.next(7) - 3)
		}
		pr.rows = append(pr.rows, row)
		pr.rhs = append(pr.rhs, float64(in.next(12)))
	}
	return pr
}

// solver builds the program as a branch-and-bound instance, each RHS
// raised by slack[r] (nil for none).
func (pr *fuzzProgram) solver(slack []float64) *Solver {
	p := lp.NewProblem(len(pr.obj))
	bins := make([]int, pr.k)
	for j := range pr.obj {
		p.SetObj(j, pr.obj[j])
		if j < pr.k {
			bins[j] = j
		} else {
			p.SetBounds(j, pr.lo[j], pr.hi[j])
		}
	}
	for r, row := range pr.rows {
		b := pr.rhs[r]
		if slack != nil {
			b += slack[r]
		}
		p.AddDenseRow(row, b)
	}
	return &Solver{Base: p, Binaries: bins}
}

// FuzzILPVsExhaustive differentially tests branch and bound against the
// exhaustive enumeration on small 0–1 programs decoded from the input:
// the optimum must match, cold and under a random warm start (a donor
// root state from a looser RHS, a candidate incumbent that may be
// infeasible or not 0/1, and an admissible bound). Along the way the
// root relaxation and a chain of bound-fixing warm resumes — the moves
// branch and bound makes — must each pass the LP certificate.
func FuzzILPVsExhaustive(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{b: data}
		pr := decodeProgram(in)
		want := exhaustive(t, pr.solver(nil))

		check := func(label string, s *Solver) {
			t.Helper()
			got := mustSolve(t, s)
			if got.Status != want.Status {
				t.Fatalf("%s: status %v, exhaustive %v", label, got.Status, want.Status)
			}
			if want.Status != Optimal {
				return
			}
			if math.Abs(got.Obj-want.Obj) > 1e-9 {
				t.Fatalf("%s: B&B obj %v, exhaustive %v", label, got.Obj, want.Obj)
			}
			if !s.integral(got.X) {
				t.Fatalf("%s: X %v is not 0/1 on the binaries", label, got.X)
			}
		}
		check("cold", pr.solver(nil))

		// The relaxation and a branch-and-bound path through it, each
		// step fixing one binary and resuming from the previous state.
		p := pr.solver(nil).Base
		for j := 0; j < pr.k; j++ {
			p.SetBounds(j, 0, 1)
		}
		sol, err := p.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; sol.Status == lp.Optimal && j < pr.k; j++ {
			if err := p.Certify(sol, 1e-6); err != nil {
				t.Fatalf("after %d fixes: %v", j, err)
			}
			p = p.Clone()
			v := float64(in.next(2))
			p.SetBounds(j, v, v)
			if sol, err = p.SolveFromState(context.Background(), sol.State); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Certify(sol, 1e-6); err != nil {
			t.Fatalf("end of the fixing chain: %v", err)
		}

		slack := make([]float64, len(pr.rows))
		for r := range slack {
			slack[r] = float64(in.next(4))
		}
		donor := mustSolve(t, pr.solver(slack))
		warm := &WarmStart{State: donor.RootState, RootIters: donor.RootIters}
		warm.Incumbent = make([]float64, len(pr.obj))
		for j := range warm.Incumbent {
			if j < pr.k {
				warm.Incumbent[j] = float64(in.next(3)) // 2 is not a binary value
			} else {
				warm.Incumbent[j] = float64(in.next(5)) / 2
			}
		}
		if want.Status == Optimal && in.next(2) == 0 {
			warm.Bound, warm.HasBound = want.Obj-float64(in.next(2)), true
		}
		s := pr.solver(nil)
		s.Warm = warm
		check("warm", s)
	})
}
