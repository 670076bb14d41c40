package lp

import (
	"errors"
	"fmt"
)

// Certify checks an Optimal solution of p against its simplex
// certificate, within tol: X satisfies every row and bound, the State
// was solved under p's RHS and bounds and agrees with X, every nonbasic
// column sits at one of its bounds, and every reduced cost has the sign
// its column's status calls for — zero when basic, ≥ 0 at the lower
// bound, ≤ 0 at the upper (a fixed column may have either). Reduced
// costs are priced from p's own rows with the simplex multipliers
// y = c_B·B⁻¹ read off the slack columns, so a drifted tableau cannot
// vouch for itself. A non-Optimal solution has nothing to certify.
//
// Certify is the oracle the solver's tests and fuzz targets hold every
// Optimal answer to; a solve never needs it.
func (p *Problem) Certify(sol *Solution, tol float64) error {
	if sol.Status != Optimal {
		return nil
	}
	st := sol.State
	m, n := len(p.rowRHS), p.n
	if st == nil || st.n != n || len(st.b) != m {
		return errors.New("lp: optimal solution without a matching State")
	}
	if !p.Feasible(sol.X, tol) {
		return fmt.Errorf("lp: X %v violates a row or bound", sol.X)
	}
	if obj := p.Objective(sol.X); obj-sol.Obj > tol || sol.Obj-obj > tol {
		return fmt.Errorf("lp: Obj %g, but cᵀX = %g", sol.Obj, obj)
	}
	for i, row := range p.rowCoef {
		if st.b[i] != p.rowRHS[i] {
			return fmt.Errorf("lp: State solved row %d with RHS %g, want %g", i, st.b[i], p.rowRHS[i])
		}
		s := p.rowRHS[i]
		for j, c := range row {
			s -= c * sol.X[j]
		}
		if d := s - st.x[n+i]; d > tol || d < -tol {
			return fmt.Errorf("lp: row %d slack is %g, State says %g", i, s, st.x[n+i])
		}
	}
	for j := 0; j < n; j++ {
		if st.lo[j] != p.lo[j] || st.hi[j] != p.hi[j] || st.x[j] != sol.X[j] {
			return fmt.Errorf("lp: State disagrees with the problem or X at variable %d", j)
		}
	}

	// y_i = Σ_k c_basis[k]·(B⁻¹)_{k,i}; slack i's column holds B⁻¹eᵢ.
	y := make([]float64, m)
	for k, row := range st.a {
		if c := st.cost(p, st.basis[k]); c != 0 {
			for i := range y {
				y[i] += c * row[n+i]
			}
		}
	}
	basic := make([]bool, len(st.x))
	for _, j := range st.basis {
		basic[j] = true
	}
	for j := range st.x {
		r := st.cost(p, j)
		if j < n {
			for i, row := range p.rowCoef {
				r -= y[i] * row[j]
			}
		} else {
			r -= y[j-n] // slack column eᵢ
		}
		lo, hi, x := st.lo[j], st.hi[j], st.x[j]
		switch {
		case basic[j]:
			if r > tol || r < -tol {
				return fmt.Errorf("lp: basic column %d has reduced cost %g", j, r)
			}
		case x != lo && x != hi:
			return fmt.Errorf("lp: nonbasic column %d at %g, off its bounds [%g, %g]", j, x, lo, hi)
		case lo == hi:
		case x == lo && r < -tol:
			return fmt.Errorf("lp: column %d at its lower bound has reduced cost %g < 0", j, r)
		case x == hi && r > tol:
			return fmt.Errorf("lp: column %d at its upper bound has reduced cost %g > 0", j, r)
		}
	}
	return nil
}

// cost is column j's objective coefficient; slacks cost nothing.
func (st *State) cost(p *Problem, j int) float64 {
	if j < st.n {
		return p.obj[j]
	}
	return 0
}
