// Package lp implements a dense two-phase primal simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  aᵢᵀx {≤,=,≥} bᵢ
//	            x ≥ 0
//
// It stands in for the GNU Linear Programming Kit the paper integrates
// (§4.3): the placement ILP's relaxations are solved here, driven by the
// branch-and-bound in internal/ilp.
//
// The implementation is a textbook full-tableau method: phase 1 minimizes
// the sum of artificial variables to find a basic feasible solution, phase
// 2 optimizes the real objective. Dantzig's rule selects entering columns,
// falling back to Bland's rule when progress stalls so cycling cannot
// occur. Upper bounds are expressed as explicit rows by the caller (the
// ILP layer only needs them on branching variables).
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // aᵀx ≤ b
	GE            // aᵀx ≥ b
	EQ            // aᵀx = b
)

// Status reports the outcome of a solve.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Problem is an LP under construction. Create with NewProblem, then set
// objective coefficients and add rows.
type Problem struct {
	n   int // structural variables
	obj []float64

	rowCoef [][]float64 // dense row coefficients, length n
	rowRel  []Rel
	rowRHS  []float64

	// MaxIter bounds total simplex pivots (both phases). Zero means the
	// default (50 per row+column, at least 10000).
	MaxIter int

	// err records the first construction mistake (negative variable
	// count, out-of-range variable, dense-row length mismatch). Builders
	// stay chainable — the error sticks and Solve reports it at entry,
	// wrapped around ErrBadProblem, instead of panicking mid-build.
	err error
}

// Solution is the result of a successful solve.
type Solution struct {
	Status Status
	X      []float64 // structural variable values (len = NumVars)
	Obj    float64   // objective value cᵀx

	// Iters is the number of simplex pivots this solve performed (both
	// phases).
	Iters int
	// Warmed reports that the warm path (SolveFromState) produced this
	// solution — the carried state was genuinely consumed, not discarded
	// for a cold fallback.
	Warmed bool
	// State is the full end state of an Optimal solve — the final tableau
	// with its basis and layout. A later solve of a problem with
	// identical rows and columns but a changed RHS resumes from it via
	// SolveFromState: the basis stays dual feasible under RHS changes and
	// the tableau IS the factorized basis, so the re-solve needs only the
	// dual pivots that repair primal feasibility. Nil for non-optimal
	// outcomes. Opaque; safe to share (resuming copies it).
	State *State
}

// State is the complete end state of an Optimal solve: the final simplex
// tableau, its basis, and the standard-form layout it was built under. A
// later solve of a problem with identical coefficient rows, columns and
// objective but (possibly) changed RHS values resumes from it via
// SolveFromState. The zero value is useless; States come only from
// Solution.State.
type State struct {
	tab    [][]float64 // final tableau, m × (total+1)
	basis  []int
	n      int
	nSlack int
	nArt   int
	rels   []Rel     // original row relations at solve time
	flips  []bool    // rows negated entering standard form (RHS < 0)
	b      []float64 // standardized (post-negation) RHS values solved with
}

// captureState packages a finished tableau as a donor State. The tableau
// and basis are taken over, not copied — callers must be done with them.
func (p *Problem) captureState(t [][]float64, basis []int, nSlack, nArt int) *State {
	m := len(p.rowRel)
	flips := make([]bool, m)
	b := make([]float64, m)
	for i := 0; i < m; i++ {
		rhs := p.rowRHS[i]
		if rhs < 0 {
			flips[i] = true
			rhs = -rhs
		}
		b[i] = rhs
	}
	return &State{
		tab: t, basis: basis, n: p.n, nSlack: nSlack, nArt: nArt,
		rels:  append([]Rel(nil), p.rowRel...),
		flips: flips, b: b,
	}
}

// NewProblem returns a minimization problem with n structural variables,
// all constrained to x ≥ 0, with zero objective coefficients.
func NewProblem(n int) *Problem {
	if n < 0 {
		return &Problem{err: fmt.Errorf("%w: negative variable count %d", ErrBadProblem, n)}
	}
	return &Problem{n: n, obj: make([]float64, n)}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rowRel) }

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) {
	p.obj[j] = c
}

// AddRow adds the constraint Σ coeffs[j]·x_j rel rhs. Variables absent
// from coeffs have coefficient zero. An out-of-range variable records a
// sticky ErrBadProblem (reported by Solve) and drops the row.
func (p *Problem) AddRow(coeffs map[int]float64, rel Rel, rhs float64) {
	row := make([]float64, p.n)
	for j, c := range coeffs {
		if j < 0 || j >= p.n {
			if p.err == nil {
				p.err = fmt.Errorf("%w: variable %d out of range [0,%d)", ErrBadProblem, j, p.n)
			}
			return
		}
		row[j] = c
	}
	p.rowCoef = append(p.rowCoef, row)
	p.rowRel = append(p.rowRel, rel)
	p.rowRHS = append(p.rowRHS, rhs)
}

// AddDenseRow adds a constraint from a dense coefficient slice (length
// must equal NumVars; a mismatch records a sticky ErrBadProblem and
// drops the row).
func (p *Problem) AddDenseRow(coeffs []float64, rel Rel, rhs float64) {
	if len(coeffs) != p.n {
		if p.err == nil {
			p.err = fmt.Errorf("%w: dense row length %d, want %d", ErrBadProblem, len(coeffs), p.n)
		}
		return
	}
	p.rowCoef = append(p.rowCoef, append([]float64(nil), coeffs...))
	p.rowRel = append(p.rowRel, rel)
	p.rowRHS = append(p.rowRHS, rhs)
}

// Row returns row i's dense coefficients (not a copy), relation and RHS.
func (p *Problem) Row(i int) ([]float64, Rel, float64) {
	return p.rowCoef[i], p.rowRel[i], p.rowRHS[i]
}

// SetRHS replaces row i's right-hand side. An out-of-range row records a
// sticky ErrBadProblem (reported by Solve).
//
// RHS-only edits are the warm-restart move: a basis from a previous
// Optimal solve stays dual feasible under them, so SolveFromState can repair
// the solution with a few dual pivots. One caveat — the standard-form
// layout negates rows with negative RHS, so an edit that flips a row's
// RHS sign changes the tableau's column meaning and a carried basis
// will (safely) fall back to a cold solve. Callers chasing warm restarts
// should formulate rows so edited RHS values keep their sign.
func (p *Problem) SetRHS(i int, rhs float64) {
	if i < 0 || i >= len(p.rowRHS) {
		if p.err == nil {
			p.err = fmt.Errorf("%w: row %d out of range [0,%d)", ErrBadProblem, i, len(p.rowRHS))
		}
		return
	}
	p.rowRHS[i] = rhs
}

// Obj returns the objective coefficient of variable j.
func (p *Problem) Obj(j int) float64 { return p.obj[j] }

// Clone deep-copies the problem so rows can be appended per branch-and-
// bound node without disturbing the base relaxation.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		n:       p.n,
		obj:     append([]float64(nil), p.obj...),
		rowRel:  append([]Rel(nil), p.rowRel...),
		rowRHS:  append([]float64(nil), p.rowRHS...),
		MaxIter: p.MaxIter,
		err:     p.err,
	}
	q.rowCoef = make([][]float64, len(p.rowCoef))
	for i, r := range p.rowCoef {
		q.rowCoef[i] = append([]float64(nil), r...)
	}
	return q
}

// Eval computes aᵢᵀx for row i.
func (p *Problem) Eval(i int, x []float64) float64 {
	v := 0.0
	for j, c := range p.rowCoef[i] {
		if c != 0 {
			v += c * x[j]
		}
	}
	return v
}

// Feasible reports whether x satisfies every row (within tol) and x ≥ 0.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	for j := 0; j < p.n; j++ {
		if x[j] < -tol {
			return false
		}
	}
	for i := range p.rowRel {
		v := p.Eval(i, x)
		switch p.rowRel[i] {
		case LE:
			if v > p.rowRHS[i]+tol {
				return false
			}
		case GE:
			if v < p.rowRHS[i]-tol {
				return false
			}
		case EQ:
			if math.Abs(v-p.rowRHS[i]) > tol {
				return false
			}
		}
	}
	return true
}

// Objective computes cᵀx.
func (p *Problem) Objective(x []float64) float64 {
	v := 0.0
	for j := 0; j < p.n; j++ {
		if p.obj[j] != 0 {
			v += p.obj[j] * x[j]
		}
	}
	return v
}

const eps = 1e-9

// ErrBadProblem reports a structurally invalid problem.
var ErrBadProblem = errors.New("lp: invalid problem")

// Solve runs two-phase simplex and returns the solution. Status
// Infeasible and Unbounded are reported in Solution.Status with a nil
// error. A phase-2 iteration-limit trip reports Status IterLimit with
// the current basic feasible point in X — primal simplex never leaves
// the feasible region once phase 1 finds it, so the point in hand is a
// valid (merely unproven) answer and discarding it would throw away the
// whole budget's work. A phase-1 trip has no feasible point and reports
// IterLimit with a nil X. Errors report either a construction mistake —
// the first one recorded by NewProblem/AddRow/AddDenseRow, wrapping
// ErrBadProblem — or cancellation: when ctx is cancelled or its deadline
// expires, Solve stops within a few pivots and returns the context error
// wrapped.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	m := len(p.rowRel)
	n := p.n

	tb := p.newTableau()
	t, basis := tb.t, tb.basis
	nSlack, nArt, total := tb.nSlack, tb.nArt, tb.total

	maxIter := p.maxIters(m, total)
	iters := 0
	done := ctx.Done()

	// Phase 1: minimize sum of artificials.
	if nArt > 0 {
		cost := make([]float64, total)
		for j := n + nSlack; j < total; j++ {
			cost[j] = 1
		}
		st := simplex(t, basis, cost, total, maxIter, &iters, done)
		if st == stCanceled {
			return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
		}
		if st == IterLimit {
			// No feasible basis yet: nothing worth returning.
			return &Solution{Status: IterLimit}, nil
		}
		// Compute phase-1 objective value.
		v := 0.0
		for i := 0; i < m; i++ {
			if basis[i] >= n+nSlack {
				v += t[i][total]
			}
		}
		if v > 1e-6 {
			return &Solution{Status: Infeasible}, nil
		}
		// Pivot remaining artificials out of the basis where possible.
		for i := 0; i < m; i++ {
			if basis[i] < n+nSlack {
				continue
			}
			pivoted := false
			for j := 0; j < n+nSlack; j++ {
				if math.Abs(t[i][j]) > 1e-7 {
					pivot(t, basis, i, j, total)
					pivoted = true
					break
				}
			}
			if !pivoted {
				// Redundant row; artificial stays basic at zero. Zero the
				// row so it cannot interfere.
				for j := 0; j < total; j++ {
					if j < n+nSlack {
						t[i][j] = 0
					}
				}
			}
		}
		// Forbid artificial columns from re-entering: zero them out.
		for i := 0; i < m; i++ {
			for j := n + nSlack; j < total; j++ {
				if basis[i] != j {
					t[i][j] = 0
				}
			}
		}
	}

	// Phase 2: minimize the real objective.
	cost := make([]float64, total)
	copy(cost, p.obj)
	// Artificials must not re-enter; give them prohibitive cost.
	for j := n + nSlack; j < total; j++ {
		cost[j] = math.Inf(1)
	}
	st := simplex(t, basis, cost, total, maxIter, &iters, done)
	switch st {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Unbounded:
		return &Solution{Status: Unbounded, Iters: iters}, nil
	case IterLimit:
		// The basis is feasible (phase 1 finished): hand back the point
		// in hand instead of discarding the budget's work.
		x, obj := p.extract(t, basis, m, n, total)
		return &Solution{Status: IterLimit, X: x, Obj: obj, Iters: iters}, nil
	}

	x, obj := p.extract(t, basis, m, n, total)
	return &Solution{Status: Optimal, X: x, Obj: obj, Iters: iters,
		State: p.captureState(t, basis, nSlack, nArt)}, nil
}

// tableau is the dense simplex working state: m rows × (total+1) columns
// (last column RHS) with the current basis column per row.
type tableau struct {
	t                   [][]float64
	basis               []int
	nSlack, nArt, total int
}

// newTableau lays out the standard-form tableau: columns [0,n) are
// structural, [n, n+nSlack) slack/surplus, [n+nSlack, total) artificial.
// Rows with negative RHS are negated (flipping their relation) so every
// RHS starts non-negative; the initial basis is the slack (LE rows) or
// artificial (GE/EQ rows) column of each row.
func (p *Problem) newTableau() *tableau {
	m := len(p.rowRel)
	n := p.n

	slackOf := make([]int, m) // column of this row's slack, or -1
	artOf := make([]int, m)   // column of this row's artificial, or -1
	nSlack, nArt := 0, 0
	for i := 0; i < m; i++ {
		rel, rhs := p.rowRel[i], p.rowRHS[i]
		neg := rhs < 0
		effRel := rel
		if neg {
			// Row will be negated below; flip the relation.
			switch rel {
			case LE:
				effRel = GE
			case GE:
				effRel = LE
			}
		}
		slackOf[i], artOf[i] = -1, -1
		switch effRel {
		case LE:
			slackOf[i] = nSlack
			nSlack++
		case GE:
			slackOf[i] = nSlack
			nSlack++
			artOf[i] = nArt
			nArt++
		case EQ:
			artOf[i] = nArt
			nArt++
		}
	}

	total := n + nSlack + nArt
	t := make([][]float64, m)
	basis := make([]int, m)
	for i := 0; i < m; i++ {
		t[i] = make([]float64, total+1)
		sign := 1.0
		rhs := p.rowRHS[i]
		if rhs < 0 {
			sign = -1.0
			rhs = -rhs
		}
		for j := 0; j < n; j++ {
			t[i][j] = sign * p.rowCoef[i][j]
		}
		t[i][total] = rhs

		effRel := p.rowRel[i]
		if sign < 0 {
			switch effRel {
			case LE:
				effRel = GE
			case GE:
				effRel = LE
			}
		}
		switch effRel {
		case LE:
			t[i][n+slackOf[i]] = 1
			basis[i] = n + slackOf[i]
		case GE:
			t[i][n+slackOf[i]] = -1
			t[i][n+nSlack+artOf[i]] = 1
			basis[i] = n + nSlack + artOf[i]
		case EQ:
			t[i][n+nSlack+artOf[i]] = 1
			basis[i] = n + nSlack + artOf[i]
		}
	}
	return &tableau{t: t, basis: basis, nSlack: nSlack, nArt: nArt, total: total}
}

// maxIters resolves the pivot budget for a tableau of m rows and total
// columns.
func (p *Problem) maxIters(m, total int) int {
	maxIter := p.MaxIter
	if maxIter == 0 {
		maxIter = 50 * (m + total)
		if maxIter < 10000 {
			maxIter = 10000
		}
	}
	return maxIter
}

// SolveFromState re-solves the problem from the full end state of a
// previous Optimal solve of a problem with identical coefficient rows,
// columns and objective but (possibly) changed RHS values — the
// single-bound-change re-solve of a constraint sweep or a branch-and-
// bound child. Rather than rebuild the tableau and re-derive the basis,
// it clones the donor tableau and refreshes only the basic values: the
// donor tableau already embeds the basis inverse, and for each changed
// RHS b_k the column of row k's slack variable holds ±B⁻¹eₖ, so the
// refresh is one axpy per changed row. The dual simplex then repairs
// primal feasibility and a primal clean-up pass certifies optimality.
//
// Safety: any layout mismatch — dimensions, relations, the RHS sign
// pattern (which decides slack/artificial allocation), or a changed RHS
// on a slackless EQ row — falls back to the cold Solve, and an Optimal
// warm answer is verified feasible against THIS problem's rows before
// being returned (cold fallback otherwise). A stale or foreign state
// can cost time, never correctness.
func (p *Problem) SolveFromState(ctx context.Context, st *State) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	m := len(p.rowRel)
	n := p.n
	if st == nil || st.n != n || len(st.tab) != m || len(st.basis) != m || len(st.rels) != m {
		return p.Solve(ctx)
	}
	// Recompute this problem's standard-form layout row by row and bail to
	// the cold path on the first divergence from the donor's.
	slackSign := make([]float64, m) // slack coefficient (+1 LE, −1 GE), 0 for EQ
	slackOf := make([]int, m)
	newb := make([]float64, m)
	nSlack := 0
	for i := 0; i < m; i++ {
		rel, rhs := p.rowRel[i], p.rowRHS[i]
		flip := rhs < 0
		if rel != st.rels[i] || flip != st.flips[i] {
			return p.Solve(ctx)
		}
		if flip {
			rhs = -rhs
			switch rel {
			case LE:
				rel = GE
			case GE:
				rel = LE
			}
		}
		newb[i] = rhs
		slackOf[i] = -1
		switch rel {
		case LE:
			slackOf[i], slackSign[i] = nSlack, 1
			nSlack++
		case GE:
			slackOf[i], slackSign[i] = nSlack, -1
			nSlack++
		}
	}
	if nSlack != st.nSlack {
		return p.Solve(ctx)
	}
	total := n + st.nSlack + st.nArt

	t := make([][]float64, m)
	for i, row := range st.tab {
		if len(row) != total+1 {
			return p.Solve(ctx)
		}
		t[i] = append([]float64(nil), row...)
	}
	bs := append([]int(nil), st.basis...)

	// Refresh the basic values for every changed RHS. Row k's slack
	// column started as ±eₖ, so its current column is ±B⁻¹eₖ — exactly
	// the direction the basic values move when b_k changes.
	for k := 0; k < m; k++ {
		d := newb[k] - st.b[k]
		if d == 0 {
			continue
		}
		if slackOf[k] < 0 {
			return p.Solve(ctx) // EQ row changed: no slack column to read B⁻¹ from
		}
		col := n + slackOf[k]
		step := slackSign[k] * d
		for i := 0; i < m; i++ {
			if c := t[i][col]; c != 0 {
				t[i][total] += step * c
			}
		}
	}

	maxIter := p.maxIters(m, total)
	iters := 0
	done := ctx.Done()

	cost := make([]float64, total)
	copy(cost, p.obj)
	for j := n + st.nSlack; j < total; j++ {
		cost[j] = math.Inf(1)
	}

	cold := func() (*Solution, error) {
		sol, err := p.Solve(ctx)
		if sol != nil {
			sol.Iters += iters
		}
		return sol, err
	}

	dst := dualSimplex(t, bs, cost, total, maxIter, &iters, done)
	switch dst {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Infeasible:
		return &Solution{Status: Infeasible, Iters: iters, Warmed: true}, nil
	case Optimal:
		// Primal feasible again; fall through to the certifying pass.
	default:
		return cold()
	}

	dst = simplex(t, bs, cost, total, maxIter, &iters, done)
	switch dst {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Unbounded:
		return &Solution{Status: Unbounded, Iters: iters, Warmed: true}, nil
	case IterLimit:
		x, obj := p.extract(t, bs, m, n, total)
		return &Solution{Status: IterLimit, X: x, Obj: obj, Iters: iters, Warmed: true}, nil
	}
	x, obj := p.extract(t, bs, m, n, total)
	if !p.Feasible(x, 1e-6) {
		// The donor state did not describe this problem after all.
		return cold()
	}
	return &Solution{Status: Optimal, X: x, Obj: obj, Iters: iters, Warmed: true,
		State: p.captureState(t, bs, st.nSlack, st.nArt)}, nil
}

// stDualStall is dual simplex's internal "a reduced cost is negative"
// outcome: the supplied basis was not dual feasible (numerical drift or
// caller misuse), so the dual method's invariant is broken and the
// caller must fall back to the primal path.
const stDualStall Status = -2

// dualSimplex restores primal feasibility of a dual-feasible basis: the
// leaving row is the most negative RHS, the entering column the dual
// ratio test over that row's negative coefficients. Returns Optimal once
// every RHS is non-negative (primal feasible — not yet re-certified
// optimal), Infeasible when a negative row has no negative coefficient
// (that row is unsatisfiable for any x ≥ 0), stDualStall when a
// candidate column's reduced cost is negative, IterLimit or stCanceled.
func dualSimplex(t [][]float64, basis []int, cost []float64, total, maxIter int, iters *int, done <-chan struct{}) Status {
	m := len(t)
	cb := make([]float64, m)
	for {
		if *iters >= maxIter {
			return IterLimit
		}
		if done != nil && *iters%cancelCheckStride == 0 {
			select {
			case <-done:
				return stCanceled
			default:
			}
		}
		*iters++

		leave := -1
		worst := -1e-7
		for i := 0; i < m; i++ {
			if t[i][total] < worst {
				worst = t[i][total]
				leave = i
			}
		}
		if leave < 0 {
			return Optimal // primal feasible
		}

		for i := 0; i < m; i++ {
			c := cost[basis[i]]
			if math.IsInf(c, 1) {
				c = 0 // basic artificial at value 0 contributes nothing
			}
			cb[i] = c
		}

		// Dual ratio test: minimize reduced[j] / |t[leave][j]| over the
		// leaving row's negative coefficients; lowest column index breaks
		// ties (Bland, so the dual walk cannot cycle). Reduced costs are
		// priced lazily — only the leaving row's candidate columns need
		// them, a small fraction of the tableau.
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < total; j++ {
			a := t[leave][j]
			if a >= -eps || math.IsInf(cost[j], 1) {
				continue
			}
			r := cost[j]
			for i := 0; i < m; i++ {
				if cb[i] != 0 && t[i][j] != 0 {
					r -= cb[i] * t[i][j]
				}
			}
			if r < -1e-7 {
				return stDualStall
			}
			if r < 0 {
				r = 0
			}
			ratio := r / -a
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && (enter < 0 || j < enter)) {
				bestRatio = ratio
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible
		}
		pivot(t, basis, leave, enter, total)
	}
}

// extract reads the structural variable values and objective off the
// tableau's current basis.
func (p *Problem) extract(t [][]float64, basis []int, m, n, total int) ([]float64, float64) {
	x := make([]float64, n)
	for i := 0; i < m; i++ {
		if basis[i] < n {
			x[basis[i]] = t[i][total]
		}
	}
	obj := 0.0
	for j := 0; j < n; j++ {
		obj += p.obj[j] * x[j]
	}
	return x, obj
}

// stCanceled is simplex's internal "the context died" outcome; Solve
// converts it to a wrapped context error and never lets it escape.
const stCanceled Status = -1

// cancelCheckStride is how many pivots run between context polls. A
// pivot over the placement tableaus costs tens of microseconds, so the
// solver reacts to cancellation within a few milliseconds while the
// no-deadline path pays one nil-channel comparison per pivot.
const cancelCheckStride = 64

// simplex optimizes the tableau in place for the given cost vector.
// Returns Optimal, Unbounded, IterLimit or stCanceled.
func simplex(t [][]float64, basis []int, cost []float64, total, maxIter int, iters *int, done <-chan struct{}) Status {
	m := len(t)
	reduced := make([]float64, total)
	blandAfter := maxIter / 2

	for {
		if *iters >= maxIter {
			return IterLimit
		}
		if done != nil && *iters%cancelCheckStride == 0 {
			select {
			case <-done:
				return stCanceled
			default:
			}
		}
		*iters++

		// Reduced costs: c_j - c_B · B⁻¹A_j (tableau form: c_j - Σ c_basis[i]·t[i][j]),
		// accumulated row-major. An infinite-cost column may still be basic
		// (artificial at zero); it never enters, and a finite subtraction
		// leaves its +Inf reduced cost intact.
		copy(reduced, cost[:total])
		for i := 0; i < m; i++ {
			cb := cost[basis[i]]
			if math.IsInf(cb, 1) {
				cb = 0 // basic artificial at value 0 contributes nothing
			}
			if cb == 0 {
				continue
			}
			ti := t[i]
			for j := 0; j < total; j++ {
				if ti[j] != 0 {
					reduced[j] -= cb * ti[j]
				}
			}
		}

		// Entering column: most negative reduced cost (Dantzig), or the
		// lowest-index negative column (Bland) once we are past the
		// midpoint, which guarantees termination.
		enter := -1
		if *iters < blandAfter {
			best := -eps
			for j := 0; j < total; j++ {
				if reduced[j] < best {
					best = reduced[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < total; j++ {
				if reduced[j] < -eps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Ratio test; Bland tie-break on basis index.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i][enter]
			if a > eps {
				ratio := t[i][total] / a
				if ratio < bestRatio-eps ||
					(ratio < bestRatio+eps && leave >= 0 && basis[i] < basis[leave]) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		pivot(t, basis, leave, enter, total)
	}
}

// pivot performs a Gauss-Jordan pivot on t[row][col].
func pivot(t [][]float64, basis []int, row, col, total int) {
	m := len(t)
	pv := t[row][col]
	inv := 1.0 / pv
	for j := 0; j <= total; j++ {
		t[row][j] *= inv
	}
	t[row][col] = 1 // exact
	for i := 0; i < m; i++ {
		if i == row {
			continue
		}
		f := t[i][col]
		if f == 0 {
			continue
		}
		for j := 0; j <= total; j++ {
			t[i][j] -= f * t[row][j]
		}
		t[i][col] = 0 // exact
	}
	basis[row] = col
}
