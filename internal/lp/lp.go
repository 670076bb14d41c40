// Package lp implements a dense bounded-variable simplex solver for linear
// programs in the form
//
//	minimize    cᵀx
//	subject to  Ax ≤ b,  b ≥ 0
//	            lo ≤ x ≤ hi
//
// It stands in for the GNU Linear Programming Kit the paper integrates
// (§4.3): the placement ILP's relaxations are solved here, driven by the
// branch-and-bound in internal/ilp.
//
// As in GLPK, a variable's bounds live on its column, not in extra rows:
// a nonbasic variable sits at either bound, the primal ratio test includes
// the entering variable's own range (a bound flip needs no pivot), and the
// dual ratio test repairs a basic variable outside its range. Because
// b ≥ 0, the all-slack basis with every variable at zero is feasible, so
// there is no phase 1 and there are no artificial columns. The
// implementation is a textbook full tableau: Dantzig's rule selects
// entering columns, falling back to Bland's rule when progress stalls so
// cycling cannot occur.
package lp

import (
	"context"
	"errors"
	"fmt"
	"math"
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
// objective coefficients and bounds and add rows.
type Problem struct {
	n      int // structural variables
	obj    []float64
	lo, hi []float64 // variable bounds

	rowCoef [][]float64 // dense row coefficients, length n; never mutated
	rowRHS  []float64

	// MaxIter bounds total simplex pivots. Zero means the default (50 per
	// row+column, at least 10000).
	MaxIter int

	// err records the first construction mistake (negative variable
	// count, out-of-range variable or row, dense-row length mismatch,
	// negative RHS, bad bounds). Builders stay chainable — the error
	// sticks and Solve reports it at entry, wrapped around ErrBadProblem,
	// instead of panicking mid-build.
	err error
}

// Solution is the result of a successful solve.
type Solution struct {
	Status Status
	X      []float64 // structural variable values (len = NumVars)
	Obj    float64   // objective value cᵀx

	// Iters is the number of simplex iterations this solve performed.
	Iters int
	// Warmed reports that the warm path (SolveFromState) produced this
	// solution — the carried state was genuinely consumed, not discarded
	// for a cold fallback.
	Warmed bool
	// State is the full end state of an Optimal solve — the final tableau
	// with its basis, values and bounds. A later solve of a problem with
	// identical rows, columns and objective but changed RHS values or
	// variable bounds resumes from it via SolveFromState: the basis stays
	// dual feasible under such edits and the tableau IS the factorized
	// basis, so the re-solve needs only the dual pivots that repair
	// primal feasibility. Nil for non-optimal outcomes. Opaque; safe to
	// share (resuming copies it).
	State *State
}

// State is the complete end state of an Optimal solve: the simplex
// tableau over the standard form [A I]·(x, s) = b, its basis, the value
// of every column, and the bounds and RHS it was solved under. The zero
// value is useless; States come only from Solution.State.
type State struct {
	n      int         // structural columns; slack i is column n+i
	a      [][]float64 // m × (n+m): B⁻¹[A I]
	basis  []int
	x      []float64 // value of every column; a nonbasic one sits at a bound
	lo, hi []float64 // bounds of every column; slacks are [0, +Inf)
	b      []float64 // RHS
}

// NewProblem returns a minimization problem with n structural variables,
// all bounded by [0, +Inf), with zero objective coefficients.
func NewProblem(n int) *Problem {
	if n < 0 {
		return &Problem{err: fmt.Errorf("%w: negative variable count %d", ErrBadProblem, n)}
	}
	hi := make([]float64, n)
	for j := range hi {
		hi[j] = math.Inf(1)
	}
	return &Problem{n: n, obj: make([]float64, n), lo: make([]float64, n), hi: hi}
}

// fail records the first construction mistake as a sticky ErrBadProblem.
func (p *Problem) fail(format string, args ...any) {
	if p.err == nil {
		p.err = fmt.Errorf("%w: %s", ErrBadProblem, fmt.Sprintf(format, args...))
	}
}

// NumVars returns the number of structural variables.
func (p *Problem) NumVars() int { return p.n }

// NumRows returns the number of constraint rows.
func (p *Problem) NumRows() int { return len(p.rowRHS) }

// SetObj sets the objective coefficient of variable j.
func (p *Problem) SetObj(j int, c float64) {
	p.obj[j] = c
}

// SetBounds sets lo ≤ x_j ≤ hi; fixing a variable is SetBounds(j, v, v).
// hi may be +Inf. lo must be finite, at least zero and at most hi: the
// all-slack starting basis relies on x = 0 being within every variable's
// range before the lower bounds are raised. A violation or an
// out-of-range j records a sticky ErrBadProblem.
func (p *Problem) SetBounds(j int, lo, hi float64) {
	switch {
	case j < 0 || j >= p.n:
		p.fail("variable %d out of range [0,%d)", j, p.n)
	case !(lo >= 0 && lo <= hi) || math.IsInf(lo, 1):
		p.fail("variable %d bounds [%g, %g]", j, lo, hi)
	default:
		p.lo[j], p.hi[j] = lo, hi
	}
}

// AddRow adds the constraint Σ coeffs[j]·x_j ≤ rhs. Variables absent
// from coeffs have coefficient zero. An out-of-range variable or a
// negative rhs records a sticky ErrBadProblem (reported by Solve) and
// drops the row.
func (p *Problem) AddRow(coeffs map[int]float64, rhs float64) {
	row := make([]float64, p.n)
	for j, c := range coeffs {
		if j < 0 || j >= p.n {
			p.fail("variable %d out of range [0,%d)", j, p.n)
			return
		}
		row[j] = c
	}
	p.addRow(row, rhs)
}

// AddDenseRow adds a ≤ constraint from a dense coefficient slice (length
// must equal NumVars). A length mismatch or a negative rhs records a
// sticky ErrBadProblem and drops the row.
func (p *Problem) AddDenseRow(coeffs []float64, rhs float64) {
	if len(coeffs) != p.n {
		p.fail("dense row length %d, want %d", len(coeffs), p.n)
		return
	}
	p.addRow(append([]float64(nil), coeffs...), rhs)
}

func (p *Problem) addRow(row []float64, rhs float64) {
	if !(rhs >= 0) {
		p.fail("row %d RHS %g is not ≥ 0", len(p.rowRHS), rhs)
		return
	}
	p.rowCoef = append(p.rowCoef, row)
	p.rowRHS = append(p.rowRHS, rhs)
}

// SetRHS replaces row i's right-hand side. An out-of-range row or a
// negative rhs records a sticky ErrBadProblem (reported by Solve).
//
// RHS edits, like bound edits, are warm-restart moves: a basis from a
// previous Optimal solve stays dual feasible under them, so
// SolveFromState can repair the solution with a few dual pivots.
func (p *Problem) SetRHS(i int, rhs float64) {
	switch {
	case i < 0 || i >= len(p.rowRHS):
		p.fail("row %d out of range [0,%d)", i, len(p.rowRHS))
	case !(rhs >= 0):
		p.fail("row %d RHS %g is not ≥ 0", i, rhs)
	default:
		p.rowRHS[i] = rhs
	}
}

// Clone copies the problem so bounds and RHS values can be edited per
// branch-and-bound node without disturbing the base relaxation. The
// coefficient rows are immutable once added and are shared.
func (p *Problem) Clone() *Problem {
	return &Problem{
		n:       p.n,
		obj:     append([]float64(nil), p.obj...),
		lo:      append([]float64(nil), p.lo...),
		hi:      append([]float64(nil), p.hi...),
		rowCoef: p.rowCoef[:len(p.rowCoef):len(p.rowCoef)],
		rowRHS:  append([]float64(nil), p.rowRHS...),
		MaxIter: p.MaxIter,
		err:     p.err,
	}
}

// Feasible reports whether x satisfies every bound and every row within
// tol.
func (p *Problem) Feasible(x []float64, tol float64) bool {
	for j := 0; j < p.n; j++ {
		if x[j] < p.lo[j]-tol || x[j] > p.hi[j]+tol {
			return false
		}
	}
	for i, row := range p.rowCoef {
		v := 0.0
		for j, c := range row {
			if c != 0 {
				v += c * x[j]
			}
		}
		if v > p.rowRHS[i]+tol {
			return false
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

// Solve runs the bounded-variable simplex from the all-slack basis and
// returns the solution. Status Infeasible and Unbounded are reported in
// Solution.Status with a nil error. An iteration-limit trip reports
// Status IterLimit and carries the point in hand in X when it satisfies
// every row and bound — discarding it would throw away the whole
// budget's work — and a nil X otherwise.
//
// Raised lower bounds are applied after an optimal solve at lo = 0,
// through the same dual repair SolveFromState uses. That repair has
// nowhere to fall back to, so a dual stall ends the solve with Status
// IterLimit; and an unbounded solve at lo = 0 is reported Unbounded even
// if the raised bounds would make the problem infeasible.
//
// Errors report either a construction mistake — the first one recorded
// by a builder, wrapping ErrBadProblem — or cancellation: when ctx is
// cancelled or its deadline expires, Solve stops within a few pivots and
// returns the context error wrapped.
func (p *Problem) Solve(ctx context.Context) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	t := p.tableau(ctx, p.slackState())
	st := t.primal()
	if st == Optimal && t.setBounds(p.lo, p.hi) {
		if st = t.dual(); st == Optimal {
			st = t.primal()
		}
	}
	return p.result(ctx, t, st, false)
}

// tableau is the simplex working state: a State being edited in place,
// plus the cost of every column and the solve's iteration budget.
type tableau struct {
	State
	cost           []float64
	iters, maxIter int
	done           <-chan struct{}
}

// slackState lays out the standard form [A I]·(x, s) = b with the
// all-slack basis: every structural column at zero and every slack at its
// row's RHS. Structural bounds start as [0, hi]; Solve raises the lower
// ones once that relaxation is optimal.
func (p *Problem) slackState() State {
	m, n := len(p.rowRHS), p.n
	st := State{
		n:     n,
		a:     make([][]float64, m),
		basis: make([]int, m),
		x:     make([]float64, n+m),
		lo:    make([]float64, n+m),
		hi:    make([]float64, n+m),
		b:     append([]float64(nil), p.rowRHS...),
	}
	copy(st.hi, p.hi)
	for i := 0; i < m; i++ {
		st.a[i] = make([]float64, n+m)
		copy(st.a[i], p.rowCoef[i])
		st.a[i][n+i] = 1
		st.basis[i] = n + i
		st.x[n+i] = p.rowRHS[i]
		st.hi[n+i] = math.Inf(1)
	}
	return st
}

// tableau starts a solve of p from st, with p's costs and iteration
// budget.
func (p *Problem) tableau(ctx context.Context, st State) *tableau {
	t := &tableau{State: st, cost: make([]float64, len(st.x)), maxIter: p.MaxIter, done: ctx.Done()}
	copy(t.cost, p.obj)
	if t.maxIter == 0 {
		t.maxIter = max(50*(len(st.a)+len(st.x)), 10000)
	}
	return t
}

// result packages a finished tableau as a Solution. The tableau is taken
// over as the Optimal solution's State, not copied.
func (p *Problem) result(ctx context.Context, t *tableau, st Status, warmed bool) (*Solution, error) {
	sol := &Solution{Status: st, Iters: t.iters, Warmed: warmed}
	switch st {
	case stCanceled:
		return nil, fmt.Errorf("lp: solve interrupted: %w", ctx.Err())
	case Infeasible, Unbounded:
		return sol, nil
	}
	x := append([]float64(nil), t.x[:p.n]...)
	if st == Optimal {
		sol.X, sol.Obj, sol.State = x, p.Objective(x), &t.State
		return sol, nil
	}
	sol.Status = IterLimit // also a dual stall on the cold path
	if p.Feasible(x, 1e-6) {
		sol.X, sol.Obj = x, p.Objective(x)
	}
	return sol, nil
}

// SolveFromState re-solves the problem from the full end state of a
// previous Optimal solve of a problem with identical coefficient rows,
// columns and objective but (possibly) changed RHS values and variable
// bounds — the single-bound-change re-solve of a constraint sweep or a
// branch-and-bound child. Rather than rebuild the tableau and re-derive
// the basis, it clones the donor tableau and refreshes the values it
// carries: the tableau already embeds the basis inverse, so a changed
// RHS b_k is one axpy through slack k's column (B⁻¹eₖ) and a changed
// bound on a nonbasic variable is one axpy through that variable's
// column. A changed bound on a basic variable is left to the dual
// simplex, which repairs primal feasibility before a primal clean-up pass
// certifies optimality.
//
// Safety: a dimension mismatch falls back to the cold Solve, and an
// Optimal warm answer is verified feasible against THIS problem's rows
// and bounds before being returned (cold fallback otherwise). A stale or
// foreign state can cost time, never correctness.
func (p *Problem) SolveFromState(ctx context.Context, st *State) (*Solution, error) {
	if p.err != nil {
		return nil, p.err
	}
	if st == nil || st.n != p.n || len(st.b) != len(p.rowRHS) {
		return p.Solve(ctx)
	}
	t := p.tableau(ctx, st.clone())
	t.setRHS(p.rowRHS)
	t.setBounds(p.lo, p.hi)

	cold := func() (*Solution, error) {
		sol, err := p.Solve(ctx)
		if sol != nil {
			sol.Iters += t.iters
		}
		return sol, err
	}
	s := t.dual()
	switch s {
	case Optimal:
		s = t.primal()
	case stDualStall, IterLimit:
		return cold()
	}
	if s == Optimal && !p.Feasible(t.x[:p.n], 1e-6) {
		// The donor state did not describe this problem after all.
		return cold()
	}
	return p.result(ctx, t, s, true)
}

// clone deep-copies the state so a resume cannot disturb its donor.
func (st *State) clone() State {
	a := make([][]float64, len(st.a))
	for i, row := range st.a {
		a[i] = append([]float64(nil), row...)
	}
	return State{
		n:     st.n,
		a:     a,
		basis: append([]int(nil), st.basis...),
		x:     append([]float64(nil), st.x...),
		lo:    append([]float64(nil), st.lo...),
		hi:    append([]float64(nil), st.hi...),
		b:     append([]float64(nil), st.b...),
	}
}

// setRHS moves the tableau to new RHS values. Slack k's column started
// as eₖ, so its current column is B⁻¹eₖ — exactly the direction the
// basic values move when b_k changes.
func (t *tableau) setRHS(b []float64) {
	for k, v := range b {
		if d := v - t.b[k]; d != 0 {
			col := t.n + k
			for i, row := range t.a {
				if c := row[col]; c != 0 {
					t.x[t.basis[i]] += d * c
				}
			}
			t.b[k] = v
		}
	}
}

// setBounds moves the tableau to new structural bounds and reports
// whether any changed. A nonbasic variable stays on the same side (an
// upper bound that became infinite sends it to its lower bound) and its
// move is carried into the basic values; a basic variable left outside
// its new range is for the dual simplex to repair.
func (t *tableau) setBounds(lo, hi []float64) bool {
	changed := false
	var basic []bool
	for j := range lo {
		if lo[j] == t.lo[j] && hi[j] == t.hi[j] {
			continue
		}
		if basic == nil {
			basic = make([]bool, len(t.x))
			for _, bj := range t.basis {
				basic[bj] = true
			}
		}
		if !basic[j] {
			v := lo[j]
			if t.x[j] != t.lo[j] && !math.IsInf(hi[j], 1) {
				v = hi[j]
			}
			t.shift(j, v-t.x[j])
			t.x[j] = v
		}
		t.lo[j], t.hi[j] = lo[j], hi[j]
		changed = true
	}
	return changed
}

// shift moves column j by delta and carries the move into the basic
// values: basic row i changes by −delta·a[i][j].
func (t *tableau) shift(j int, delta float64) {
	if delta == 0 {
		return
	}
	t.x[j] += delta
	for i, row := range t.a {
		if c := row[j]; c != 0 {
			t.x[t.basis[i]] -= delta * c
		}
	}
}

// stCanceled is the simplex passes' internal "the context died" outcome;
// result converts it to a wrapped context error and never lets it escape.
const stCanceled Status = -1

// stDualStall is the dual simplex's internal "a reduced cost has the
// wrong sign" outcome: the basis was not dual feasible (numerical drift
// or a foreign state), so the dual method's invariant is broken and the
// caller must fall back to a cold solve.
const stDualStall Status = -2

// cancelCheckStride is how many pivots run between context polls. A
// pivot over the placement tableaus costs tens of microseconds, so the
// solver reacts to cancellation within a few milliseconds while the
// no-deadline path pays one nil-channel comparison per pivot.
const cancelCheckStride = 64

// tick counts one iteration. It reports false with IterLimit once the
// budget is spent and with stCanceled once the context is done.
func (t *tableau) tick() (Status, bool) {
	if t.iters >= t.maxIter {
		return IterLimit, false
	}
	if t.done != nil && t.iters%cancelCheckStride == 0 {
		select {
		case <-t.done:
			return stCanceled, false
		default:
		}
	}
	t.iters++
	return 0, true
}

// atUpper reports whether nonbasic column j sits at its upper bound.
func (t *tableau) atUpper(j int) bool { return t.x[j] != t.lo[j] }

// primal optimizes a primal-feasible tableau in place. Returns Optimal,
// Unbounded, IterLimit or stCanceled.
func (t *tableau) primal() Status {
	total := len(t.x)
	reduced := make([]float64, total)
	blandAfter := t.maxIter / 2

	for {
		if st, ok := t.tick(); !ok {
			return st
		}

		// Reduced costs: c_j − Σ c_basis[i]·a[i][j], accumulated
		// row-major. A basic column's is exactly zero.
		copy(reduced, t.cost)
		for i, row := range t.a {
			cb := t.cost[t.basis[i]]
			if cb == 0 {
				continue
			}
			for j, c := range row {
				if c != 0 {
					reduced[j] -= cb * c
				}
			}
		}

		// Entering column: a nonbasic variable at its lower bound with a
		// negative reduced cost (it increases) or at its upper bound with
		// a positive one (it decreases). Dantzig picks the largest
		// improvement rate; past the midpoint of the budget Bland picks
		// the lowest index, which guarantees termination.
		enter, dir := -1, 0.0
		best := eps
		for j := 0; j < total; j++ {
			if t.lo[j] == t.hi[j] {
				continue // fixed: can never move
			}
			d, s := reduced[j], 1.0
			if t.atUpper(j) {
				d, s = -d, -1
			}
			if -d > best {
				enter, dir = j, s
				if t.iters >= blandAfter {
					break
				}
				best = -d
			}
		}
		if enter < 0 {
			return Optimal
		}

		// Ratio test: the first basic variable to reach a bound as the
		// entering one moves by θ (Bland tie-break on basis index),
		// against the entering variable's own range — a bound flip.
		leave, toUpper := -1, false
		bestRatio := math.Inf(1)
		for i, row := range t.a {
			alpha := dir * row[enter] // basic i falls by alpha per unit θ
			bi := t.basis[i]
			var ratio float64
			up := false
			switch {
			case alpha > eps:
				ratio = (t.x[bi] - t.lo[bi]) / alpha
			case alpha < -eps && !math.IsInf(t.hi[bi], 1):
				ratio, up = (t.hi[bi]-t.x[bi])/-alpha, true
			default:
				continue
			}
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && leave >= 0 && bi < t.basis[leave]) {
				bestRatio, leave, toUpper = ratio, i, up
			}
		}
		if span := t.hi[enter] - t.lo[enter]; span < bestRatio-eps {
			t.shift(enter, dir*span)
			if dir > 0 {
				t.x[enter] = t.hi[enter]
			} else {
				t.x[enter] = t.lo[enter]
			}
			continue
		}
		if leave < 0 {
			return Unbounded
		}
		t.shift(enter, dir*bestRatio)
		lv := t.basis[leave]
		if toUpper {
			t.x[lv] = t.hi[lv]
		} else {
			t.x[lv] = t.lo[lv]
		}
		t.pivot(leave, enter)
	}
}

// dual restores primal feasibility of a dual-feasible tableau: the
// leaving row is the basic variable furthest outside its range, the
// entering column the dual ratio test over the nonbasic variables that
// can move it back. Returns Optimal once every basic variable is within
// range (primal feasible — not yet re-certified optimal), Infeasible
// when no nonbasic variable can move the leaving one toward its range
// (that row is unsatisfiable within the bounds), stDualStall when a
// candidate column's reduced cost has the wrong sign, IterLimit or
// stCanceled.
func (t *tableau) dual() Status {
	m, total := len(t.a), len(t.x)
	cb := make([]float64, m)
	for {
		if st, ok := t.tick(); !ok {
			return st
		}

		leave, target := -1, 0.0
		worst := 1e-7
		for i, bi := range t.basis {
			if v := t.lo[bi] - t.x[bi]; v > worst {
				leave, worst, target = i, v, t.lo[bi]
			}
			if v := t.x[bi] - t.hi[bi]; v > worst {
				leave, worst, target = i, v, t.hi[bi]
			}
		}
		if leave < 0 {
			return Optimal // primal feasible
		}
		lv := t.basis[leave]
		raise := target > t.x[lv]

		for i, bi := range t.basis {
			cb[i] = t.cost[bi]
		}

		// Dual ratio test: minimize |reduced[j] / a[leave][j]| over the
		// nonbasic columns whose move in their free direction pushes the
		// leaving variable toward its target (row leave reads
		// x_lv = … − Σ a[leave][j]·x_j); the lowest column index breaks
		// ties (Bland, so the dual walk cannot cycle). Reduced costs are
		// priced lazily — only the candidates need them, a small fraction
		// of the tableau.
		enter := -1
		bestRatio := math.Inf(1)
		for j := 0; j < total; j++ {
			a := t.a[leave][j]
			if j == lv || t.lo[j] == t.hi[j] || math.Abs(a) <= eps {
				continue
			}
			up := t.atUpper(j)
			if (a < 0) != (raise != up) {
				continue
			}
			r := t.cost[j]
			for i, row := range t.a {
				if cb[i] != 0 && row[j] != 0 {
					r -= cb[i] * row[j]
				}
			}
			if up {
				r = -r // dual feasible at the upper bound means r ≤ 0
			}
			if r < -1e-7 {
				return stDualStall
			}
			if r < 0 {
				r = 0
			}
			if ratio := r / math.Abs(a); enter < 0 || ratio < bestRatio-eps {
				bestRatio, enter = ratio, j
			}
		}
		if enter < 0 {
			return Infeasible
		}
		t.shift(enter, (t.x[lv]-target)/t.a[leave][enter])
		t.x[lv] = target
		t.pivot(leave, enter)
	}
}

// pivot performs a Gauss-Jordan pivot on a[row][col], making col basic in
// row. Values are not touched: the callers have already moved them.
func (t *tableau) pivot(row, col int) {
	pr := t.a[row]
	inv := 1.0 / pr[col]
	for j := range pr {
		pr[j] *= inv
	}
	pr[col] = 1 // exact
	for i, ri := range t.a {
		if i == row {
			continue
		}
		f := ri[col]
		if f == 0 {
			continue
		}
		for j, c := range pr {
			ri[j] -= f * c
		}
		ri[col] = 0 // exact
	}
	t.basis[row] = col
}
