// Package model implements the paper's energy cost model and its ILP
// formulation (§4): per-block parameters Sb, Cb, Fb, Kb, Tb, Lb and
// Succ(b) are extracted from the program, and the minimization of Eq. 1
// under the RAM constraint (Eq. 7) and the execution-time constraint
// (Eq. 9) is linearized over binary variables
//
//	r_b  — block b is placed in RAM        (the set R)
//	i_b  — block b must be instrumented    (the set I, Eq. 5)
//	p_b  — r_b·i_b                         (product linearization)
//
// Eq. 5's "b ∈ I iff some successor is in a different memory" becomes
// i_b ≥ r_b − r_s and i_b ≥ r_s − r_b per control-flow edge (including
// call edges, which also cannot span the flash↔RAM distance); because
// i_b and p_b only make the minimized objective and the ≤ constraints
// worse, they settle at their lower bounds and the encoding is exact.
// Only the r_b variables need to be branched on: with r integral, the
// optimal i and p are automatically integral.
package model

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cfg"
	"repro/internal/freq"
	"repro/internal/ir"
	"repro/internal/isa"
	"repro/internal/lp"
	"repro/internal/transform"
)

// Params are the developer- and hardware-supplied model inputs (§4.1).
type Params struct {
	// EFlash and ERAM are the energy cost coefficients per cycle
	// (nJ/cycle) of executing from flash and RAM.
	EFlash, ERAM float64
	// Rspare is the RAM budget for code, in bytes.
	Rspare float64
	// Xlimit is the maximum allowed execution-time ratio (Eq. 9);
	// 1.1 permits 10% slowdown. Values below 1 are rejected.
	Xlimit float64
	// MaxCandidates caps how many blocks receive r variables, keeping the
	// ILP tractable; the hottest blocks by potential saving are kept and
	// the rest are pinned to flash. 0 means DefaultMaxCandidates.
	MaxCandidates int
	// IncludeLibrary implements the paper's future-work extension: run
	// the optimization at link time with full visibility of library code
	// (soft-float and friends), so those blocks become placement
	// candidates too ("the optimization could be moved into the linker,
	// allowing it to have a full view of the program", §8).
	IncludeLibrary bool
	// CkptNJPerByte is the intermittent-computing checkpoint term
	// (DESIGN.md §6l): every byte placed in RAM is volatile, so it must
	// be journaled to flash at each checkpoint and copied back on each
	// restore. This is that journal traffic amortized over the run, in
	// nJ per RAM-placed byte, derived from the expected checkpoint and
	// outage counts. Zero (the default) is the always-powered model —
	// the ILP and Evaluate are then bit-identical to the paper's Eq. 1.
	CkptNJPerByte float64
}

// DefaultMaxCandidates bounds the branching variables of the ILP.
const DefaultMaxCandidates = 64

// BlockData carries one block's extracted parameters (Figure 3).
type BlockData struct {
	Block *ir.Block
	S     float64 // size in bytes, including its literal pool
	C     float64 // cycles per execution (Cb)
	F     float64 // execution frequency (Fb)
	K     float64 // instrumentation bytes incl. pool words (Kb)
	T     float64 // instrumentation cycles (Tb)
	L     float64 // RAM-contention stall cycles per execution (Lb)
	Edges []*ir.Block
	// Movable is false for library blocks and blocks pinned to flash
	// (PC-relative adr, or cut by the candidate cap).
	Movable bool
}

// Model is the assembled optimization instance.
type Model struct {
	Params Params
	Blocks []*BlockData

	byLabel map[string]*BlockData
	// BaseCycles is Σ Fb·Cb: the all-flash weighted cycle count (the
	// denominator of Eq. 9).
	BaseCycles float64
	// BaseEnergyNJ is Σ Fb·Cb·EFlash: the all-flash model energy.
	BaseEnergyNJ float64
}

// Build extracts the model from a program. graphs must come from
// cfg.BuildAll on the same program; est supplies Fb.
func Build(p *ir.Program, graphs map[string]*cfg.Graph, est freq.Estimate, params Params) (*Model, error) {
	if params.Xlimit < 1 {
		return nil, fmt.Errorf("model: Xlimit %.3f < 1 can never be satisfied", params.Xlimit)
	}
	if params.Rspare < 0 {
		return nil, fmt.Errorf("model: negative Rspare %.0f", params.Rspare)
	}
	if params.EFlash <= params.ERAM {
		return nil, fmt.Errorf("model: EFlash %.3f ≤ ERAM %.3f leaves nothing to optimize",
			params.EFlash, params.ERAM)
	}
	if params.CkptNJPerByte < 0 {
		return nil, fmt.Errorf("model: negative checkpoint cost %.3f nJ/byte", params.CkptNJPerByte)
	}
	if params.MaxCandidates == 0 {
		params.MaxCandidates = DefaultMaxCandidates
	}

	m := &Model{Params: params, byLabel: make(map[string]*BlockData)}
	for _, f := range p.Funcs {
		g := graphs[f.Name]
		for _, b := range f.Blocks {
			cost := transform.InstrumentationCost(b)
			bd := &BlockData{
				Block:   b,
				S:       float64(b.SizeWithLiterals()),
				C:       float64(b.Cycles()),
				F:       est.Of(b),
				K:       float64(cost.Total()),
				T:       float64(cost.Cycles),
				L:       float64(b.LoadCount() * isa.RAMContentionStall),
				Movable: (!f.Library || params.IncludeLibrary) && !pinned(b),
			}
			if g != nil {
				bd.Edges = append(bd.Edges, g.Succs(b)...)
				bd.Edges = append(bd.Edges, g.CallsOut[b]...)
			}
			m.Blocks = append(m.Blocks, bd)
			m.byLabel[b.Label] = bd
			m.BaseCycles += bd.F * bd.C
			m.BaseEnergyNJ += bd.F * bd.C * params.EFlash
		}
	}

	// Candidate cap: keep the blocks with the highest potential saving
	// F·C·(EFlash−ERAM); pin the rest.
	var movable []*BlockData
	for _, bd := range m.Blocks {
		if bd.Movable {
			movable = append(movable, bd)
		}
	}
	if len(movable) > params.MaxCandidates {
		sort.Slice(movable, func(i, j int) bool {
			return movable[i].F*movable[i].C > movable[j].F*movable[j].C
		})
		for _, bd := range movable[params.MaxCandidates:] {
			bd.Movable = false
		}
	}
	return m, nil
}

// pinned reports blocks that must stay in flash regardless of the model:
// blocks using short-range PC-relative addressing.
func pinned(b *ir.Block) bool {
	for i := range b.Instrs {
		if b.Instrs[i].Op == isa.ADR {
			return true
		}
	}
	return false
}

// Data returns the extracted parameters for a block label.
func (m *Model) Data(label string) *BlockData { return m.byLabel[label] }

// Vars maps model variables to LP column indices.
type Vars struct {
	R map[string]int // block label → r variable
	I map[string]int // block label → i variable
	P map[string]int // block label → p variable
	N int
}

// BuildILP lowers the model to an LP relaxation plus the list of binary
// (branching) variables — exactly what internal/ilp consumes.
func (m *Model) BuildILP() (*lp.Problem, *Vars) {
	vars := &Vars{R: map[string]int{}, I: map[string]int{}, P: map[string]int{}}
	next := 0
	alloc := func() int { n := next; next++; return n }

	for _, bd := range m.Blocks {
		if bd.Movable {
			vars.R[bd.Block.Label] = alloc()
		}
	}
	// i variables for blocks with at least one edge that could cross:
	// the block itself movable, or some edge target movable.
	for _, bd := range m.Blocks {
		need := bd.Movable && len(bd.Edges) > 0
		if !need {
			for _, s := range bd.Edges {
				if sd := m.byLabel[s.Label]; sd != nil && sd.Movable {
					need = true
					break
				}
			}
		}
		if need {
			vars.I[bd.Block.Label] = alloc()
			if bd.Movable {
				vars.P[bd.Block.Label] = alloc()
			}
		}
	}
	vars.N = next

	prob := lp.NewProblem(next)
	ef, er := m.Params.EFlash, m.Params.ERAM

	// Objective: Σ F[C(Er−Ef)r + T·Ef·i + T(Er−Ef)p + L·Er·r], plus the
	// checkpoint term Σ Q(S·r + K·p) — Q nJ per RAM-placed byte of
	// journal traffic (instrumentation bytes join the journal exactly
	// when they join the RAM footprint, i.e. on p). Q = 0 restores the
	// paper's always-powered objective bit for bit.
	q := m.Params.CkptNJPerByte
	for _, bd := range m.Blocks {
		lbl := bd.Block.Label
		if j, ok := vars.R[lbl]; ok {
			obj := bd.F * (bd.C*(er-ef) + bd.L*er)
			if q != 0 {
				obj += q * bd.S
			}
			prob.SetObj(j, obj)
		}
		if j, ok := vars.I[lbl]; ok {
			prob.SetObj(j, bd.F*bd.T*ef)
		}
		if j, ok := vars.P[lbl]; ok {
			obj := bd.F * bd.T * (er - ef)
			if q != 0 {
				obj += q * bd.K
			}
			prob.SetObj(j, obj)
		}
	}

	// Eq. 5 edges: i_b ≥ r_b − r_s, i_b ≥ r_s − r_b.
	for _, bd := range m.Blocks {
		lbl := bd.Block.Label
		iv, ok := vars.I[lbl]
		if !ok {
			continue
		}
		rb, hasRB := vars.R[lbl]
		for _, s := range bd.Edges {
			rs, hasRS := vars.R[s.Label]
			if !hasRB && !hasRS {
				continue // both pinned to flash: never crosses
			}
			row1 := map[int]float64{iv: -1}
			row2 := map[int]float64{iv: -1}
			if hasRB {
				row1[rb] = 1
				row2[rb] = -1
			}
			if hasRS {
				row1[rs] = row1[rs] - 1
				row2[rs] = row2[rs] + 1
			}
			prob.AddRow(row1, lp.LE, 0) // r_b − r_s − i_b ≤ 0
			prob.AddRow(row2, lp.LE, 0) // r_s − r_b − i_b ≤ 0
		}
	}

	// Product linearization: p ≤ r, p ≤ i, p ≥ r + i − 1, in block order —
	// row order must be deterministic or degenerate simplex ties (and
	// with them the branch-and-bound node count) follow map iteration
	// order.
	for _, bd := range m.Blocks {
		lbl := bd.Block.Label
		pv, ok := vars.P[lbl]
		if !ok {
			continue
		}
		rv := vars.R[lbl]
		iv := vars.I[lbl]
		prob.AddRow(map[int]float64{pv: 1, rv: -1}, lp.LE, 0)
		prob.AddRow(map[int]float64{pv: 1, iv: -1}, lp.LE, 0)
		prob.AddRow(map[int]float64{rv: 1, iv: 1, pv: -1}, lp.LE, 1)
	}

	// Eq. 7: Σ S·r + K·p ≤ Rspare.
	ramRow := map[int]float64{}
	for _, bd := range m.Blocks {
		lbl := bd.Block.Label
		if j, ok := vars.R[lbl]; ok {
			ramRow[j] += bd.S
		}
		if j, ok := vars.P[lbl]; ok {
			ramRow[j] += bd.K
		}
	}
	if len(ramRow) > 0 {
		prob.AddRow(ramRow, lp.LE, m.Params.Rspare)
	}

	// Eq. 9: Σ F(T·i + L·r) ≤ (Xlimit−1)·BaseCycles.
	timeRow := map[int]float64{}
	for _, bd := range m.Blocks {
		lbl := bd.Block.Label
		if j, ok := vars.R[lbl]; ok {
			timeRow[j] += bd.F * bd.L
		}
		if j, ok := vars.I[lbl]; ok {
			timeRow[j] += bd.F * bd.T
		}
	}
	if len(timeRow) > 0 {
		prob.AddRow(timeRow, lp.LE, (m.Params.Xlimit-1)*m.BaseCycles)
	}

	return prob, vars
}

// Outcome is the model's prediction for one placement.
type Outcome struct {
	EnergyNJ float64 // Eq. 1 total
	Cycles   float64 // Σ F(C + Oc + Or)
	RAMBytes float64 // Eq. 7 left-hand side
	Feasible bool    // within Rspare and Xlimit
}

// Evaluate computes the model's objective for an explicit placement —
// used by the exhaustive solver, the greedy baseline and the Figure 6
// point clouds. Blocks in inRAM that are not movable render the placement
// infeasible.
func (m *Model) Evaluate(inRAM map[string]bool) Outcome {
	var out Outcome
	out.Feasible = true
	for lbl := range inRAM {
		if !inRAM[lbl] {
			continue
		}
		bd := m.byLabel[lbl]
		if bd == nil || !bd.Movable {
			out.Feasible = false
		}
	}
	for _, bd := range m.Blocks {
		t := m.BlockTerm(bd, inRAM)
		out.Cycles += t.Cycles
		out.EnergyNJ += t.EnergyNJ
		if t.InRAM {
			out.RAMBytes += bd.S
			if t.Instrumented {
				out.RAMBytes += bd.K
			}
			// Checkpoint term, mirroring the ILP objective: RAM-placed
			// bytes are journaled, instrumentation bytes included iff
			// they are materialized (instrumented ∧ RAM, the p variable).
			if q := m.Params.CkptNJPerByte; q != 0 {
				out.EnergyNJ += q * bd.S
				if t.Instrumented {
					out.EnergyNJ += q * bd.K
				}
			}
		}
	}
	if out.RAMBytes > m.Params.Rspare+1e-9 {
		out.Feasible = false
	}
	if m.BaseCycles > 0 && out.Cycles > m.Params.Xlimit*m.BaseCycles+1e-6 {
		out.Feasible = false
	}
	return out
}

// PlacementFromX converts an ILP solution vector into the RAM block set.
func (m *Model) PlacementFromX(vars *Vars, x []float64) map[string]bool {
	inRAM := make(map[string]bool)
	for lbl, j := range vars.R {
		if x[j] > 0.5 {
			inRAM[lbl] = true
		}
	}
	return inRAM
}

// Rounder returns a heuristic for ilp.Solver: it rounds the fractional r
// variables, drops the least-beneficial blocks until the placement is
// feasible, and materializes a consistent full variable vector.
func (m *Model) Rounder(vars *Vars) func(x []float64) ([]float64, bool) {
	return func(x []float64) ([]float64, bool) {
		inRAM := make(map[string]bool)
		for lbl, j := range vars.R {
			if x[j] >= 0.5 {
				inRAM[lbl] = true
			}
		}
		for !m.Evaluate(inRAM).Feasible {
			// Drop the least beneficial selected block. Ties break on the
			// label so the heuristic — and with it the branch-and-bound
			// node count — is deterministic (map iteration order is not).
			worst, worstVal := "", math.Inf(1)
			for lbl := range inRAM {
				bd := m.byLabel[lbl]
				v := bd.F * bd.C * (m.Params.EFlash - m.Params.ERAM)
				if v < worstVal || (v == worstVal && (worst == "" || lbl < worst)) {
					worstVal = v
					worst = lbl
				}
			}
			if worst == "" {
				return nil, false
			}
			delete(inRAM, worst)
		}
		return m.MaterializeX(vars, inRAM), true
	}
}

// MaterializeX builds the full LP vector (r, i, p) implied by a placement.
func (m *Model) MaterializeX(vars *Vars, inRAM map[string]bool) []float64 {
	x := make([]float64, vars.N)
	for lbl, j := range vars.R {
		if inRAM[lbl] {
			x[j] = 1
		}
	}
	for lbl, iv := range vars.I {
		bd := m.byLabel[lbl]
		r := inRAM[lbl]
		cross := false
		for _, s := range bd.Edges {
			if inRAM[s.Label] != r {
				cross = true
				break
			}
		}
		if cross {
			x[iv] = 1
		}
		if pv, ok := vars.P[lbl]; ok && cross && r {
			x[pv] = 1
		}
	}
	return x
}

// Term is one block's share of Eq. 1 under a placement, before the
// checkpoint term.
type Term struct {
	InRAM bool
	// Instrumented is Eq. 5: some successor sits in the other memory.
	Instrumented bool
	// Cycles is Fb·(Cb [+Tb if instrumented] [+Lb if in RAM]).
	Cycles float64
	// EnergyNJ is Cycles·E(memory).
	EnergyNJ float64
}

// BlockTerm evaluates bd's term under inRAM: the per-block sum behind
// Evaluate, and the prediction trace.ModelDiff sets against a measured
// profile.
func (m *Model) BlockTerm(bd *BlockData, inRAM map[string]bool) Term {
	t := Term{InRAM: inRAM[bd.Block.Label]}
	for _, s := range bd.Edges {
		if inRAM[s.Label] != t.InRAM {
			t.Instrumented = true
			break
		}
	}
	cyc := bd.C
	if t.Instrumented {
		cyc += bd.T
	}
	mem := m.Params.EFlash
	if t.InRAM {
		cyc += bd.L
		mem = m.Params.ERAM
	}
	t.Cycles = bd.F * cyc
	t.EnergyNJ = t.Cycles * mem
	return t
}
