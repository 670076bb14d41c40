// Trade-off space: explore the Figure 6 energy/time/RAM space for a
// benchmark, comparing the placement solvers on the same model —
// showing why the ILP's clustering beats the greedy knapsack.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/beebs"
	"repro/internal/core"
	"repro/internal/mcc"
)

func main() {
	ctx := context.Background()
	bench := beebs.Get("dijkstra")
	prog, err := mcc.Compile(bench.Source, mcc.O2)
	if err != nil {
		log.Fatal(err)
	}
	// One session per program: every solve below shares its CFG, static
	// frequency estimate and, per budget, its cost model.
	sess, err := core.NewSession(prog, core.SessionConfig{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("dijkstra at O2: solver comparison across RAM budgets")
	fmt.Printf("%-8s %-12s %14s %12s %10s %8s\n",
		"budget", "solver", "energy (uJ)", "cycles", "RAM used", "blocks")
	for _, rspare := range []float64{128, 512, 2048} {
		for _, solver := range []core.Solver{core.SolverILP, core.SolverGreedy, core.SolverFunction} {
			r, err := sess.Solve(ctx, core.SolveSpec{
				ModelSpec: core.ModelSpec{Rspare: rspare, Xlimit: 1.5},
				Solver:    solver,
			})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8.0f %-12s %14.2f %12.0f %10.0f %8d\n",
				rspare, r.Method, r.Outcome.EnergyNJ/1e3, r.Outcome.Cycles,
				r.Outcome.RAMBytes, len(r.InRAM))
		}
	}

	// The headline placement, reused from the memo.
	spec := core.ModelSpec{Rspare: 2048, Xlimit: 1.5}
	m, err := sess.Model(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sess.Solve(ctx, core.SolveSpec{ModelSpec: spec, Solver: core.SolverILP})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nILP at 2 KiB: %d blocks chosen; model predicts %.2f uJ (baseline %.2f uJ)\n",
		len(res.InRAM), res.Outcome.EnergyNJ/1e3, m.BaseEnergyNJ/1e3)
	if _, err := sess.Baseline(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("baseline layout OK; run `flashram -bench dijkstra` for measured numbers")
}
