package trace

import (
	"math"
	"sort"

	"repro/internal/model"
)

// DiffOptions tune outlier flagging in ModelDiff.
type DiffOptions struct {
	// OutlierRelErr is the relative disagreement above which a block is
	// flagged (0 = default 0.5, i.e. the model is off by more than 50%).
	OutlierRelErr float64
}

func (o *DiffOptions) fill() {
	if o.OutlierRelErr == 0 {
		o.OutlierRelErr = 0.5
	}
}

// shareFloor suppresses noise: a block is only eligible for flagging
// when its measured or predicted energy share is at least this fraction
// of its run's total.
const shareFloor = 0.01

// BlockDiff compares one block's measured attribution with the model's
// predicted contribution to the Eq. 1 objective under the placement.
type BlockDiff struct {
	Label string
	Func  string
	InRAM bool

	MeasuredNJ  float64 // attributed by the trace
	PredictedNJ float64 // Fb·cycles·E from the model's parameters
	MeasuredF   float64 // actual activations
	PredictedF  float64 // the model's Fb estimate

	// The static Fb estimate is a relative weight (loop-nest heuristic),
	// not an absolute execution count, so absolute energies are not
	// comparable across the two columns. The shares below normalize each
	// column by its own total; RelErr and Outlier are computed on shares,
	// flagging blocks whose relative weight the model got wrong.
	MeasuredShare  float64
	PredictedShare float64
	RelErr         float64 // |shareMeas−sharePred| / max(shareMeas,sharePred)
	Outlier        bool
}

// Diff is a full model-versus-measured comparison for one run: the §6
// discussion of where the static model mispredicts, as a report.
type Diff struct {
	Blocks []BlockDiff // sorted by absolute energy disagreement, descending

	TotalMeasuredNJ float64
	// TotalPredictedNJ sums the model.BlockTerm energies: Evaluate's
	// EnergyNJ without the checkpoint term, so the two are equal when
	// the model's CkptNJPerByte is 0.
	TotalPredictedNJ float64
	Outliers         int
}

// ModelDiff compares a measured profile against the model's per-block
// predicted energy under the given placement. The prediction is the
// objective's per-block term, model.BlockTerm: Fb·(Cb [+Tb if
// instrumented] [+Lb if in RAM])·E(memory), the sum model.Evaluate
// takes — so each block's row shows which term (frequency, cycle count,
// memory) the model got wrong.
func ModelDiff(p *Profile, m *model.Model, inRAM map[string]bool, opts DiffOptions) *Diff {
	opts.fill()
	d := &Diff{TotalMeasuredNJ: p.TotalEnergyNJ}

	for _, bd := range m.Blocks {
		lbl := bd.Block.Label
		t := m.BlockTerm(bd, inRAM)
		d.TotalPredictedNJ += t.EnergyNJ

		row := BlockDiff{
			Label:       lbl,
			InRAM:       t.InRAM,
			PredictedNJ: t.EnergyNJ,
			PredictedF:  bd.F,
		}
		if bd.Block.Func != nil {
			row.Func = bd.Block.Func.Name
		}
		if mp := p.Blocks[lbl]; mp != nil {
			row.MeasuredNJ = mp.EnergyNJ
			row.MeasuredF = float64(mp.Entries)
		}
		d.Blocks = append(d.Blocks, row)
	}

	// Second pass, now that both totals are known: normalize to shares
	// and flag the blocks the model mis-weights.
	for i := range d.Blocks {
		row := &d.Blocks[i]
		if d.TotalMeasuredNJ > 0 {
			row.MeasuredShare = row.MeasuredNJ / d.TotalMeasuredNJ
		}
		if d.TotalPredictedNJ > 0 {
			row.PredictedShare = row.PredictedNJ / d.TotalPredictedNJ
		}
		scale := math.Max(row.MeasuredShare, row.PredictedShare)
		if scale > 0 {
			row.RelErr = math.Abs(row.MeasuredShare-row.PredictedShare) / scale
		}
		if row.RelErr > opts.OutlierRelErr && scale >= shareFloor {
			row.Outlier = true
			d.Outliers++
		}
	}

	sort.Slice(d.Blocks, func(i, j int) bool {
		di := math.Abs(d.Blocks[i].MeasuredShare - d.Blocks[i].PredictedShare)
		dj := math.Abs(d.Blocks[j].MeasuredShare - d.Blocks[j].PredictedShare)
		if di != dj {
			return di > dj
		}
		return d.Blocks[i].Label < d.Blocks[j].Label
	})
	return d
}
