package conform

import (
	"fmt"
	"math"

	"repro/internal/savat"
	"repro/internal/stats"
)

// Agreement scores how closely one SAVAT matrix tracks another over the
// same events — a measured matrix against the paper's, or two saved
// campaigns against each other.
type Agreement struct {
	// Spearman is the rank correlation over every cell.
	Spearman float64
	// MeanAbsLog10 is the mean |log10(A/B)| over Cells.
	MeanAbsLog10 float64
	// Cells holds every cell positive in both matrices, row-major.
	Cells []CellRatio
}

// CellRatio is one cell positive in both matrices.
type CellRatio struct {
	Row, Col savat.Event
	A, B     float64
	Log10    float64 // log10(A/B)
}

// TypicalRatio is the typical cell ratio, 10^MeanAbsLog10.
func (g Agreement) TypicalRatio() float64 { return math.Pow(10, g.MeanAbsLog10) }

// CompareMatrices scores a against b, which must hold the same events
// in the same order. It fails when no cell is positive in both.
func CompareMatrices(a, b *savat.Matrix) (Agreement, error) {
	if a.Size() != b.Size() {
		return Agreement{}, fmt.Errorf("matrix sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return Agreement{}, fmt.Errorf("event order differs at %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}
	rho, err := stats.SpearmanRank(a.Flat(), b.Flat())
	if err != nil {
		return Agreement{}, err
	}
	g := Agreement{Spearman: rho}
	var logSum float64
	for i, row := range a.Vals {
		for j, av := range row {
			bv := b.Vals[i][j]
			if !(av > 0 && bv > 0) {
				continue
			}
			lr := math.Log10(av / bv)
			logSum += math.Abs(lr)
			g.Cells = append(g.Cells, CellRatio{Row: a.Events[i], Col: a.Events[j], A: av, B: bv, Log10: lr})
		}
	}
	if len(g.Cells) == 0 {
		return Agreement{}, fmt.Errorf("no comparable cells")
	}
	g.MeanAbsLog10 = logSum / float64(len(g.Cells))
	return g, nil
}
