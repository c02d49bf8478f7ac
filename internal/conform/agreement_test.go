package conform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/savat"
)

// CompareMatrices ranks every cell but takes log ratios only over the
// cells positive in both matrices, row-major.
func TestCompareMatrices(t *testing.T) {
	ev := []savat.Event{savat.LDM, savat.NOI}
	a, b := savat.NewMatrix(ev), savat.NewMatrix(ev)
	a.Vals = [][]float64{{1, 100}, {0, 10}}
	b.Vals = [][]float64{{1, 10}, {5, math.NaN()}}
	g, err := CompareMatrices(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 2 {
		t.Fatalf("%d cells compared, want 2 (LDM/LDM, LDM/NOI)", len(g.Cells))
	}
	if c := g.Cells[1]; c.Row != savat.LDM || c.Col != savat.NOI || c.A != 100 || c.B != 10 || c.Log10 != 1 {
		t.Errorf("second cell %+v, want LDM/NOI 100 vs 10, log10 1", c)
	}
	if g.MeanAbsLog10 != 0.5 {
		t.Errorf("mean |log10 ratio| %g, want 0.5", g.MeanAbsLog10)
	}
	if got, want := g.TypicalRatio(), math.Pow(10, 0.5); got != want {
		t.Errorf("typical ratio %g, want %g", got, want)
	}

	self, err := CompareMatrices(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if self.Spearman != 1 || self.MeanAbsLog10 != 0 {
		t.Errorf("a matrix against itself: Spearman %g, mean |log10| %g; want 1 and 0", self.Spearman, self.MeanAbsLog10)
	}
}

func TestCompareMatricesErrors(t *testing.T) {
	two := savat.NewMatrix([]savat.Event{savat.LDM, savat.NOI})
	two.Vals = [][]float64{{-1, -2}, {0, -3}}
	positive := savat.NewMatrix(two.Events)
	positive.Vals = [][]float64{{1, 2}, {3, 4}}
	for _, c := range []struct {
		name string
		b    *savat.Matrix
		want string
	}{
		{"size", savat.NewMatrix([]savat.Event{savat.LDM}), "matrix sizes differ"},
		{"order", savat.NewMatrix([]savat.Event{savat.NOI, savat.LDM}), "event order differs"},
		{"no positive cell", positive, "no comparable cells"},
	} {
		if _, err := CompareMatrices(two, c.b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
}
