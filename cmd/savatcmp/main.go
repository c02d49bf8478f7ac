// Command savatcmp compares two SAVAT matrices: rank correlation,
// typical cell ratio, and the largest per-cell deviations. Useful for
// comparing machines, distances, seeds, or model variants.
//
// With two arguments it compares CSV files (saved by
// `savat -matrix -format csv` or by hand from published data):
//
//	savat -machine Core2Duo -matrix -format csv -fast > a.csv
//	savat -machine TurionX2 -matrix -format csv -fast > b.csv
//	savatcmp a.csv b.csv
//
// With one argument it measures the configured machine live and
// compares the result against the file — e.g. checking a saved matrix
// against a model change, or a published matrix against the simulation:
//
//	savatcmp -machine Core2Duo -distance 0.5 -fast baseline.csv
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"sort"
	"sync"

	"repro/internal/cliconf"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/savat"
	"repro/internal/stats"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "savatcmp:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cf  = cliconf.Register(flag.CommandLine, cliconf.All|cliconf.Spec)
		top = flag.Int("top", 10, "how many largest deviations to list")
	)
	flag.Parse()

	// -emit-spec serializes the live-measurement campaign instead of
	// running a comparison; -spec drives the live side from a file.
	if emitted, err := cf.WriteEmittedSpec(); emitted || err != nil {
		return err
	}

	var a, b *savat.Matrix
	var aName, bName string
	switch flag.NArg() {
	case 2:
		var err error
		if a, err = load(flag.Arg(0)); err != nil {
			return err
		}
		if b, err = load(flag.Arg(1)); err != nil {
			return err
		}
		aName, bName = flag.Arg(0), flag.Arg(1)
	case 1:
		var err error
		if b, err = load(flag.Arg(0)); err != nil {
			return err
		}
		if a, err = measureLive(cf); err != nil {
			return err
		}
		spec, err := cf.CampaignSpec()
		if err != nil {
			return err
		}
		aName, bName = "live "+spec.Machine, flag.Arg(0)
	default:
		return fmt.Errorf("usage: savatcmp [flags] a.csv b.csv  |  savatcmp [flags] baseline.csv")
	}

	if a.Size() != b.Size() {
		return fmt.Errorf("matrix sizes differ: %d vs %d", a.Size(), b.Size())
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return fmt.Errorf("event order differs at %d: %v vs %v", i, a.Events[i], b.Events[i])
		}
	}

	rho, err := stats.SpearmanRank(a.Flat(), b.Flat())
	if err != nil {
		return err
	}
	type cell struct {
		name     string
		av, bv   float64
		logRatio float64
	}
	var cells []cell
	var logSum float64
	var n int
	for i := range a.Vals {
		for j := range a.Vals[i] {
			av, bv := a.Vals[i][j], b.Vals[i][j]
			if av <= 0 || bv <= 0 {
				continue
			}
			lr := math.Log10(av / bv)
			logSum += math.Abs(lr)
			n++
			cells = append(cells, cell{
				name: fmt.Sprintf("%v/%v", a.Events[i], a.Events[j]),
				av:   av, bv: bv, logRatio: lr,
			})
		}
	}
	if n == 0 {
		return fmt.Errorf("no comparable cells")
	}
	fmt.Printf("A: %s\nB: %s\n", aName, bName)
	fmt.Printf("cells compared:        %d\n", n)
	fmt.Printf("Spearman rank corr:    %.3f\n", rho)
	fmt.Printf("typical cell ratio:    %.2fx\n", math.Pow(10, logSum/float64(n)))

	sort.Slice(cells, func(x, y int) bool {
		return math.Abs(cells[x].logRatio) > math.Abs(cells[y].logRatio)
	})
	if *top > len(cells) {
		*top = len(cells)
	}
	fmt.Printf("\nlargest deviations (A vs B, zJ):\n")
	for _, c := range cells[:*top] {
		fmt.Printf("  %-10s %8.2f vs %8.2f  (%+.2fx)\n",
			c.name, c.av*1e21, c.bv*1e21, math.Pow(10, c.logRatio))
	}
	return nil
}

// measureLive runs a full matrix campaign on the configured machine.
func measureLive(cf *cliconf.Flags) (*savat.Matrix, error) {
	spec, err := cf.CampaignSpec()
	if err != nil {
		return nil, err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts savat.CampaignOptions
	ch := make(chan engine.ProgressEvent, 64)
	opts.Monitor = ch
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		progress := cliconf.NewProgress(os.Stderr)
		for ev := range ch {
			progress.Printf(ev.Stats.Done == ev.Stats.Total, "measuring %s: %d/%d cells",
				spec.Machine, ev.Stats.Done, ev.Stats.Total)
		}
		progress.End()
	}()
	res, err := savat.RunSpecContext(ctx, spec, opts)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return res.Mean, nil
}

func load(path string) (*savat.Matrix, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return report.ParseCSV(string(data))
}
