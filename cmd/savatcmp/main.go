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
	"io"
	"math"
	"os"
	"os/signal"
	"sort"

	"repro/internal/cliconf"
	"repro/internal/conform"
	"repro/internal/engine"
	"repro/internal/report"
	"repro/internal/savat"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "savatcmp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var (
		cf  = cliconf.Register(fs, cliconf.All|cliconf.Spec)
		top = fs.Int("top", 10, "how many largest deviations to list")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 inside Parse
	if *top < 0 {
		return fmt.Errorf("-top must not be negative, got %d", *top)
	}

	// -emit-spec serializes the live-measurement campaign instead of
	// running a comparison; -spec drives the live side from a file.
	if emitted, err := cf.WriteEmittedSpec(); emitted || err != nil {
		return err
	}

	var a, b *savat.Matrix
	var aName, bName string
	switch fs.NArg() {
	case 2:
		var err error
		if a, err = load(fs.Arg(0)); err != nil {
			return err
		}
		if b, err = load(fs.Arg(1)); err != nil {
			return err
		}
		aName, bName = fs.Arg(0), fs.Arg(1)
	case 1:
		var err error
		if b, err = load(fs.Arg(0)); err != nil {
			return err
		}
		if a, err = measureLive(cf); err != nil {
			return err
		}
		spec, err := cf.CampaignSpec()
		if err != nil {
			return err
		}
		aName, bName = "live "+spec.Machine, fs.Arg(0)
	default:
		return fmt.Errorf("usage: savatcmp [flags] a.csv b.csv  |  savatcmp [flags] baseline.csv")
	}

	g, err := conform.CompareMatrices(a, b)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "A: %s\nB: %s\n", aName, bName)
	fmt.Fprintf(stdout, "cells compared:        %d\n", len(g.Cells))
	fmt.Fprintf(stdout, "Spearman rank corr:    %.3f\n", g.Spearman)
	fmt.Fprintf(stdout, "typical cell ratio:    %.2fx\n", g.TypicalRatio())

	cells := g.Cells
	sort.Slice(cells, func(x, y int) bool {
		return math.Abs(cells[x].Log10) > math.Abs(cells[y].Log10)
	})
	fmt.Fprintf(stdout, "\nlargest deviations (A vs B, zJ):\n")
	for _, c := range cells[:min(*top, len(cells))] {
		fmt.Fprintf(stdout, "  %-10s %8.2f vs %8.2f  (%+.2fx)\n",
			fmt.Sprintf("%v/%v", c.Row, c.Col), c.A*1e21, c.B*1e21, math.Pow(10, c.Log10))
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

	progress := cliconf.NewProgress(os.Stderr)
	monitor := func(ev engine.ProgressEvent) {
		progress.Printf(ev.Stats.Done == ev.Stats.Total, "measuring %s: %d/%d cells",
			spec.Machine, ev.Stats.Done, ev.Stats.Total)
	}
	res, err := savat.RunSpecContext(ctx, spec, engine.Options{Monitor: monitor})
	progress.End()
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
