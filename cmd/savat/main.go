// Command savat measures pairwise SAVAT on a simulated case-study system.
//
// One pair:
//
//	savat -machine Core2Duo -pair ADD/LDM -repeats 10
//
// Full 11×11 matrix (Figure 9 style):
//
//	savat -machine Core2Duo -distance 0.10 -matrix -format table
//	savat -machine Pentium3M -matrix -format heatmap
//	savat -machine TurionX2 -matrix -format csv > turion.csv
//
// Long campaigns are resumable: -cache-dir persists every finished cell,
// so a re-run with the same flags and directory continues where the
// previous one (or a Ctrl-C) left off.
//
// Campaigns serialize: -emit-spec writes the savat.CampaignSpec the
// flags describe (the same JSON the savatd service accepts), and -spec
// runs a previously saved one:
//
//	savat -machine TurionX2 -distance 0.5 -emit-spec turion.json
//	savat -spec turion.json -matrix
//
// Side channels and countermeasures: -channel selects the measured
// channel (em, power, impedance), and repeatable -countermeasure flags
// build a protection chain. With a chain and no -pair/-matrix, savat
// runs the matched campaign pair (with and without the chain) and
// prints the countermeasure-effectiveness report:
//
//	savat -fast -repeats 2 -channel power -countermeasure noop-insert:0.1
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cliconf"
	"repro/internal/engine"
	"repro/internal/paperdata"
	"repro/internal/report"
	"repro/internal/savat"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "savat:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		cf         = cliconf.Register(flag.CommandLine, cliconf.All|cliconf.Spec|cliconf.CacheDir|cliconf.Countermeasure)
		pair       = flag.String("pair", "", "single pair to measure, e.g. ADD/LDM")
		matrix     = flag.Bool("matrix", false, "measure the full 11×11 matrix")
		format     = flag.String("format", "table", "matrix output: table, heatmap, csv, bars, stats")
		dumpKernel = flag.Bool("kernel", false, "with -pair: print the generated alternation kernel instead of measuring")
	)
	flag.Parse()

	// -emit-spec serializes the campaign instead of running it.
	if emitted, err := cf.WriteEmittedSpec(); emitted || err != nil {
		return err
	}

	stopProf, err := cf.StartProfiles()
	if err != nil {
		return err
	}
	defer stopProf()

	// With -metrics-addr set, /progress serves the latest campaign event
	// (stats + health) cached by the monitor goroutine below.
	var lastEvent atomic.Value // engine.ProgressEvent
	stopObs, err := cf.StartObs(func() any { return lastEvent.Load() })
	if err != nil {
		return err
	}
	defer stopObs()

	// The spec — from the -spec file or implied by the setup flags — is
	// the single campaign description; everything below reads it.
	spec, err := cf.CampaignSpec()
	if err != nil {
		return err
	}
	mc, err := spec.MachineConfig()
	if err != nil {
		return err
	}
	cfg := spec.Config

	switch {
	case *pair != "" && *dumpKernel:
		a, b, err := parsePair(*pair)
		if err != nil {
			return err
		}
		// The kernel -pair measures: with the chain's program
		// countermeasures applied under the pair's campaign seed.
		k, err := savat.NewMeasurer(mc, cfg).Kernel(context.Background(), a, b, savat.CounterSeed(spec.Seed, a, b))
		if err != nil {
			return err
		}
		fmt.Printf("; %s %v/%v alternation kernel (Figure 4 structure)\n", mc.Name, a, b)
		fmt.Printf("; inst_loop_count = %d for %.0f kHz intended alternation\n", k.LoopCount, cfg.Frequency/1e3)
		fmt.Printf("; sweep arrays: A %s, B %s\n", arrayDesc(k.ArrayBytes[0]), arrayDesc(k.ArrayBytes[1]))
		for i, in := range k.Program {
			marker := ""
			if id, ok := k.PhaseAt[i]; ok {
				marker = fmt.Sprintf("   ; <- phase %c begins", 'A'+byte(id))
			}
			fmt.Printf("%4d: %s%s\n", i, in, marker)
		}
		return nil

	case *pair != "":
		a, b, err := parsePair(*pair)
		if err != nil {
			return err
		}
		vals, sum, err := savat.NewMeasurer(mc, cfg).MeasurePair(a, b, spec.Repeats, spec.Seed)
		if err != nil {
			return err
		}
		fmt.Printf("%s %v/%v at %.2f m, %.0f kHz intended alternation\n",
			mc.Name, a, b, cfg.Distance, cfg.Frequency/1e3)
		for i, v := range vals {
			fmt.Printf("  campaign %2d: %7.2f zJ\n", i+1, v*1e21)
		}
		fmt.Printf("  SAVAT = %.2f ± %.2f zJ (σ/mean = %.3f)\n",
			sum.Mean*1e21, sum.StdDev*1e21, sum.RelStdDev())
		return nil

	case *matrix:
		// Ctrl-C cancels the campaign; with -cache-dir the finished cells
		// are persisted and the next identical run resumes from them.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()

		var opts savat.CampaignOptions
		// The closer flushes a store-backed cache's write-behind buffer,
		// so even a Ctrl-C'd campaign keeps every measured cell.
		cache, closeCache, err := cf.OpenCache()
		if err != nil {
			return err
		}
		defer closeCache()
		opts.Cache = cache
		ch := make(chan engine.ProgressEvent, 64)
		opts.Monitor = ch
		var last engine.Stats
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			progress := cliconf.NewProgress(os.Stderr)
			for ev := range ch {
				last = ev.Stats
				lastEvent.Store(ev)
				progress.Printf(ev.Stats.Done == ev.Stats.Total, "measuring %d/%d cells (%d cached)",
					ev.Stats.Done, ev.Stats.Total, ev.Stats.Cached)
			}
			progress.End()
		}()
		res, err := savat.RunSpecContext(ctx, spec, opts)
		wg.Wait()
		if err != nil {
			if ctx.Err() != nil {
				if cf.CacheDir != "" {
					fmt.Fprintf(os.Stderr, "interrupted at %d/%d cells; finished cells kept in %s — rerun to resume\n",
						last.Done, last.Total, cf.CacheDir)
				} else {
					fmt.Fprintf(os.Stderr, "interrupted at %d/%d cells; rerun with -cache-dir to make the campaign resumable\n",
						last.Done, last.Total)
				}
			}
			return err
		}
		fmt.Fprintf(os.Stderr, "engine: %d cells (%d cached, %d computed, %d retries) in %s (%.1f cells/s)\n",
			res.Engine.Done, res.Engine.Cached, res.Engine.Computed, res.Engine.Retries,
			res.Engine.Elapsed.Round(1e7), res.Engine.CellsPerSecond())
		switch *format {
		case "table":
			fmt.Printf("%s at %.2f m — SAVAT in zJ (mean of %d campaigns)\n", res.Machine, res.Distance, spec.Repeats)
			fmt.Print(report.MatrixTable(res.Mean))
		case "heatmap":
			fmt.Print(report.Heatmap(res.Mean))
		case "csv":
			fmt.Print(report.CSV(res.Mean))
		case "bars":
			out, err := report.SelectedPairsChart(
				fmt.Sprintf("%s at %.2f m — selected pairings (zJ)", res.Machine, res.Distance),
				res.Mean, paperdata.SelectedPairs)
			if err != nil {
				return err
			}
			fmt.Print(out)
		case "stats":
			fmt.Print(report.MatrixTableWithStats(res))
			fmt.Printf("mean σ/mean over all cells: %.3f (paper: ≈0.05)\n", res.MeanRelStdDev())
		default:
			return fmt.Errorf("unknown format %q", *format)
		}
		return nil

	case len(spec.Config.Countermeasures) > 0:
		// Countermeasure report: the matched campaign pair — the spec as
		// given and the spec with its chain stripped — scored as per-cell
		// SAVAT attenuation and matrix-level distinguishability loss.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		var opts savat.CampaignOptions
		cache, closeCache, err := cf.OpenCache()
		if err != nil {
			return err
		}
		defer closeCache()
		opts.Cache = cache
		rep, err := savat.RunCountermeasureReport(ctx, spec, opts)
		if err != nil {
			return err
		}
		return rep.WriteTable(os.Stdout)
	}
	return fmt.Errorf("nothing to do: pass -pair A/B, -matrix, or -countermeasure (see -help)")
}

func arrayDesc(bytes int) string {
	if bytes == 0 {
		return "none (non-memory event)"
	}
	return fmt.Sprintf("%d KiB", bytes>>10)
}

func parsePair(s string) (savat.Event, savat.Event, error) {
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("pair %q must be A/B, e.g. ADD/LDM", s)
	}
	a, err := savat.EventByName(parts[0])
	if err != nil {
		return 0, 0, err
	}
	b, err := savat.EventByName(parts[1])
	if err != nil {
		return 0, 0, err
	}
	return a, b, nil
}
