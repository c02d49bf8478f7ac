// Command benchguard compares a `go test -bench` run on stdin against a
// recorded benchjson baseline and fails when a benchmark's ns/op
// regresses past its budget, so performance contracts — like the
// measurement pipeline's "disabled observability costs under 1%" — are
// enforced by CI instead of by eyeballing.
//
//	go test -run '^$' -bench MeasureKernelScratch -benchtime 20x . > bench.out
//	benchguard -baseline BENCH_20260806.json -only MeasureKernelScratch < bench.out
//
// A current value passes while
//
//	current <= baseline * (1 + budget + noise)
//
// -budget is the performance budget under guard (default 1%); -noise is
// extra multiplicative slack for run-to-run and machine-to-machine
// variance (CI runners are not the machine that recorded the baseline).
// Benchmarks missing from the baseline are reported and skipped; a run
// in which -only matches nothing fails, so a renamed benchmark cannot
// silently disarm the guard.
//
// -zeroalloc takes a second regexp of benchmarks that must report
// exactly 0 allocs/op in the current run. Allocation counts are
// deterministic, so no baseline or slack is involved; a matching
// benchmark that reports no allocs/op metric at all fails too, so
// dropping b.ReportAllocs() cannot disarm the assertion. This is how
// the "disabled observability sites allocate nothing" contract is
// enforced against harness artifacts as well as real regressions.
//
// Guarded benchmarks that report the fidelity metrics spearman or
// diag-violations are also held to their baseline values without
// slack: spearman may not fall, diag-violations may not rise.
//
// Current results match baseline rows after the "-N" GOMAXPROCS suffix
// is stripped from both names, so a run on an N-core machine is guarded
// against a baseline recorded at another core count.
//
// A ns/op ratio compares machines as well as code, so benchguard prints
// a WARNING line naming every machine field — goos, goarch, cpu, Go
// version, GOMAXPROCS, DSP kernel — on which the baseline differs from
// the run (or does not record it). The run's Go version, GOMAXPROCS and
// kernel are benchguard's own, so run it where the benchmarks ran. The
// warning does not change the verdict.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/dsp"
)

// fidelityChecks are the paper-fidelity metrics a guarded benchmark
// may report (the figure benchmarks do). They are deterministic — zero
// variance across runs — so they get no budget or noise slack: the
// rank correlation with the paper may not fall and the count of
// structural-claim violations may not rise.
var fidelityChecks = []struct {
	unit           string
	higherIsBetter bool
	rule           string
}{
	{"spearman", true, "must not fall"},
	{"diag-violations", false, "must not rise"},
}

// fidelityTol absorbs only the rounding of a cross-run mean of
// identical samples (the baselines store 0.9439 as 0.9438999999999999).
const fidelityTol = 1e-9

func main() {
	var (
		baseline  = flag.String("baseline", "", "benchjson snapshot to compare against (required)")
		budget    = flag.Float64("budget", 0.01, "allowed fractional ns/op regression past the baseline")
		noise     = flag.Float64("noise", 0.25, "extra fractional slack for run and machine variance")
		only      = flag.String("only", "", "regexp restricting which benchmarks are guarded (default all)")
		zeroalloc = flag.String("zeroalloc", "", "regexp of benchmarks that must report 0 allocs/op")
	)
	flag.Parse()
	if err := run(os.Stdin, os.Stdout, *baseline, *budget, *noise, *only, *zeroalloc); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func run(in io.Reader, out io.Writer, baseline string, budget, noise float64, only, zeroalloc string) error {
	if baseline == "" {
		return fmt.Errorf("-baseline is required")
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var base benchfmt.File
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", baseline, err)
	}
	cur, err := benchfmt.Parse(in)
	if err != nil {
		return err
	}
	// A -count run yields one line per repetition; guard the mean, like
	// the baselines record it.
	cur.Aggregate()
	cur.Stamp(dsp.ActiveKernel())
	var keep, mustZero *regexp.Regexp
	if only != "" {
		if keep, err = regexp.Compile(only); err != nil {
			return fmt.Errorf("-only: %w", err)
		}
	}
	if zeroalloc != "" {
		if mustZero, err = regexp.Compile(zeroalloc); err != nil {
			return fmt.Errorf("-zeroalloc: %w", err)
		}
	}

	limitFactor := 1 + budget + noise
	compared, failed := 0, 0
	fmt.Fprintf(out, "benchguard: baseline %s (%s), limit = baseline × %.3f\n", baseline, base.Date, limitFactor)
	if diff := base.MachineDiff(cur); len(diff) > 0 {
		fmt.Fprintf(out, "benchguard: WARNING: baseline machine differs from this run (%s); ns/op ratios compare machines as well as code\n",
			strings.Join(diff, ", "))
	}
	for _, b := range cur.Benchmarks {
		if mustZero != nil && mustZero.MatchString(b.Name) {
			compared++
			allocs, ok := b.Metrics["allocs/op"]
			switch {
			case !ok:
				failed++
				fmt.Fprintf(out, "  FAIL %-45s reports no allocs/op (missing b.ReportAllocs?)\n", b.Name)
			case allocs != 0:
				failed++
				fmt.Fprintf(out, "  FAIL %-45s %12.0f allocs/op, want 0\n", b.Name, allocs)
			default:
				fmt.Fprintf(out, "  ok   %-45s %12.0f allocs/op\n", b.Name, allocs)
			}
		}
		if keep != nil && !keep.MatchString(b.Name) {
			continue
		}
		ref, ok := base.Find(b.Name)
		if !ok {
			fmt.Fprintf(out, "  SKIP %-45s not in baseline (record a new snapshot)\n", b.Name)
			continue
		}
		for _, fc := range fidelityChecks {
			curV, okCur := b.Metrics[fc.unit]
			baseV, okBase := ref.Metrics[fc.unit]
			if !okCur || !okBase {
				continue
			}
			compared++
			worse := curV > baseV+fidelityTol
			if fc.higherIsBetter {
				worse = curV < baseV-fidelityTol
			}
			verdict := "ok"
			if worse {
				verdict = "FAIL"
				failed++
			}
			fmt.Fprintf(out, "  %-4s %-45s %12.4g %s vs %12.4g baseline (%s)\n",
				verdict, b.Name, curV, fc.unit, baseV, fc.rule)
		}
		curNS, ok := b.Metrics["ns/op"]
		if !ok {
			continue
		}
		baseNS := ref.Metrics["ns/op"]
		if baseNS <= 0 {
			fmt.Fprintf(out, "  SKIP %-45s baseline has no ns/op\n", b.Name)
			continue
		}
		compared++
		limit := baseNS * limitFactor
		verdict := "ok"
		if curNS > limit {
			verdict = "FAIL"
			failed++
		}
		fmt.Fprintf(out, "  %-4s %-45s %12.0f ns/op vs %12.0f ns/op baseline (%.3fx, limit %.3fx)\n",
			verdict, b.Name, curNS, baseNS, curNS/baseNS, limitFactor)
	}
	if compared == 0 {
		return fmt.Errorf("no benchmark on stdin matched the baseline (only=%q) — nothing was guarded", only)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d guarded benchmarks regressed past budget %.1f%% (+%.0f%% noise slack)",
			failed, compared, budget*100, noise*100)
	}
	fmt.Fprintf(out, "benchguard: %d benchmarks within budget\n", compared)
	return nil
}
