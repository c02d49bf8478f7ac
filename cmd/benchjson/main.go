// Command benchjson turns `go test -bench` output into a
// machine-readable JSON snapshot, so benchmark trajectories can be
// tracked across commits with ordinary tooling instead of eyeballing
// test output.
//
//	go test -run '^$' -bench . -benchtime=2x -count=3 ./... > bench.out
//	benchjson -out BENCH_20260806.json < bench.out
//
// Every reported metric is captured — ns/op, B/op, allocs/op, and the
// custom b.ReportMetric units the figure benchmarks emit (cell-ratio,
// spearman, diag-violations, ...). Result lines are aggregated per
// benchmark: with -count > 1 each metric is recorded as its cross-run
// mean plus an unbiased sample variance, so a snapshot says how noisy
// its numbers are. Next to the cpu, goos and goarch of the benchmark
// header, the snapshot records the Go version, GOMAXPROCS and DSP
// kernel of the environment benchjson runs in — run it where the
// benchmarks ran. `make bench-json` wraps the whole flow and names
// the file BENCH_<YYYYMMDD>.json. The snapshots feed cmd/benchguard,
// which fails a run that regresses past a baseline.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/dsp"
)

func main() {
	out := flag.String("out", "", "output file (default BENCH_<YYYYMMDD>.json)")
	date := flag.String("date", time.Now().Format("20060102"), "snapshot date stamp (YYYYMMDD)")
	flag.Parse()
	if err := run(*out, *date); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, date string) error {
	f, err := benchfmt.Parse(os.Stdin)
	if err != nil {
		return err
	}
	if len(f.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines on stdin (pipe `go test -bench` output in)")
	}
	// -count runs produce one line per run; record each benchmark once,
	// as its mean plus cross-run variance, so the snapshot carries noise
	// information instead of a single arbitrary sample.
	f.Aggregate()
	f.Stamp(dsp.ActiveKernel())
	f.Date = date
	if out == "" {
		out = "BENCH_" + date + ".json"
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(f.Benchmarks), out)
	return nil
}
