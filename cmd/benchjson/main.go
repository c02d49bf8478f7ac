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
// benchmarks ran — and the git revision benchjson was built from
// (built with -buildvcs=true, as `go run -buildvcs=true` does; a
// "-dirty" suffix marks uncommitted changes). `make bench-json` wraps
// the whole flow and names the file BENCH_<YYYYMMDD>.json, or
// BENCH_<YYYYMMDD>-2.json, -3, … when that date already has one:
// benchjson never overwrites a snapshot. The snapshots feed
// cmd/benchguard, which fails a run that regresses past a baseline.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"runtime/debug"
	"time"

	"repro/internal/benchfmt"
	"repro/internal/dsp"
)

func main() {
	out := flag.String("out", "", "output file, which must not exist (default: the first free BENCH_<YYYYMMDD>[-N].json)")
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
	if bi, ok := debug.ReadBuildInfo(); ok {
		f.Revision = revision(bi.Settings)
	}
	f.Date = date
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if out, err = create(out, date, append(data, '\n')); err != nil {
		return err
	}
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(f.Benchmarks), out)
	return nil
}

// revision returns the git revision in a binary's build settings, with
// "-dirty" when the tree had uncommitted changes, or "" when the build
// recorded none.
func revision(settings []debug.BuildSetting) string {
	var rev string
	dirty := false
	for _, s := range settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" && dirty {
		rev += "-dirty"
	}
	return rev
}

// create writes data to a new file and returns its name: out, or when
// out is empty the first of BENCH_<date>.json, BENCH_<date>-2.json, …
// that does not exist. It never replaces an existing file.
func create(out, date string, data []byte) (string, error) {
	names := func(i int) string {
		if out != "" {
			return out
		}
		if i == 1 {
			return "BENCH_" + date + ".json"
		}
		return fmt.Sprintf("BENCH_%s-%d.json", date, i)
	}
	for i := 1; ; i++ {
		name := names(i)
		f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) && out == "" {
			continue
		}
		if err != nil {
			return "", err
		}
		if _, err := f.Write(data); err != nil {
			f.Close()
			return "", err
		}
		return name, f.Close()
	}
}
