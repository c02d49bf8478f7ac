// Package benchfmt parses `go test -bench` text output into the
// machine-readable snapshot shape shared by cmd/benchjson (which
// records baselines) and cmd/benchguard (which compares runs against
// them).
package benchfmt

import (
	"bufio"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
)

// Bench is one benchmark result: a single `go test -bench` output line,
// or — after Aggregate — the summary of every line one benchmark
// produced across `-count` runs.
type Bench struct {
	Name       string             `json:"name"`
	Package    string             `json:"package,omitempty"`
	Iterations int64              `json:"iterations"` // total b.N across samples
	Metrics    map[string]float64 `json:"metrics"`    // per-metric mean across samples

	// Samples is how many result lines were aggregated into this entry
	// (1 before Aggregate, or for a benchmark run once). Variance holds
	// the per-metric unbiased sample variance across those lines —
	// present only when Samples > 1, so a snapshot records how noisy
	// each number is instead of pretending a single sample is exact.
	Samples  int                `json:"samples,omitempty"`
	Variance map[string]float64 `json:"variance,omitempty"`
}

// File is the snapshot written to (and read back from) disk. GOOS,
// GOARCH and CPU come from the `go test -bench` header; GoVersion,
// GOMAXPROCS and DSPKernel from Stamp. Together they describe the
// machine the numbers belong to; Revision names the code.
type File struct {
	Date       string  `json:"date"` // YYYYMMDD
	GOOS       string  `json:"goos,omitempty"`
	GOARCH     string  `json:"goarch,omitempty"`
	CPU        string  `json:"cpu,omitempty"`
	GoVersion  string  `json:"go_version,omitempty"`
	GOMAXPROCS int     `json:"gomaxprocs,omitempty"`
	DSPKernel  string  `json:"dsp_kernel,omitempty"`
	Revision   string  `json:"revision,omitempty"` // git revision, "-dirty" when the tree had changes
	Benchmarks []Bench `json:"benchmarks"`
}

// Stamp records the machine fields the benchmark output does not
// carry: this process's Go version and GOMAXPROCS, and the name of the
// DSP butterfly kernel in use. Call it from a process started in the
// environment the benchmarks ran in.
func (f *File) Stamp(dspKernel string) {
	f.GoVersion = runtime.Version()
	f.GOMAXPROCS = runtime.GOMAXPROCS(0)
	f.DSPKernel = dspKernel
}

// MachineDiff lists the machine fields on which the baseline f and the
// run differ, each as "field baseline→run". A field the baseline does
// not record counts as different unless the run lacks it too: the
// baseline's numbers may come from anywhere.
func (f *File) MachineDiff(run *File) []string {
	var diff []string
	for _, fd := range []struct{ name, base, run string }{
		{"goos", f.GOOS, run.GOOS},
		{"goarch", f.GOARCH, run.GOARCH},
		{"cpu", f.CPU, run.CPU},
		{"go", f.GoVersion, run.GoVersion},
		{"gomaxprocs", fmt.Sprint(f.GOMAXPROCS), fmt.Sprint(run.GOMAXPROCS)},
		{"dsp_kernel", f.DSPKernel, run.DSPKernel},
	} {
		if fd.base != fd.run {
			if fd.base == "" || fd.base == "0" {
				fd.base = "unrecorded"
			}
			diff = append(diff, fmt.Sprintf("%s %q→%q", fd.name, fd.base, fd.run))
		}
	}
	return diff
}

// Aggregate merges result lines that share a (package, name) — the
// shape `go test -bench -count=N` produces — into one Bench per
// benchmark: Metrics become per-metric means, Variance the unbiased
// sample variances (when more than one sample exists), Iterations the
// total b.N, and Samples the line count. First-seen order is kept, and
// means survive re-aggregation unchanged.
func (f *File) Aggregate() {
	type group struct {
		bench   Bench
		sums    map[string]float64 // Σv per metric
		sumsq   map[string]float64 // Σv² per metric
		counts  map[string]int     // lines carrying the metric
		samples int
	}
	var order []string
	groups := map[string]*group{}
	for _, b := range f.Benchmarks {
		id := b.Package + "\x00" + b.Name
		g, ok := groups[id]
		if !ok {
			g = &group{
				bench: Bench{Name: b.Name, Package: b.Package},
				sums:  map[string]float64{}, sumsq: map[string]float64{}, counts: map[string]int{},
			}
			groups[id] = g
			order = append(order, id)
		}
		g.bench.Iterations += b.Iterations
		g.samples++
		for unit, v := range b.Metrics {
			g.sums[unit] += v
			g.sumsq[unit] += v * v
			g.counts[unit]++
		}
	}
	agg := make([]Bench, 0, len(order))
	for _, id := range order {
		g := groups[id]
		g.bench.Samples = g.samples
		g.bench.Metrics = make(map[string]float64, len(g.sums))
		for unit, sum := range g.sums {
			n := float64(g.counts[unit])
			mean := sum / n
			g.bench.Metrics[unit] = mean
			if g.counts[unit] > 1 {
				// Unbiased sample variance; clamp the tiny negative values
				// the Σv²−n·mean² form produces for identical samples.
				v := (g.sumsq[unit] - n*mean*mean) / (n - 1)
				if v < 0 {
					v = 0
				}
				if g.bench.Variance == nil {
					g.bench.Variance = map[string]float64{}
				}
				g.bench.Variance[unit] = v
			}
		}
		agg = append(agg, g.bench)
	}
	f.Benchmarks = agg
}

// Find returns the benchmark named name: an exact match if there is
// one, otherwise the first whose name equals name once both have their
// GOMAXPROCS suffix stripped (see baseName) — so a run on an N-core
// machine finds its row in a baseline recorded at another core count.
func (f *File) Find(name string) (Bench, bool) {
	for _, b := range f.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	base := baseName(name)
	for _, b := range f.Benchmarks {
		if baseName(b.Name) == base {
			return b, true
		}
	}
	return Bench{}, false
}

// baseName strips the "-N" suffix `go test` appends to a benchmark's
// name when GOMAXPROCS is N ≠ 1 ("BenchmarkX-2" → "BenchmarkX"). A name
// without a numeric suffix is returned unchanged.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

// Parse reads `go test -bench` output and collects every benchmark
// line, tracking the `pkg:` header lines so each result carries its
// package.
func Parse(r io.Reader) (*File, error) {
	f := &File{}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			f.GOOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			f.GOARCH = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			f.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, err := ParseLine(line)
			if err != nil {
				return nil, err
			}
			b.Package = pkg
			f.Benchmarks = append(f.Benchmarks, b)
		}
	}
	return f, sc.Err()
}

// ParseLine splits one result line — name, iteration count, then
// (value, unit) pairs.
func ParseLine(line string) (Bench, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Bench{}, fmt.Errorf("benchfmt: malformed benchmark line %q", line)
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Bench{}, fmt.Errorf("benchfmt: iteration count in %q: %w", line, err)
	}
	b := Bench{Name: fields[0], Iterations: iters, Metrics: make(map[string]float64)}
	for i := 2; i < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Bench{}, fmt.Errorf("benchfmt: metric value in %q: %w", line, err)
		}
		b.Metrics[fields[i+1]] = v
	}
	return b, nil
}
