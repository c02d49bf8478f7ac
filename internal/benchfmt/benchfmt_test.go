package benchfmt

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkFig09MatrixCore2Duo10cm 	       1	 965362736 ns/op	         1.237 cell-ratio	         5.000 diag-violations	         0.9424 spearman
BenchmarkNaiveVsAlternation-4 	      12	  91234567 ns/op	     123 B/op	       2 allocs/op
PASS
ok  	repro	3.059s
pkg: repro/internal/dsp
BenchmarkWelch 	     100	   1234567 ns/op
`

func TestParse(t *testing.T) {
	f, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f.GOOS != "linux" || f.GOARCH != "amd64" || !strings.Contains(f.CPU, "Xeon") {
		t.Errorf("header = %q/%q/%q", f.GOOS, f.GOARCH, f.CPU)
	}
	if len(f.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(f.Benchmarks))
	}
	fig := f.Benchmarks[0]
	if fig.Name != "BenchmarkFig09MatrixCore2Duo10cm" || fig.Package != "repro" || fig.Iterations != 1 {
		t.Errorf("fig09 = %+v", fig)
	}
	for unit, want := range map[string]float64{
		"ns/op": 965362736, "cell-ratio": 1.237, "diag-violations": 5, "spearman": 0.9424,
	} {
		if got := fig.Metrics[unit]; got != want {
			t.Errorf("fig09 %s = %g, want %g", unit, got, want)
		}
	}
	if got := f.Benchmarks[1].Metrics["allocs/op"]; got != 2 {
		t.Errorf("allocs/op = %g, want 2", got)
	}
	if f.Benchmarks[2].Package != "repro/internal/dsp" {
		t.Errorf("third package = %q", f.Benchmarks[2].Package)
	}

	if _, ok := f.Find("BenchmarkWelch"); !ok {
		t.Error("Find missed BenchmarkWelch")
	}
	if _, ok := f.Find("BenchmarkNope"); ok {
		t.Error("Find invented BenchmarkNope")
	}
}

// Aggregate must fold -count repetitions of one benchmark into a
// single entry carrying the cross-run mean and sample variance, keep
// same-named benchmarks from different packages apart, and leave
// single-sample files unchanged (no variance field).
func TestAggregate(t *testing.T) {
	const counted = `pkg: repro
BenchmarkHot 	       2	 100 ns/op	       0 allocs/op
BenchmarkHot 	       2	 140 ns/op	       0 allocs/op
BenchmarkHot 	       2	 120 ns/op	       0 allocs/op
BenchmarkCold 	       1	 7 ns/op
pkg: repro/internal/dsp
BenchmarkHot 	       4	 50 ns/op
`
	f, err := Parse(strings.NewReader(counted))
	if err != nil {
		t.Fatal(err)
	}
	f.Aggregate()
	if len(f.Benchmarks) != 3 {
		t.Fatalf("aggregated to %d entries, want 3: %+v", len(f.Benchmarks), f.Benchmarks)
	}
	hot := f.Benchmarks[0]
	if hot.Name != "BenchmarkHot" || hot.Package != "repro" {
		t.Fatalf("first entry = %+v", hot)
	}
	if hot.Samples != 3 || hot.Iterations != 6 {
		t.Errorf("hot samples/iterations = %d/%d, want 3/6", hot.Samples, hot.Iterations)
	}
	if got := hot.Metrics["ns/op"]; got != 120 {
		t.Errorf("hot mean ns/op = %g, want 120", got)
	}
	if got := hot.Variance["ns/op"]; got != 400 { // ((20²+0²+20²)/2)
		t.Errorf("hot ns/op variance = %g, want 400", got)
	}
	if got := hot.Variance["allocs/op"]; got != 0 {
		t.Errorf("hot allocs/op variance = %g, want 0", got)
	}
	cold := f.Benchmarks[1]
	if cold.Samples != 1 || cold.Variance != nil {
		t.Errorf("cold = %+v: single sample must carry no variance", cold)
	}
	if dspHot := f.Benchmarks[2]; dspHot.Package != "repro/internal/dsp" || dspHot.Metrics["ns/op"] != 50 {
		t.Errorf("per-package split lost: %+v", dspHot)
	}

	// Idempotent: aggregating the aggregate changes nothing.
	before := fmt.Sprintf("%+v", f.Benchmarks)
	f.Aggregate()
	// Samples stays, variance is dropped (one sample per entry now), but
	// means and order must hold.
	if len(f.Benchmarks) != 3 || f.Benchmarks[0].Metrics["ns/op"] != 120 {
		t.Errorf("re-aggregation changed results:\nbefore %s\nafter  %+v", before, f.Benchmarks)
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"BenchmarkX 1 12 ns/op extra",  // odd metric fields
		"BenchmarkX notanint 12 ns/op", // bad iteration count
		"BenchmarkX 1 twelve ns/op",    // bad metric value
	} {
		if _, err := Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("accepted malformed line %q", bad)
		}
	}
}

func TestFindStripsGOMAXPROCSSuffix(t *testing.T) {
	f := &File{Benchmarks: []Bench{
		{Name: "BenchmarkMeasureKernelScratch"},
		{Name: "BenchmarkPlanFor/new-plan"},
		{Name: "BenchmarkFFT/n-1024-4"},
	}}
	for _, c := range []struct{ query, want string }{
		{"BenchmarkMeasureKernelScratch-2", "BenchmarkMeasureKernelScratch"},
		{"BenchmarkMeasureKernelScratch", "BenchmarkMeasureKernelScratch"},
		{"BenchmarkPlanFor/new-plan-8", "BenchmarkPlanFor/new-plan"},
		{"BenchmarkFFT/n-1024-2", "BenchmarkFFT/n-1024-4"},
	} {
		b, ok := f.Find(c.query)
		if !ok || b.Name != c.want {
			t.Errorf("Find(%q) = %q, %v; want %q", c.query, b.Name, ok, c.want)
		}
	}
	if b, ok := f.Find("BenchmarkMeasureKernelScratchObsOn-2"); ok {
		t.Errorf("Find matched a different benchmark: %q", b.Name)
	}
	for name, want := range map[string]string{
		"BenchmarkX-16": "BenchmarkX", "BenchmarkX": "BenchmarkX",
		"BenchmarkX-": "BenchmarkX-", "BenchmarkPlanFor/new-plan": "BenchmarkPlanFor/new-plan",
	} {
		if got := baseName(name); got != want {
			t.Errorf("baseName(%q) = %q, want %q", name, got, want)
		}
	}
}

// A baseline recorded on the run's machine differs in nothing; each
// other field — or one the baseline never recorded — is named.
func TestMachineDiff(t *testing.T) {
	run := &File{GOOS: "linux", GOARCH: "amd64", CPU: "Xeon"}
	run.Stamp("avx2")
	same := *run
	if d := same.MachineDiff(run); len(d) != 0 {
		t.Errorf("same machine: diff %v", d)
	}
	other := *run
	other.CPU, other.GOMAXPROCS = "EPYC", run.GOMAXPROCS+1
	other.GoVersion = ""
	d := other.MachineDiff(run)
	got := strings.Join(d, "; ")
	for _, want := range []string{`cpu "EPYC"→"Xeon"`, `gomaxprocs`, `go "unrecorded"→"` + runtime.Version() + `"`} {
		if !strings.Contains(got, want) {
			t.Errorf("diff %q lacks %q", got, want)
		}
	}
	if len(d) != 3 {
		t.Errorf("diff has %d fields, want 3: %v", len(d), d)
	}
}
