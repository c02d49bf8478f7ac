package conform

import "testing"

// TestCacheDifferentialSweep sweeps randomized measurement specs
// through warm-cache row-mate cells and requires bit-exact agreement
// with cold-cache runs — a synthesis-product cache hit must be
// indistinguishable, to the last spectrum bin, from the computation it
// replaced.
func TestCacheDifferentialSweep(t *testing.T) {
	n := 12
	if testing.Short() {
		n = 4
	}
	specs := GenDiffSpecs(23, n)
	rep, err := RunCacheDifferential(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range rep.Failures() {
		t.Error(c.String())
	}
	t.Logf("%d specs, %d bit-exactness checks", n, len(rep.Checks))
}
