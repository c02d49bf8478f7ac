package savat

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkSimulateFig9Pairs is the simulator layer of the Figure 9
// matrix: every one of the 121 Core 2 Duo pairs calibrated and
// alternated cold, as a campaign does on a simulation-cache miss, but
// without the process-wide cache. Next to ns/op it reports the
// deterministic work: instructions retired and core cycles simulated,
// which depend only on the model, and how many of those instructions
// the interpreter executed one at a time rather than fast-forwarded.
func BenchmarkSimulateFig9Pairs(b *testing.B) {
	mc := machine.Core2Duo()
	cfg := DefaultConfig()
	var work simWork
	for i := 0; i < b.N; i++ {
		for a := Event(0); a < NumEvents; a++ {
			for bb := Event(0); bb < NumEvents; bb++ {
				k, err := BuildKernelStride(mc, a, bb, cfg.Frequency, SweepOffset)
				if err != nil {
					b.Fatal(err)
				}
				hier, err := borrowHier(mc.Mem)
				if err != nil {
					b.Fatal(err)
				}
				alt, err := k.alternationHier(mc, cfg.WarmupPeriods, cfg.MeasurePeriods, hier)
				returnHier(mc.Mem, hier)
				if err != nil {
					b.Fatal(err)
				}
				work.add(k.calibration)
				work.add(alt.work)
			}
		}
	}
	n := float64(b.N)
	b.ReportMetric(float64(work.retired)/n, "retired/op")
	b.ReportMetric(float64(work.cycles)/n, "sim-cycles/op")
	b.ReportMetric(float64(work.interpreted)/n, "interpreted/op")
}
