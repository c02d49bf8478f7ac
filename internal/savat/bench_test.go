package savat

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
)

// BenchmarkSimulateFig9Pairs is the simulator layer of the Figure 9
// matrix: every one of the 121 Core 2 Duo pairs calibrated and
// alternated cold, as a campaign does on a simulation-cache miss, but
// without the kernel and alternation caches. Each op starts from an
// empty prologue layer, as a savat process starts. Next to ns/op it
// reports the deterministic work: instructions retired and core cycles
// simulated, which depend only on the model (a run started from a
// saved prologue counts the prologue's share), how many of those
// instructions the interpreter executed one at a time rather than
// fast-forwarded, and how many kernel prologues were simulated for the
// 363 runs.
func BenchmarkSimulateFig9Pairs(b *testing.B) {
	mc := machine.Core2Duo()
	cfg := DefaultConfig()
	old := sims
	defer func() { sims = old }()
	var work simWork
	for i := 0; i < b.N; i++ {
		sims = newSimCache(simCacheCap)
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
	b.ReportMetric(float64(work.prologues)/n, "prologues/op")
}

// keySink keeps BenchmarkCellKeys' keys live.
var keySink string

// BenchmarkCellKeys keys one repetition of the Figure 9 campaign as
// runCampaign does: the configurations formatted once into the shared
// prefix, then each of the 121 cells' material appended to it and
// hashed by engine.Key. Every cell pays this, cached or not. It reports
// the cells keyed per op.
func BenchmarkCellKeys(b *testing.B) {
	mc, cfg := machine.Core2Duo(), FastConfig()
	events := Events()
	cells := 0
	for i := 0; i < b.N; i++ {
		prefix := cellKeyPrefix(mc, cfg)
		for _, a := range events {
			for _, bb := range events {
				keySink = engine.Key(cellKeyMaterial(prefix, a, bb, 1, 0))
				cells++
			}
		}
	}
	b.ReportMetric(float64(cells)/float64(b.N), "cells/op")
}
