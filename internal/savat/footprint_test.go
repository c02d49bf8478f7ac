package savat

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/machine"
)

// TestStreamingMeasurementFootprint checks the measurement-level memory
// claim of the streaming pipeline: the streaming Measurer never
// materializes a capture-length buffer — a warmed measurement allocates
// far less than one capture.
func TestStreamingMeasurementFootprint(t *testing.T) {
	mc := machine.Core2Duo()
	cfg := DefaultConfig()
	cfg.Analyzer.RBW = 50 // coarse RBW: segment 8192 ≪ capture 262144
	n := int(cfg.Duration * cfg.SampleRate)
	k, err := BuildKernel(mc, ADD, LDM, cfg.Frequency)
	if err != nil {
		t.Fatal(err)
	}

	s := NewMeasureScratch()
	warm, err := NewMeasurer(mc, cfg, WithScratch(s)).MeasureKernel(k, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	// A warmed streaming measurement's total allocation stays far below
	// even one capture-length float64 buffer (8n bytes; materializing
	// the envelope pair and the complex noise would take 4·8n). The bound leaves generous headroom for the rng and result
	// structs while still being an order below one capture.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	again, err := NewMeasurer(mc, cfg, WithScratch(s)).MeasureKernel(k, rand.New(rand.NewSource(9)))
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if delta, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(n); delta > bound {
		t.Errorf("warmed streaming measurement allocated %d bytes; want ≤ %d (capture is %d bytes)",
			delta, bound, 8*n)
	}
	if again.SAVAT != warm.SAVAT {
		t.Errorf("repeat measurement drifted: %g vs %g", again.SAVAT, warm.SAVAT)
	}
}
