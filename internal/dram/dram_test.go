package dram

import (
	"math/rand"
	"testing"
)

func cfg() Config {
	return Config{
		Banks: 4, RowBytes: 4096,
		CASCycles: 30, ActivateCycles: 40, PrechargeCycles: 30, BurstCycles: 8,
	}
}

func TestValidate(t *testing.T) {
	if err := cfg().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Banks: 3, RowBytes: 4096, CASCycles: 1, ActivateCycles: 1, BurstCycles: 1},
		{Banks: 4, RowBytes: 1000, CASCycles: 1, ActivateCycles: 1, BurstCycles: 1},
		{Banks: 4, RowBytes: 4096, CASCycles: 0, ActivateCycles: 1, BurstCycles: 1},
		{Banks: 4, RowBytes: 4096, CASCycles: 1, ActivateCycles: 1, BurstCycles: 1, PrechargeCycles: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) succeeded", c)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on bad config")
		}
	}()
	MustNew(Config{})
}

func TestColdAccessActivates(t *testing.T) {
	d := MustNew(cfg())
	r := d.Access(0, false)
	if r.RowHit {
		t.Error("cold access should miss the row buffer")
	}
	if want := 40 + 30 + 8; r.Latency != want { // activate+cas+burst, no precharge
		t.Errorf("cold latency = %d, want %d", r.Latency, want)
	}
	if r.Events != 3 {
		t.Errorf("cold events = %v, want 3", r.Events)
	}
}

func TestRowHit(t *testing.T) {
	d := MustNew(cfg())
	d.Access(0, false)
	r := d.Access(64, false) // same row
	if !r.RowHit {
		t.Fatal("same-row access should hit")
	}
	if want := 30 + 8; r.Latency != want {
		t.Errorf("hit latency = %d, want %d", r.Latency, want)
	}
	if r.Events != 1 {
		t.Errorf("hit events = %v, want 1", r.Events)
	}
}

func TestRowConflictPaysPrecharge(t *testing.T) {
	d := MustNew(cfg())
	d.Access(0, false)
	// Same bank, different row: rows interleave across banks on 4 KiB
	// granules, so row 0 and row 4 are both bank 0.
	r := d.Access(4*4096, false)
	if r.RowHit {
		t.Fatal("conflicting row should miss")
	}
	if want := 30 + 40 + 30 + 8; r.Latency != want { // pre+act+cas+burst
		t.Errorf("conflict latency = %d, want %d", r.Latency, want)
	}
}

func TestBankInterleaving(t *testing.T) {
	d := MustNew(cfg())
	// Rows 0..3 land in banks 0..3: all cold activates, no conflicts.
	for i := 0; i < 4; i++ {
		r := d.Access(uint64(i*4096), false)
		if r.RowHit {
			t.Errorf("row %d should be cold", i)
		}
	}
	// All four rows stay open simultaneously.
	for i := 0; i < 4; i++ {
		if r := d.Access(uint64(i*4096+128), false); !r.RowHit {
			t.Errorf("row %d should still be open", i)
		}
	}
}

func TestSequentialSweepMostlyRowHits(t *testing.T) {
	d := MustNew(cfg())
	// Sweep 1 MiB in 64 B lines: one activate per 4 KiB row.
	for a := uint64(0); a < 1<<20; a += 64 {
		d.Access(a, false)
	}
	st := d.Stats()
	if st.Activates != 256 { // 1 MiB / 4 KiB
		t.Errorf("activates = %d, want 256", st.Activates)
	}
	if hr := st.RowHitRate(); hr < 0.98 {
		t.Errorf("sweep row hit rate = %v, want ≥0.98", hr)
	}
}

func TestStatsCounting(t *testing.T) {
	d := MustNew(cfg())
	d.Access(0, false)
	d.Access(0, true)
	st := d.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if (Stats{}).RowHitRate() != 0 {
		t.Error("empty RowHitRate should be 0")
	}
}

func TestReset(t *testing.T) {
	d := MustNew(cfg())
	d.Access(0, false)
	d.Reset()
	if d.Stats().Reads != 0 {
		t.Error("Reset should clear stats")
	}
	if r := d.Access(64, false); r.RowHit {
		t.Error("post-Reset access should be cold")
	}
}

// Property: latency is always one of the three legal values.
func TestLatencyValues(t *testing.T) {
	d := MustNew(cfg())
	legal := map[int]bool{38: true, 78: true, 108: true}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		r := d.Access(uint64(rng.Intn(1<<26)), rng.Intn(2) == 0)
		if !legal[r.Latency] {
			t.Fatalf("illegal latency %d", r.Latency)
		}
	}
}

// A device restored from a snapshot carries on as the saved one does,
// and later accesses through it leave the snapshot unchanged.
func TestSaveRestore(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	orig := MustNew(cfg())
	for i := 0; i < 200; i++ {
		orig.Access(uint64(rng.Intn(1<<20)), rng.Intn(2) == 0)
	}
	snap := orig.Save()
	for round := 0; round < 2; round++ {
		twin := MustNew(cfg())
		twin.Access(0x12345, true)
		twin.Restore(snap)
		ref := orig
		if round == 1 {
			ref = MustNew(cfg())
			ref.Restore(snap)
		}
		for i := 0; i < 500; i++ {
			a, w := uint64(rng.Intn(1<<20)), rng.Intn(2) == 0
			if got, want := twin.Access(a, w), ref.Access(a, w); got != want {
				t.Fatalf("round %d access %d: %+v restored, %+v saved", round, i, got, want)
			}
		}
		if twin.Stats() != ref.Stats() {
			t.Fatalf("round %d: stats %+v restored, %+v saved", round, twin.Stats(), ref.Stats())
		}
	}
}
