package memhier

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/activity"
	"repro/internal/cache"
	"repro/internal/dram"
)

func testCfg() Config {
	return Config{
		L1:          cache.Config{Name: "L1D", SizeBytes: 4 << 10, Assoc: 2, LineBytes: 64},
		L2:          cache.Config{Name: "L2", SizeBytes: 64 << 10, Assoc: 4, LineBytes: 64},
		L1HitCycles: 3,
		L2HitCycles: 14,
		BusCycles:   40,
		DRAM: dram.Config{
			Banks: 4, RowBytes: 4096,
			CASCycles: 30, ActivateCycles: 40, PrechargeCycles: 30, BurstCycles: 8,
		},
	}
}

func TestValidate(t *testing.T) {
	if err := testCfg().Validate(); err != nil {
		t.Fatal(err)
	}
	c := testCfg()
	c.L2.LineBytes = 128
	c.L2.SizeBytes = 64 << 10
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "line") {
		t.Errorf("mismatched lines: err = %v", err)
	}
	c = testCfg()
	c.L2HitCycles = 2 // below L1
	if err := c.Validate(); err == nil {
		t.Error("L2 faster than L1 should fail")
	}
	c = testCfg()
	c.L1.SizeBytes = 1000
	if _, err := New(c); err == nil {
		t.Error("bad L1 should fail New")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic")
		}
	}()
	MustNew(Config{})
}

func TestLevelString(t *testing.T) {
	if LevelL1.String() != "L1" || LevelL2.String() != "L2" || LevelMem.String() != "MEM" {
		t.Error("level names wrong")
	}
	if !strings.Contains(Level(9).String(), "9") {
		t.Error("invalid level string")
	}
}

func TestL1Hit(t *testing.T) {
	h := MustNew(testCfg())
	h.Access(0x1000, false) // cold
	r := h.Access(0x1000, false)
	if r.Level != LevelL1 || r.Latency != 3 {
		t.Errorf("L1 hit: %+v", r)
	}
	if r.Activity[activity.L1D] != 1 || r.Activity[activity.L2] != 0 {
		t.Errorf("L1 hit activity: %v", r.Activity)
	}
}

func TestL2Hit(t *testing.T) {
	h := MustNew(testCfg())
	h.Access(0x1000, false) // cold fill into L1+L2
	// Evict the line from L1 but not L2: L1 is 4 KiB 2-way (32 sets);
	// lines 0x1000, 0x1000+2KiB, 0x1000+4KiB share an L1 set but are
	// distinct L2 sets (L2 has 256 sets).
	h.Access(0x1000+2048, false)
	h.Access(0x1000+4096, false)
	r := h.Access(0x1000, false)
	if r.Level != LevelL2 {
		t.Fatalf("expected L2 hit, got %v", r.Level)
	}
	if r.Latency != 14 {
		t.Errorf("L2 latency = %d", r.Latency)
	}
	// One L1 access, one L2 array read hit.
	if r.Activity[activity.L1D] != 1 || r.Activity[activity.L2] != 1 {
		t.Errorf("L2 hit activity: %v", r.Activity)
	}
	if r.Activity[activity.Bus] != 0 {
		t.Errorf("L2 hit should not touch the bus: %v", r.Activity)
	}
}

func TestMemAccess(t *testing.T) {
	h := MustNew(testCfg())
	r := h.Access(0x40000, false)
	if r.Level != LevelMem {
		t.Fatalf("cold access should go to memory, got %v", r.Level)
	}
	if r.Activity[activity.Bus] != 1 {
		t.Errorf("memory access bus events = %v", r.Activity[activity.Bus])
	}
	if r.Activity[activity.DRAM] == 0 {
		t.Error("memory access should generate DRAM events")
	}
	if r.Activity[activity.L2] != 0 {
		t.Errorf("miss path must not count L2 array events: %v", r.Activity)
	}
	// Latency includes L2 lookup + bus + DRAM cold access (40+30+8=78).
	if want := 14 + 40 + 78; r.Latency != want {
		t.Errorf("memory latency = %d, want %d", r.Latency, want)
	}
}

// A sustained stream of store misses that hit in L2 must generate ~2 L2
// transactions per store (fill + dirty write-back) — the paper's STL2
// explanation.
func TestStoreL2DoubleTransactions(t *testing.T) {
	cfg := testCfg()
	h := MustNew(cfg)
	// Working set: 8 KiB = 2× L1, well under 64 KiB L2.
	span := uint64(8 << 10)
	// Warm: allocate with loads (stores alone would write-combine past the
	// caches), then dirty, then one more store sweep so L1 churns dirty
	// lines.
	for a := uint64(0); a < span; a += 64 {
		h.Access(a, false)
		h.Access(a, true)
	}
	for a := uint64(0); a < span; a += 64 {
		h.Access(a, true)
	}
	var acc activity.Vector
	n := 0
	for s := 0; s < 4; s++ {
		for a := uint64(0); a < span; a += 64 {
			r := h.Access(a, true)
			if r.Level != LevelL2 {
				t.Fatalf("steady-state store at %#x serviced by %v, want L2", a, r.Level)
			}
			acc.AddVector(r.Activity)
			n++
		}
	}
	l2PerStore := acc[activity.L2] / float64(n)
	if l2PerStore < 1.4 || l2PerStore > 1.6 {
		t.Errorf("L2 transactions per STL2 store = %v, want ≈1.5 (read hit + weighted write-back)", l2PerStore)
	}
	if acc[activity.Bus] != 0 {
		t.Errorf("STL2 steady state should not reach the bus: %v bus events", acc[activity.Bus])
	}
}

// Loads that hit in L2 generate only ~1 L2 transaction per load.
func TestLoadL2SingleTransaction(t *testing.T) {
	h := MustNew(testCfg())
	span := uint64(8 << 10)
	for s := 0; s < 2; s++ {
		for a := uint64(0); a < span; a += 64 {
			h.Access(a, false)
		}
	}
	var acc activity.Vector
	n := 0
	for s := 0; s < 4; s++ {
		for a := uint64(0); a < span; a += 64 {
			r := h.Access(a, false)
			if r.Level != LevelL2 {
				t.Fatalf("steady-state load serviced by %v, want L2", r.Level)
			}
			acc.AddVector(r.Activity)
			n++
		}
	}
	l2PerLoad := acc[activity.L2] / float64(n)
	if l2PerLoad < 0.9 || l2PerLoad > 1.1 {
		t.Errorf("L2 transactions per LDL2 load = %v, want ≈1", l2PerLoad)
	}
}

// A store sweep over a memory-sized buffer goes through the
// write-combining buffer: one posted bus write per line, no allocation,
// no read-for-ownership — the STM behaviour behind the paper's
// "STM is no easier to distinguish than LDM" observation.
func TestStoreMemWriteCombining(t *testing.T) {
	h := MustNew(testCfg())
	span := uint64(512 << 10) // 8× L2
	var acc activity.Vector
	n := 0
	for a := uint64(0); a < span; a += 4 { // paper-style 4 B sweep
		r := h.Access(a, true)
		if r.Level != LevelMem {
			t.Fatalf("WC store at %#x serviced by %v", a, r.Level)
		}
		acc.AddVector(r.Activity)
		n++
	}
	if acc[activity.Bus] != 0 {
		t.Errorf("WC stores must not produce read transfers: %v", acc[activity.Bus])
	}
	wrPerStore := acc[activity.BusWr] / float64(n)
	if wrPerStore < 1.9/16 || wrPerStore > 2.3/16 {
		t.Errorf("write events per STM store = %v, want ≈2/16 (flush + DRAM burst per line)", wrPerStore)
	}
	if h.L1().Stats().Accesses() != 0 {
		t.Error("WC stores must not touch the caches")
	}
	flushes, merges := h.WCStats()
	if flushes != uint64(n/16) || merges != uint64(n-n/16) {
		t.Errorf("WC stats = %d flushes, %d merges (n=%d)", flushes, merges, n)
	}
}

// Stores that hit in a cache level bypass the write-combining buffer.
func TestStoreHitSkipsWC(t *testing.T) {
	h := MustNew(testCfg())
	h.Access(0x100, false) // load line in
	r := h.Access(0x100, true)
	if r.Level != LevelL1 {
		t.Errorf("store to cached line serviced by %v", r.Level)
	}
	if f, _ := h.WCStats(); f != 0 {
		t.Error("cached store should not flush the WC buffer")
	}
}

func TestServiceCountsAndReset(t *testing.T) {
	h := MustNew(testCfg())
	h.Access(0, false)
	h.Access(0, false)
	l1, _, mem := h.ServiceCounts()
	if l1 != 1 || mem != 1 {
		t.Errorf("service counts: l1=%d mem=%d", l1, mem)
	}
	h.Reset()
	l1, l2, mem := h.ServiceCounts()
	if l1+l2+mem != 0 {
		t.Error("Reset should clear service counts")
	}
	if h.L1().Stats().Accesses() != 0 || h.L2().Stats().Accesses() != 0 || h.DRAM().Stats().Reads != 0 {
		t.Error("Reset should clear component stats")
	}
}

// Invariant: every access leaves the line resident in L1.
func TestInclusionAfterAccess(t *testing.T) {
	h := MustNew(testCfg())
	addrs := []uint64{0, 0x1000, 0x2040, 0x40000, 0x81000, 0}
	for _, a := range addrs {
		h.Access(a, false)
		if !h.L1().Contains(a) {
			t.Errorf("line %#x not in L1 after access", a)
		}
	}
}

func TestConfigAccessorAndNewErrors(t *testing.T) {
	h := MustNew(testCfg())
	if h.Config().L1HitCycles != 3 {
		t.Error("Config accessor wrong")
	}
	bad := testCfg()
	bad.L2.SizeBytes = 1000
	if _, err := New(bad); err == nil {
		t.Error("bad L2 should fail")
	}
	bad = testCfg()
	bad.DRAM.Banks = 3
	if _, err := New(bad); err == nil {
		t.Error("bad DRAM should fail")
	}
}

// AccessRepeats of n accesses either declines and changes nothing, or
// does exactly what n AccessInto calls do, each in L1HitCycles: twin
// hierarchies, one trying it first, agree after every step of random
// streams that mix line-local sweeps, streaming stores, L2 traffic and
// loads after stores.
func TestAccessRepeatMatchesAccessInto(t *testing.T) {
	cfg := testCfg()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fast, ref := MustNew(cfg), MustNew(cfg)
		var actF, actR activity.Vector
		var l1Repeats, wcRepeats int
		addr := uint64(0)
		for i := 0; i < 5000; i++ {
			switch rng.Intn(10) {
			case 0: // jump to another region: L1-sized, L2-sized, or fresh
				addr = uint64(rng.Intn(3))<<20 + uint64(rng.Intn(1<<15))&^3
			case 1:
				addr += 64
			default:
				addr += 4 * uint64(rng.Intn(2))
			}
			write := rng.Intn(3) == 0
			if rng.Intn(4) != 0 { // runs of one kind, as a loop body makes
				write = i%200 < 100
			}
			_, _, memBefore := fast.ServiceCounts()
			n := 1 + uint64(rng.Intn(30))
			lat, ok := cfg.L1HitCycles, fast.AccessRepeats(addr, write, n, &actF)
			if ok {
				if _, _, mem := fast.ServiceCounts(); mem > memBefore {
					wcRepeats++
				} else {
					l1Repeats++
				}
			} else {
				_, lat = fast.AccessInto(addr, write, &actF)
				n = 1
			}
			for ; n > 0; n-- {
				if _, refLat := ref.AccessInto(addr, write, &actR); lat != refLat {
					t.Fatalf("seed %d access %d (%#x write=%v repeat=%v): latency %d vs %d", seed, i, addr, write, ok, lat, refLat)
				}
			}
			if actF != actR {
				t.Fatalf("seed %d access %d (%#x write=%v repeat=%v): activity %v vs %v", seed, i, addr, write, ok, actF, actR)
			}
			sameHier(t, fast, ref)
		}
		if l1Repeats == 0 || wcRepeats == 0 {
			t.Fatalf("seed %d: %d L1 and %d write-combining repeats; the stream must exercise both", seed, l1Repeats, wcRepeats)
		}
	}
}

func sameHier(t *testing.T, a, b *Hierarchy) {
	t.Helper()
	a1, a2, am := a.ServiceCounts()
	b1, b2, bm := b.ServiceCounts()
	af, amg := a.WCStats()
	bf, bmg := b.WCStats()
	if a.L1().Stats() != b.L1().Stats() || a.L2().Stats() != b.L2().Stats() || a.DRAM().Stats() != b.DRAM().Stats() ||
		a1 != b1 || a2 != b2 || am != bm || af != bf || amg != bmg {
		t.Fatalf("hierarchies differ:\n%+v %+v %v %v %v %v %v\n%+v %+v %v %v %v %v %v",
			a.L1().Stats(), a.L2().Stats(), a1, a2, am, af, amg, b.L1().Stats(), b.L2().Stats(), b1, b2, bm, bf, bmg)
	}
}

// A hierarchy restored from a snapshot carries on exactly as the saved
// one does, through AccessInto and AccessRepeats (the restore keeps
// L1's last slot and the open write-combining line), with residency
// queries on sets not yet copied in. A second restore, after the first
// restored hierarchy stored into what it copied in, still carries on
// as the saved one (the snapshot is unchanged), and Reset drops it.
func TestRestoreCarriesOn(t *testing.T) {
	cfg := testCfg()
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		addr := uint64(0)
		next := func() (uint64, bool, uint64) {
			switch rng.Intn(10) {
			case 0:
				addr = uint64(rng.Intn(3))<<20 + uint64(rng.Intn(1<<15))&^3
			case 1:
				addr += 64
			default:
				addr += 4 * uint64(rng.Intn(2))
			}
			return addr, rng.Intn(3) == 0, 1 + uint64(rng.Intn(30))
		}
		// twin takes orig's accesses, so it is orig at the save for the
		// second round.
		orig, twin, other := MustNew(cfg), MustNew(cfg), MustNew(cfg)
		var act activity.Vector
		for i := 0; i < 2000; i++ {
			a, w, _ := next()
			orig.AccessInto(a, w, &act)
			twin.AccessInto(a, w, &act)
			b, w, _ := next()
			other.AccessInto(b, w, &act)
		}
		snap := orig.Save()
		for round, ref := range []*Hierarchy{orig, twin} {
			r := MustNew(cfg)
			if round == 0 {
				r = other
			}
			r.Restore(snap)
			sameHier(t, ref, r)
			for i := 0; i < 3000; i++ {
				a, w, n := next()
				var actA, actB activity.Vector
				okA := ref.AccessRepeats(a, w, n, &actA)
				okB := r.AccessRepeats(a, w, n, &actB)
				if okA != okB {
					t.Fatalf("seed %d round %d access %d: AccessRepeats %v restored, %v original", seed, round, i, okB, okA)
				}
				if !okA {
					la, lata := ref.AccessInto(a, w, &actA)
					lb, latb := r.AccessInto(a, w, &actB)
					if la != lb || lata != latb {
						t.Fatalf("seed %d round %d access %d: %v/%d restored, %v/%d original", seed, round, i, lb, latb, la, lata)
					}
				}
				if actA != actB {
					t.Fatalf("seed %d round %d access %d: activity differs", seed, round, i)
				}
				if q := uint64(rng.Intn(1 << 20)); ref.L2().Contains(q) != r.L2().Contains(q) || ref.L1().Dirty(q) != r.L1().Dirty(q) {
					t.Fatalf("seed %d round %d access %d: residency of %#x differs", seed, round, i, q)
				}
				sameHier(t, ref, r)
			}
			if ref.L1().ResidentLines() != r.L1().ResidentLines() || ref.L2().ResidentLines() != r.L2().ResidentLines() {
				t.Fatalf("seed %d round %d: resident lines differ", seed, round)
			}
		}
		other.Reset()
		if other.L1().ResidentLines() != 0 || other.L2().ResidentLines() != 0 {
			t.Fatalf("seed %d: lines of the snapshot survived Reset", seed)
		}
	}
}

// Restoring a snapshot of another configuration panics.
func TestRestoreOtherConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Restore of another configuration's snapshot should panic")
		}
	}()
	cfg := testCfg()
	cfg.BusCycles++
	MustNew(testCfg()).Restore(MustNew(cfg).Save())
}
