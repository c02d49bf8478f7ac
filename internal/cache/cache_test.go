package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCfg() Config {
	return Config{Name: "T", SizeBytes: 1024, Assoc: 2, LineBytes: 64} // 8 sets
}

func TestConfigValidate(t *testing.T) {
	good := []Config{
		smallCfg(),
		{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64},
		{Name: "L2", SizeBytes: 4 << 20, Assoc: 16, LineBytes: 64},
		{Name: "P3L1", SizeBytes: 16 << 10, Assoc: 4, LineBytes: 64},
		{Name: "TuL1", SizeBytes: 64 << 10, Assoc: 2, LineBytes: 64},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []Config{
		{SizeBytes: 0, Assoc: 1, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 0, LineBytes: 64},
		{SizeBytes: 1024, Assoc: 2, LineBytes: 48},
		{SizeBytes: 1000, Assoc: 2, LineBytes: 64},
		{SizeBytes: 64 * 2 * 3, Assoc: 2, LineBytes: 64}, // 3 sets
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
		if _, err := New(c); err == nil {
			t.Errorf("New(%+v) succeeded, want error", c)
		}
	}
}

func TestSets(t *testing.T) {
	if got := smallCfg().Sets(); got != 8 {
		t.Errorf("Sets() = %d, want 8", got)
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with bad config should panic")
		}
	}()
	MustNew(Config{})
}

func TestHitMissBasics(t *testing.T) {
	c := MustNew(smallCfg())
	r := c.Access(0x1000, false)
	if r.Hit || !r.Fill || r.WriteBack {
		t.Errorf("first read: %+v, want miss+fill", r)
	}
	r = c.Access(0x1000, false)
	if !r.Hit {
		t.Errorf("second read should hit: %+v", r)
	}
	r = c.Access(0x1020, false) // same 64B line
	if !r.Hit {
		t.Errorf("same-line read should hit: %+v", r)
	}
	st := c.Stats()
	if st.Reads != 3 || st.ReadHits != 2 || st.Fills != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Misses() != 1 || st.Accesses() != 3 {
		t.Errorf("Misses/Accesses = %d/%d", st.Misses(), st.Accesses())
	}
	if mr := st.MissRate(); mr < 0.33 || mr > 0.34 {
		t.Errorf("MissRate = %v", mr)
	}
}

func TestMissRateNoAccesses(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("empty MissRate should be 0")
	}
}

func TestWriteAllocateAndDirty(t *testing.T) {
	c := MustNew(smallCfg())
	r := c.Access(0x2000, true)
	if r.Hit || !r.Fill {
		t.Errorf("write miss should allocate: %+v", r)
	}
	if !c.Dirty(0x2000) {
		t.Error("written line must be dirty")
	}
	if c.Dirty(0x9999000) {
		t.Error("absent line must not be dirty")
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	c := MustNew(smallCfg()) // 2-way, 8 sets, 64B lines: set = (addr>>6)&7
	// Three lines mapping to set 0: 0x0000, 0x0200, 0x0400 (stride 512B).
	c.Access(0x0000, true) // dirty
	c.Access(0x0200, false)
	r := c.Access(0x0400, false) // evicts 0x0000 (LRU, dirty)
	if !r.WriteBack {
		t.Fatalf("expected write-back: %+v", r)
	}
	if r.WriteBackAddr != 0x0000 {
		t.Errorf("WriteBackAddr = %#x, want 0", r.WriteBackAddr)
	}
	if c.Stats().WriteBacks != 1 {
		t.Errorf("WriteBacks = %d, want 1", c.Stats().WriteBacks)
	}
}

func TestCleanEviction(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x0000, false)
	c.Access(0x0200, false)
	r := c.Access(0x0400, false)
	if r.WriteBack {
		t.Errorf("clean victim should not write back: %+v", r)
	}
	if c.Stats().CleanEvicts != 1 {
		t.Errorf("CleanEvicts = %d, want 1", c.Stats().CleanEvicts)
	}
}

func TestLRUOrder(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x0000, false) // way A
	c.Access(0x0200, false) // way B
	c.Access(0x0000, false) // A now MRU
	c.Access(0x0400, false) // should evict B (0x0200)
	if !c.Contains(0x0000) {
		t.Error("MRU line evicted")
	}
	if c.Contains(0x0200) {
		t.Error("LRU line not evicted")
	}
}

func TestWriteBackAddrReconstruction(t *testing.T) {
	c := MustNew(smallCfg())
	addr := uint64(0xABCD40) // arbitrary line
	c.Access(addr, true)
	set0 := addr >> 6 & 7
	// Fill the same set with two more lines to force eviction.
	base := addr &^ uint64(0x3F)
	c.Access(base+512, false)
	r := c.Access(base+1024, false)
	if !r.WriteBack {
		t.Fatal("expected write-back")
	}
	if r.WriteBackAddr != base {
		t.Errorf("WriteBackAddr = %#x, want %#x", r.WriteBackAddr, base)
	}
	if got := r.WriteBackAddr >> 6 & 7; got != set0 {
		t.Errorf("write-back set = %d, want %d", got, set0)
	}
}

func TestLineAddr(t *testing.T) {
	c := MustNew(smallCfg())
	if got := c.LineAddr(0x1234); got != 0x1200 {
		t.Errorf("LineAddr(0x1234) = %#x, want 0x1200", got)
	}
}

func TestReset(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x1000, true)
	c.Reset()
	if c.ResidentLines() != 0 {
		t.Error("Reset should invalidate all lines")
	}
	if c.Stats().Accesses() != 0 {
		t.Error("Reset should clear stats")
	}
	if r := c.Access(0x1000, false); r.Hit {
		t.Error("post-Reset access should miss")
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	c := MustNew(smallCfg())
	rng := rand.New(rand.NewSource(1))
	maxLines := smallCfg().SizeBytes / smallCfg().LineBytes
	for i := 0; i < 10000; i++ {
		c.Access(uint64(rng.Intn(1<<20))&^0x3, rng.Intn(2) == 0)
		if n := c.ResidentLines(); n > maxLines {
			t.Fatalf("resident lines %d exceeds capacity %d", n, maxLines)
		}
	}
}

// Property: after accessing an address, it is always resident.
func TestAccessedLineResidentQuick(t *testing.T) {
	c := MustNew(smallCfg())
	f := func(addr uint64, write bool) bool {
		addr &= 1<<30 - 1
		c.Access(addr, write)
		return c.Contains(addr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: a working set that fits in the cache never misses after the
// first sweep (true LRU guarantees this for power-of-two strides).
func TestFittingWorkingSetAlwaysHits(t *testing.T) {
	cfg := smallCfg()
	c := MustNew(cfg)
	lines := cfg.SizeBytes / cfg.LineBytes
	// First sweep: cold fills.
	for i := 0; i < lines; i++ {
		c.Access(uint64(i*cfg.LineBytes), false)
	}
	// Ten more sweeps: all hits.
	before := c.Stats().Misses()
	for s := 0; s < 10; s++ {
		for i := 0; i < lines; i++ {
			if r := c.Access(uint64(i*cfg.LineBytes), false); !r.Hit {
				t.Fatalf("sweep %d line %d missed", s, i)
			}
		}
	}
	if c.Stats().Misses() != before {
		t.Error("fitting working set caused extra misses")
	}
}

// Property: a cyclic working set of capacity+1 lines under LRU always
// misses (the classic LRU pathological case).
func TestOverCapacityCyclicAlwaysMisses(t *testing.T) {
	cfg := Config{Name: "tiny", SizeBytes: 256, Assoc: 2, LineBytes: 64} // 4 lines, 2 sets
	c := MustNew(cfg)
	// 3 lines in the same set (set has 2 ways): cyclic access always misses.
	addrs := []uint64{0x000, 0x080, 0x100}
	for i := 0; i < 30; i++ {
		if r := c.Access(addrs[i%3], false); r.Hit {
			t.Fatalf("iteration %d unexpectedly hit", i)
		}
	}
}

// Property: total fills == misses, and write-backs never exceed fills.
func TestFillWriteBackAccounting(t *testing.T) {
	c := MustNew(smallCfg())
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		c.Access(uint64(rng.Intn(1<<18)), rng.Intn(3) == 0)
	}
	st := c.Stats()
	if st.Fills != st.Misses() {
		t.Errorf("fills %d != misses %d (write-allocate invariant)", st.Fills, st.Misses())
	}
	if st.WriteBacks+st.CleanEvicts > st.Fills {
		t.Errorf("evictions %d exceed fills %d", st.WriteBacks+st.CleanEvicts, st.Fills)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := MustNew(Config{Name: "L1", SizeBytes: 32 << 10, Assoc: 8, LineBytes: 64})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*64), i&7 == 0)
	}
}

// Property: within one set, a working set of ≤assoc lines never misses
// after the first touch (the LRU stack property).
func TestLRUStackPropertyQuick(t *testing.T) {
	cfg := smallCfg() // 2-way, 8 sets
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(cfg)
		set := uint64(rng.Intn(cfg.Sets()))
		// Two lines in the same set (assoc = 2).
		a := set << 6
		b := a + uint64(cfg.Sets()<<6)
		c.Access(a, false)
		c.Access(b, false)
		for i := 0; i < 50; i++ {
			var addr uint64
			if rng.Intn(2) == 0 {
				addr = a
			} else {
				addr = b
			}
			if r := c.Access(addr, rng.Intn(2) == 0); !r.Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// RepeatHits of n accesses either declines and changes nothing, or
// leaves the cache exactly as n Access calls would: same ways, LRU
// stamps, dirty bits and Stats.
func TestRepeatHitMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fast, ref := MustNew(smallCfg()), MustNew(smallCfg())
	repeats := 0
	addr := uint64(0)
	for i := 0; i < 20000; i++ {
		switch rng.Intn(8) {
		case 0:
			addr = uint64(rng.Intn(1 << 14))
		case 1:
			addr += 64
		default:
			addr += uint64(rng.Intn(8))
		}
		write := rng.Intn(3) == 0
		if i%97 == 0 {
			fast.Reset()
			ref.Reset()
		}
		if n := 1 + uint64(rng.Intn(40)); fast.RepeatHits(addr, write, n) {
			repeats++
			for ; n > 0; n-- {
				if r := ref.Access(addr, write); !r.Hit {
					t.Fatalf("access %d: RepeatHits on %#x, which misses", i, addr)
				}
			}
		} else if rng.Intn(2) == 0 {
			fast.Access(addr, write)
			ref.Access(addr, write)
		} else if fast.AccessHit(addr, write) != ref.AccessHit(addr, write) {
			t.Fatalf("access %d: AccessHit disagrees", i)
		}
		if fast.stats != ref.stats || fast.stamp != ref.stamp {
			t.Fatalf("access %d: stats %+v stamp %d, want %+v stamp %d", i, fast.stats, fast.stamp, ref.stats, ref.stamp)
		}
		for s := range fast.vtags {
			if fast.vtags[s] != ref.vtags[s] || fast.lru[s] != ref.lru[s] || fast.dirty[s] != ref.dirty[s] {
				t.Fatalf("access %d: way %d differs", i, s)
			}
		}
	}
	if repeats < 1000 {
		t.Fatalf("only %d repeats", repeats)
	}
}

// randomOps draws n random operations over a small address range,
// each returning what it reports, for the snapshot tests.
func randomOps(rng *rand.Rand, n int) []func(c *Cache) any {
	ops := make([]func(c *Cache) any, n)
	addr := uint64(0)
	for i := range ops {
		switch rng.Intn(6) {
		case 0:
			addr = uint64(rng.Intn(1 << 14))
		case 1:
			addr += 64
		default:
			addr += uint64(rng.Intn(8))
		}
		a, write, k := addr, rng.Intn(3) == 0, 1+uint64(rng.Intn(20))
		switch rng.Intn(7) {
		case 0:
			ops[i] = func(c *Cache) any { return c.AccessHit(a, write) }
		case 1:
			ops[i] = func(c *Cache) any { return c.RepeatHits(a, write, k) }
		case 2:
			ops[i] = func(c *Cache) any { return [2]bool{c.Contains(a), c.Dirty(a)} }
		case 3:
			ops[i] = func(c *Cache) any { return c.ResidentLines() }
		default:
			ops[i] = func(c *Cache) any { return c.Access(a, write) }
		}
	}
	return ops
}

// sameCache fails unless two caches answer every query alike from
// here on: statistics, LRU clock, and the ways of every set, read
// through the same lazy start the accesses use.
func sameCache(t *testing.T, i int, a, b *Cache) {
	t.Helper()
	if a.stats != b.stats || a.stamp != b.stamp || a.ResidentLines() != b.ResidentLines() {
		t.Fatalf("op %d: stats %+v stamp %d lines %d, want %+v stamp %d lines %d",
			i, b.stats, b.stamp, b.ResidentLines(), a.stats, a.stamp, a.ResidentLines())
	}
}

// A cache restored from a snapshot carries on exactly as the saved
// cache does: every later access, RepeatHits (whose slot the restore
// copies in at once), and query — ResidentLines, Contains and Dirty on
// sets not yet copied in among them — gives what the original gives.
// The restored cache is one that held other lines, and a snapshot of
// the restored cache, taken before it touched most sets, restores the
// same state again. Neither restore changes the snapshot.
func TestRestoreCarriesOn(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		orig, other := MustNew(smallCfg()), MustNew(smallCfg())
		for _, op := range randomOps(rng, 300) {
			op(orig)
		}
		for _, op := range randomOps(rng, 300) {
			op(other)
		}
		snap := orig.Save()
		other.Restore(snap)
		again := other.Save()
		third := MustNew(smallCfg())
		third.Restore(again)
		sameCache(t, -1, orig, other)
		sameCache(t, -1, orig, third)
		for i, op := range randomOps(rng, 2000) {
			want := op(orig)
			if got := op(other); got != want {
				t.Fatalf("seed %d op %d: restored cache gives %v, original %v", seed, i, got, want)
			}
			if got := op(third); got != want {
				t.Fatalf("seed %d op %d: re-saved cache gives %v, original %v", seed, i, got, want)
			}
			sameCache(t, i, orig, other)
			sameCache(t, i, orig, third)
		}
		// The snapshot is unchanged: a fresh restore reads it as saved.
		fresh := MustNew(smallCfg())
		fresh.Restore(snap)
		if fresh.stats != snap.stats || fresh.ResidentLines() != len(snap.vtags) {
			t.Fatalf("seed %d: snapshot changed under the caches restored from it", seed)
		}
	}
}

// Reset drops the snapshot a cache was restored from: no line of it is
// resident afterwards.
func TestResetDropsSnapshot(t *testing.T) {
	c := MustNew(smallCfg())
	for a := uint64(0); a < 1024; a += 64 {
		c.Access(a, true)
	}
	snap := c.Save()
	r := MustNew(smallCfg())
	r.Restore(snap)
	if !r.Contains(0x40) || !r.Dirty(0x40) || r.ResidentLines() != 16 {
		t.Fatalf("restore lost lines: %d resident", r.ResidentLines())
	}
	r.Reset()
	if r.ResidentLines() != 0 || r.Contains(0x80) || r.Access(0x80, false).Hit {
		t.Fatal("a line of the snapshot survived Reset")
	}
}

// At an epoch wrap Reset and Restore still start every set over: a
// set last touched in an epoch 2³² ago must not come back as current.
func TestEpochWrapClears(t *testing.T) {
	for _, restore := range []bool{false, true} {
		src := MustNew(smallCfg())
		src.Access(0x40, true) // set 1
		snap := src.Save()

		c := MustNew(smallCfg())
		c.Access(0x80, true) // set 2, touched in epoch 0 ...
		c.Access(0xc0, true) // set 3
		// ... and pretend set 3 was touched in epoch 1, 2³² resets ago,
		// and the cache has since reached the last epoch.
		c.setEpoch[3] = 1
		c.epoch = ^uint32(0)
		c.setEpoch[2] = c.epoch
		if restore {
			c.Restore(snap)
		} else {
			c.Reset()
		}
		if c.epoch != 1 {
			t.Fatalf("epoch %d after the wrap, want 1", c.epoch)
		}
		if c.Contains(0x80) || c.Contains(0xc0) || c.ResidentLines() != map[bool]int{false: 0, true: 1}[restore] {
			t.Fatalf("restore %v: a line from before the wrap survived (%d resident)", restore, c.ResidentLines())
		}
		if restore && (!c.Contains(0x40) || !c.Dirty(0x40)) {
			t.Fatal("the snapshot's line is missing after the wrap")
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
	cfg := smallCfg()
	cfg.Assoc = 4
	MustNew(smallCfg()).Restore(MustNew(cfg).Save())
}

// RepeatHits right after a restore applies to the saved last line in
// place: the restore copies that set in at once, so a later first
// touch of the set does not overwrite what the repeat wrote.
func TestRestoreKeepsLastSlot(t *testing.T) {
	c := MustNew(smallCfg())
	c.Access(0x40, false)
	r := MustNew(smallCfg())
	r.Restore(c.Save())
	for _, x := range []*Cache{c, r} {
		if !x.RepeatHits(0x44, true, 3) {
			t.Fatal("RepeatHits declined the last line")
		}
	}
	if !r.Dirty(0x40) || r.stats != c.stats || r.lru[r.lastSlot] != c.lru[c.lastSlot] {
		t.Fatalf("restored: dirty %v stats %+v; original: dirty %v stats %+v", r.Dirty(0x40), r.stats, c.Dirty(0x40), c.stats)
	}
}
