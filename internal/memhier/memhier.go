// Package memhier composes the L1 data cache, the unified L2, and the DRAM
// device into the memory hierarchy seen by the simulated core.
//
// Each access reports the level that serviced it, the total latency, and
// the per-component activity it generated, including cascaded dirty
// write-backs (L1→L2 on L1 evictions, L2→DRAM over the off-chip bus on L2
// evictions). The cascade is what produces the paper's STL2 signature: a
// sustained stream of store misses that hit in L2 performs two L2
// transactions per store (fill + later write-back).
package memhier

import (
	"fmt"

	"repro/internal/activity"
	"repro/internal/cache"
	"repro/internal/dram"
)

// l2WriteBackEventWeight is the L2 array activity of one posted L1→L2
// write-back relative to a demand read hit.
const l2WriteBackEventWeight = 0.5

// busWriteEventWeight is the off-chip switching activity of one cache
// write-back transfer relative to a write-combined streaming-store flush;
// write-backs drain lazily from the write buffers in relaxed bursts.
const busWriteEventWeight = 0.5

// Level identifies the hierarchy level that serviced an access.
type Level uint8

const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String returns the level name.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "MEM"
	}
	return fmt.Sprintf("level(%d)", uint8(l))
}

// Config describes the full hierarchy.
type Config struct {
	L1 cache.Config
	L2 cache.Config
	// Latencies in core cycles.
	L1HitCycles int
	L2HitCycles int
	BusCycles   int // off-chip round-trip overhead added to DRAM access time
	DRAM        dram.Config
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.L1.LineBytes != c.L2.LineBytes {
		return fmt.Errorf("memhier: L1 line %d != L2 line %d", c.L1.LineBytes, c.L2.LineBytes)
	}
	if c.L1HitCycles <= 0 || c.L2HitCycles <= c.L1HitCycles || c.BusCycles < 0 {
		return fmt.Errorf("memhier: inconsistent latencies %+v", c)
	}
	return c.DRAM.Validate()
}

// Result describes one access through the hierarchy.
type Result struct {
	Level    Level
	Latency  int             // core cycles
	Activity activity.Vector // component events generated by this access
}

// Hierarchy is the composed memory system.
type Hierarchy struct {
	cfg    Config
	l1     *cache.Cache
	l2     *cache.Cache
	mem    *dram.DRAM
	hits   [3]uint64
	wcLine uint64 // open write-combining buffer line (^0 = none)
	wcMiss uint64 // WC line flushes
	wcHit  uint64 // stores merged into the open WC line
	// wcLast records that the previous access went through the
	// write-combining buffer: it missed L1 and L2, and no access has
	// touched either cache since.
	wcLast bool
}

// New builds a hierarchy from cfg.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := cache.New(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := cache.New(cfg.L2)
	if err != nil {
		return nil, err
	}
	mem, err := dram.New(cfg.DRAM)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{cfg: cfg, l1: l1, l2: l2, mem: mem, wcLine: ^uint64(0)}, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// L1 exposes the L1 cache (stats and invariant checks).
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// L2 exposes the L2 cache.
func (h *Hierarchy) L2() *cache.Cache { return h.l2 }

// DRAM exposes the memory device.
func (h *Hierarchy) DRAM() *dram.DRAM { return h.mem }

// ServiceCounts returns how many accesses were serviced by each level.
func (h *Hierarchy) ServiceCounts() (l1, l2, mem uint64) {
	return h.hits[LevelL1], h.hits[LevelL2], h.hits[LevelMem]
}

// Reset clears caches, DRAM rows, and counters.
func (h *Hierarchy) Reset() {
	h.l1.Reset()
	h.l2.Reset()
	h.mem.Reset()
	h.hits = [3]uint64{}
	h.wcLine = ^uint64(0)
	h.wcMiss, h.wcHit = 0, 0
	h.wcLast = false
}

// WCStats returns the write-combining buffer's flush and merge counts.
func (h *Hierarchy) WCStats() (flushes, merges uint64) { return h.wcMiss, h.wcHit }

// Access performs one data access.
//
// Activity convention (load-bearing for the EM model — see DESIGN.md §2):
// the L2 component counts *array* transactions — read hits and write-back
// writes from L1 — while the miss path radiates through Bus and DRAM
// instead (fills stream through the fill buffers and bypass the data
// array). This makes the difference vector of an off-chip access (Bus,
// DRAM) disjoint from that of an L2 hit (L2), which is what produces the
// paper's LDM/LDL2 ≈ LDM/ADD + LDL2/ADD relation, and it makes a store
// stream that hits in L2 generate two L2 array transactions per store
// (fetch read + later dirty write-back) — the paper's STL2 signature.
func (h *Hierarchy) Access(addr uint64, write bool) Result {
	var res Result
	res.Level, res.Latency = h.AccessInto(addr, write, &res.Activity)
	return res
}

// AccessInto is Access with the activity accumulated directly into act,
// avoiding the Result copy in the simulator's per-instruction hot path.
func (h *Hierarchy) AccessInto(addr uint64, write bool, act *activity.Vector) (Level, int) {
	act.Add(activity.L1D, 1)
	h.wcLast = false

	if write {
		// The common store outcome — an L1 hit — is resolved with a single
		// fused probe+access set walk; only on an L1 miss does the
		// streaming-store check below need the L2 probe.
		if h.l1.AccessHit(addr, true) {
			h.hits[LevelL1]++
			return LevelL1, h.cfg.L1HitCycles
		}
		// Streaming stores: a store that misses both caches goes through
		// the write-combining buffer instead of allocating — consecutive
		// stores to one line merge into a single posted line write with no
		// read-for-ownership. This is why the paper's STM is no easier to
		// distinguish than LDM (Figure 9; the authors note the surprise):
		// the store sweep produces one off-chip write per line, just as the
		// load sweep produces one fetch per line.
		if !h.l2.Contains(addr) {
			h.hits[LevelMem]++
			line := h.l1.LineAddr(addr)
			h.wcLast = true
			if line != h.wcLine {
				h.wcLine = line
				h.wcMiss++
				dr := h.mem.Access(addr, true)
				act.Add(activity.BusWr, 1+dr.Events)
				// A sustained store stream is write-bandwidth limited: the
				// buffer drains one line per off-chip write.
				return LevelMem, h.cfg.BusCycles + dr.Latency
			}
			h.wcHit++
			return LevelMem, h.cfg.L1HitCycles // merged into the open buffer
		}
	}

	r1 := h.l1.Access(addr, write)
	if r1.Hit {
		h.hits[LevelL1]++
		return LevelL1, h.cfg.L1HitCycles
	}

	// L1 miss: a dirty victim writes back into L2 first. The write-back
	// carries the full line, so an L2 miss allocates without fetching.
	// Write-backs are posted through the write buffer and radiate with
	// about half the array energy of a demand read (see DESIGN.md §2).
	if r1.WriteBack {
		act.Add(activity.L2, l2WriteBackEventWeight)
		wb := h.l2.Access(r1.WriteBackAddr, true)
		if wb.WriteBack {
			dr := h.mem.Access(wb.WriteBackAddr, true)
			act.Add(activity.BusWr, busWriteEventWeight*(1+dr.Events))
		}
	}

	// Fetch the line from L2.
	r2 := h.l2.Access(addr, false)
	if r2.Hit {
		h.hits[LevelL2]++
		act.Add(activity.L2, 1) // data array read hit
		return LevelL2, h.cfg.L2HitCycles
	}

	// L2 miss: dirty L2 victim goes to memory, then the line comes from
	// DRAM through the fill buffers (no L2 array event).
	h.hits[LevelMem]++
	if r2.WriteBack {
		dr := h.mem.Access(r2.WriteBackAddr, true)
		act.Add(activity.BusWr, busWriteEventWeight*(1+dr.Events))
	}
	act.Add(activity.Bus, 1)
	dr := h.mem.Access(addr, false)
	act.Add(activity.DRAM, dr.Events)
	return LevelMem, h.cfg.L2HitCycles + h.cfg.BusCycles + dr.Latency
}

// AccessRepeat performs the access only when it provably repeats the
// previous one, and reports whether it did. Two cases qualify:
//
//   - addr lies in the line L1's previous access left resident: the
//     access is an L1 hit on that way, whatever the previous access's
//     level was.
//   - the previous access was a streaming store through the
//     write-combining buffer and this is a store to the same line: it
//     still misses both caches, which nothing has touched since, and
//     merges into the open buffer.
//
// Either way its effects — LRU stamp, dirty bit, cache Stats,
// ServiceCounts, WCStats, the one L1D event added to act — are exactly
// AccessInto's, and it is served in L1HitCycles. Otherwise it changes
// nothing and the caller must use AccessInto. It relies on every access
// going through the hierarchy; L1 and L2 are exposed for inspection.
func (h *Hierarchy) AccessRepeat(addr uint64, write bool, act *activity.Vector) bool {
	switch {
	case h.wcLast && write && h.l1.LineAddr(addr) == h.wcLine:
		h.hits[LevelMem]++
		h.wcHit++
	case h.l1.RepeatHit(addr, write):
		h.hits[LevelL1]++
		h.wcLast = false
	default:
		return false
	}
	act.Add(activity.L1D, 1)
	return true
}
