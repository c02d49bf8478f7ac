// Package cache implements a set-associative, write-back, write-allocate
// cache model with true-LRU replacement.
//
// The model is behavioural, not timed: each access reports exactly which
// transactions it caused (hit, fill from below, dirty write-back to below).
// Timing and per-transaction switching energy are assigned by the levels
// above (internal/memhier and internal/machine), which is what the SAVAT
// methodology needs — the paper's STL2 discussion hinges on a store hit in
// L2 generating *two* L2 transactions (fetch into L1 plus a later dirty
// write-back), and that behaviour falls out of this model naturally.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	Name      string // e.g. "L1D"
	SizeBytes int    // total capacity
	Assoc     int    // ways per set
	LineBytes int    // line size (power of two)
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0:
		return fmt.Errorf("cache %s: non-positive size %d", c.Name, c.SizeBytes)
	case c.Assoc <= 0:
		return fmt.Errorf("cache %s: non-positive associativity %d", c.Name, c.Assoc)
	case c.LineBytes <= 0 || c.LineBytes&(c.LineBytes-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a positive power of two", c.Name, c.LineBytes)
	case c.SizeBytes%(c.Assoc*c.LineBytes) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by assoc*line %d", c.Name, c.SizeBytes, c.Assoc*c.LineBytes)
	}
	sets := c.SizeBytes / (c.Assoc * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.Assoc * c.LineBytes) }

// Stats counts cache activity since construction or Reset.
type Stats struct {
	Reads       uint64
	Writes      uint64
	ReadHits    uint64
	WriteHits   uint64
	Fills       uint64 // lines brought in from below
	WriteBacks  uint64 // dirty lines evicted to below
	CleanEvicts uint64
}

// Misses returns total read+write misses.
func (s Stats) Misses() uint64 { return s.Reads + s.Writes - s.ReadHits - s.WriteHits }

// Accesses returns total accesses.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// MissRate returns misses/accesses, or 0 with no accesses.
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses()) / float64(a)
	}
	return 0
}

// Result describes the consequences of one access at this level.
type Result struct {
	Hit           bool
	Fill          bool   // line was allocated (miss): one read transaction below
	WriteBack     bool   // a dirty victim was evicted: one write transaction below
	WriteBackAddr uint64 // line-aligned address of the written-back victim
}

// vtagValid marks a resident way in the packed tag array. A tag is
// addr >> (lineShift + log2(sets)), so for any address below 2⁶³ the
// tag cannot carry bit 63 itself and the packed word is unambiguous; a
// zero word means "invalid way". (Only the degenerate 1-set,
// 1-byte-line configuration could see bit-63 tags, and only from
// addresses at the very top of the 64-bit space.)
const vtagValid = uint64(1) << 63

// Cache is one set-associative cache level.
//
// Way state is kept structure-of-arrays: the packed valid|tag words of a
// set are adjacent in one flat uint64 array, so the per-access walk — the
// hottest loop in the whole simulator — is a run of single-word compares
// over one or two host cache lines, with LRU stamps and dirty bits in
// side arrays touched only on a hit or fill. Construction is a handful
// of flat allocations and the per-access set lookup is pure index
// arithmetic.
type Cache struct {
	cfg       Config
	vtags     []uint64 // nsets × assoc, set-major; tag|vtagValid, or 0 when invalid
	lru       []uint64 // larger = more recently used
	dirty     []bool
	setEpoch  []uint32 // per-set epoch; stale sets are cleared lazily on first touch
	assoc     int
	setsMask  uint64
	lineShift uint
	tagShift  uint // log2(sets)
	stamp     uint64
	epoch     uint32
	stats     Stats
	// from is the snapshot the cache was last restored from (nil after
	// New or Reset): a set not yet touched in the current epoch holds
	// the ways from keeps for it, copied in on its first touch.
	from *Snapshot

	// The line (addr >> lineShift) of the most recent access that left
	// a line resident, and the way slot holding it; lastSlot < 0 when
	// there is none. Every access that changes residency passes through
	// Access or AccessHit and updates the pair, so the line is still in
	// that slot until the next one: RepeatHits relies on it.
	lastLine uint64
	lastSlot int
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	nsets := cfg.Sets()
	c := &Cache{
		cfg:      cfg,
		vtags:    make([]uint64, nsets*cfg.Assoc),
		lru:      make([]uint64, nsets*cfg.Assoc),
		dirty:    make([]bool, nsets*cfg.Assoc),
		setEpoch: make([]uint32, nsets),
		assoc:    cfg.Assoc,
		setsMask: uint64(nsets - 1),
		lastSlot: -1,
	}
	for ls := cfg.LineBytes; ls > 1; ls >>= 1 {
		c.lineShift++
	}
	c.tagShift = uint(popcount(c.setsMask))
	return c, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Reset invalidates all lines and zeroes the statistics. Invalidation
// is by epoch bump: a set's ways are cleared lazily on its first touch
// in the new epoch, so Reset is O(1) instead of a multi-megabyte clear
// of the way arrays (an L2 model is reset before every simulated run).
// It drops the snapshot the cache was restored from, if any.
func (c *Cache) Reset() {
	c.newEpoch()
	c.from = nil
	c.stats = Stats{}
	c.stamp = 0
	c.lastSlot = -1
}

// newEpoch makes every set stale, so its first touch starts it over.
func (c *Cache) newEpoch() {
	if c.epoch == ^uint32(0) {
		// Epoch wrap: a set last touched 2³² epochs ago would look
		// current again, so every set is marked stale for real. Once
		// per 2³² resets.
		clear(c.setEpoch)
		c.epoch = 0
	}
	c.epoch++
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) index(addr uint64) (set uint64, tag uint64) {
	l := addr >> c.lineShift
	return l & c.setsMask, l >> c.tagShift
}

// ways returns the packed valid|tag words of one set, starting the set
// first if it has not been touched in the current epoch.
func (c *Cache) ways(set uint64) []uint64 {
	base := int(set) * c.assoc
	vt := c.vtags[base : base+c.assoc]
	if c.setEpoch[set] != c.epoch {
		c.start(set, vt)
	}
	return vt
}

// start gives a stale set its state at the start of the epoch: the ways
// the snapshot the cache was restored from holds for it, or none.
func (c *Cache) start(set uint64, vt []uint64) {
	n := 0
	if s := c.from; s != nil {
		// A set holds a few ways: element loops beat three copy calls.
		lo, hi := s.find(set)
		for base := int(set) * c.assoc; lo+n < hi; n++ {
			vt[n], c.lru[base+n], c.dirty[base+n] = s.vtags[lo+n], s.lru[lo+n], s.dirty[lo+n]
		}
	}
	clear(vt[n:])
	c.setEpoch[set] = c.epoch
}

func popcount(m uint64) int {
	n := 0
	for ; m != 0; m &= m - 1 {
		n++
	}
	return n
}

// Access performs a read (write=false) or write (write=true) of the line
// containing addr and returns the resulting transactions. On a miss the
// line is allocated (write-allocate); writes mark the line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	vt := c.ways(set)
	base := int(set) * c.assoc
	c.stamp++
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}

	want := tag | vtagValid
	for wi, v := range vt {
		if v == want {
			c.lru[base+wi] = c.stamp
			if write {
				c.dirty[base+wi] = true
				c.stats.WriteHits++
			} else {
				c.stats.ReadHits++
			}
			c.lastLine, c.lastSlot = addr>>c.lineShift, base+wi
			return Result{Hit: true}
		}
	}

	// Miss: pick the LRU victim (preferring invalid ways).
	victim := 0
	for wi, v := range vt {
		if v == 0 {
			victim = wi
			break
		}
		if c.lru[base+wi] < c.lru[base+victim] {
			victim = wi
		}
	}
	res := Result{Fill: true}
	if vt[victim] != 0 {
		if c.dirty[base+victim] {
			res.WriteBack = true
			res.WriteBackAddr = c.reconstruct(set, vt[victim]&^vtagValid)
			c.stats.WriteBacks++
		} else {
			c.stats.CleanEvicts++
		}
	}
	vt[victim] = want
	c.lru[base+victim] = c.stamp
	c.dirty[base+victim] = write
	c.stats.Fills++
	c.lastLine, c.lastSlot = addr>>c.lineShift, base+victim
	return res
}

// AccessHit performs the access only if the line containing addr is
// resident: on a hit it updates LRU, dirty state, and statistics exactly
// as Access would and returns true; on a miss it changes nothing — no
// stamp advance, no statistics — and returns false. It lets callers that
// must decide between "access this level" and "bypass this level
// entirely" (the write-combining store path in memhier) probe and access
// in one set walk instead of a Contains probe followed by a full Access.
func (c *Cache) AccessHit(addr uint64, write bool) bool {
	set, tag := c.index(addr)
	vt := c.ways(set)
	want := tag | vtagValid
	for wi, v := range vt {
		if v == want {
			c.hitSlot(int(set)*c.assoc+wi, write, 1)
			c.lastLine, c.lastSlot = addr>>c.lineShift, int(set)*c.assoc+wi
			return true
		}
	}
	return false
}

// hitSlot applies the effects of n hits on the way in slot: the LRU
// stamp advanced by n, the dirty bit on a write, and n access and hit
// counts. Only the last of n successive stamps survives in the slot, so
// one addition is exact.
func (c *Cache) hitSlot(slot int, write bool, n uint64) {
	c.stamp += n
	c.lru[slot] = c.stamp
	if write {
		c.stats.Writes += n
		c.stats.WriteHits += n
		c.dirty[slot] = true
	} else {
		c.stats.Reads += n
		c.stats.ReadHits += n
	}
}

// RepeatHits performs n ≥ 1 accesses to the line of addr only when it
// is the line of the previous access that left a line resident, which
// is then still in the way that access left it: it applies exactly the
// n hits as many Access or AccessHit calls would (LRU stamps, dirty
// bit, statistics) in O(1), without walking the set, and returns true.
// A hit on that line leaves it the previous access's line, so the n
// accesses repeat it one after another. Otherwise RepeatHits changes
// nothing and returns false. A loop that sweeps within one line pays
// one compare per line instead of a set walk per access.
func (c *Cache) RepeatHits(addr uint64, write bool, n uint64) bool {
	if c.lastSlot < 0 || addr>>c.lineShift != c.lastLine {
		return false
	}
	c.hitSlot(c.lastSlot, write, n)
	return true
}

// reconstruct rebuilds the line-aligned address from set and tag.
func (c *Cache) reconstruct(set, tag uint64) uint64 {
	return (tag<<c.tagShift | set) << c.lineShift
}

// Contains reports whether the line holding addr is currently resident
// (without touching LRU state); used by the streaming-store path in
// memhier and by tests and invariant checks.
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	want := tag | vtagValid
	for _, v := range c.ways(set) {
		if v == want {
			return true
		}
	}
	return false
}

// Dirty reports whether the line holding addr is resident and dirty.
func (c *Cache) Dirty(addr uint64) bool {
	set, tag := c.index(addr)
	want := tag | vtagValid
	for wi, v := range c.ways(set) {
		if v == want {
			return c.dirty[int(set)*c.assoc+wi]
		}
	}
	return false
}

// ResidentLines returns the number of valid lines (for occupancy checks).
func (c *Cache) ResidentLines() int {
	n := 0
	for set := range c.setEpoch {
		vt, _, _ := c.held(set)
		n += len(vt)
	}
	return n
}

// held returns the valid ways of set without starting it: its own when
// it was touched in the current epoch, else those the snapshot the
// cache was restored from keeps for it, if any. Ways fill from way 0
// and never empty before a Reset, so a set's valid ways are its first
// ones.
func (c *Cache) held(set int) (vt, lru []uint64, dirty []bool) {
	if c.setEpoch[set] == c.epoch {
		base, n := set*c.assoc, 0
		for n < c.assoc && c.vtags[base+n] != 0 {
			n++
		}
		return c.vtags[base : base+n], c.lru[base : base+n], c.dirty[base : base+n]
	}
	if c.from == nil {
		return nil, nil, nil
	}
	lo, hi := c.from.find(uint64(set))
	return c.from.vtags[lo:hi], c.from.lru[lo:hi], c.from.dirty[lo:hi]
}

// Snapshot is an immutable copy of a cache's state: the ways of every
// set that holds a line, the LRU clock, the statistics, and the slot of
// the last access. Restore starts a cache from it in O(1); any number
// of caches may be restored from one snapshot, concurrently.
type Snapshot struct {
	cfg Config
	// Set s keeps its valid ways (see held) as [start[s], start[s+1])
	// of the flat arrays, in way order.
	start      []uint32
	vtags, lru []uint64
	dirty      []bool

	stamp    uint64
	stats    Stats
	lastLine uint64
	lastSlot int
}

// find returns the range of set's ways in the flat arrays; lo == hi
// when the snapshot keeps none.
func (s *Snapshot) find(set uint64) (lo, hi int) {
	return int(s.start[set]), int(s.start[set+1])
}

// Bytes returns the size of the snapshot's arrays.
func (s *Snapshot) Bytes() int {
	return 4*cap(s.start) + 8*(cap(s.vtags)+cap(s.lru)) + cap(s.dirty)
}

// Save returns a snapshot of the cache's state. It costs two passes
// over the set index and copies only the valid ways.
func (c *Cache) Save() *Snapshot {
	s := &Snapshot{cfg: c.cfg, stamp: c.stamp, stats: c.stats, lastLine: c.lastLine, lastSlot: c.lastSlot,
		start: make([]uint32, len(c.setEpoch)+1)}
	for set := range c.setEpoch {
		vt, _, _ := c.held(set)
		s.start[set+1] = s.start[set] + uint32(len(vt))
	}
	n := s.start[len(c.setEpoch)]
	s.vtags, s.lru, s.dirty = make([]uint64, n), make([]uint64, n), make([]bool, n)
	for set := range c.setEpoch {
		vt, lru, dirty := c.held(set)
		for i, lo := 0, int(s.start[set]); i < len(vt); i++ {
			s.vtags[lo+i], s.lru[lo+i], s.dirty[lo+i] = vt[i], lru[i], dirty[i]
		}
	}
	return s
}

// Restore puts the cache in the state s was saved in, as if it had
// carried on from there: every later access, statistic and query is
// what the saved cache would give. It is O(1) — an epoch bump, as
// Reset — and a set's ways are copied in from s on its first touch.
// The set of the last access is copied at once, since RepeatHits
// reads its slot without a set walk. It panics when s was saved from
// a cache of another configuration.
func (c *Cache) Restore(s *Snapshot) {
	if s.cfg != c.cfg {
		panic(fmt.Sprintf("cache %s: restoring a snapshot of %+v", c.cfg.Name, s.cfg))
	}
	c.newEpoch()
	c.from = s
	c.stamp, c.stats, c.lastLine, c.lastSlot = s.stamp, s.stats, s.lastLine, s.lastSlot
	if c.lastSlot >= 0 {
		c.ways(uint64(c.lastSlot / c.assoc))
	}
}
