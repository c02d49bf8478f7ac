// Package dram models the main-memory device behind the off-chip bus: a
// set of banks with open-row (row-buffer) policy.
//
// Row-buffer hits complete in the CAS latency alone; row misses pay
// precharge + activate + CAS. The model reports both the latency (in core
// cycles, as configured) and the device activity events, which drive the
// DRAM radiator in the EM model. Long sequential sweeps — exactly what the
// SAVAT kernels generate — mostly hit the open row, which keeps the
// off-chip access time realistic relative to L2.
package dram

import (
	"fmt"
	"slices"
)

// Config describes the memory device, with timings in core clock cycles.
type Config struct {
	Banks    int // power of two
	RowBytes int // row-buffer size per bank, power of two
	// Timing (core cycles).
	CASCycles       int // column access on an open row
	ActivateCycles  int // row activation after precharge
	PrechargeCycles int // closing a dirty row
	BurstCycles     int // data transfer per line burst
}

// Validate reports the first configuration problem.
func (c Config) Validate() error {
	switch {
	case c.Banks <= 0 || c.Banks&(c.Banks-1) != 0:
		return fmt.Errorf("dram: banks %d not a positive power of two", c.Banks)
	case c.RowBytes <= 0 || c.RowBytes&(c.RowBytes-1) != 0:
		return fmt.Errorf("dram: row bytes %d not a positive power of two", c.RowBytes)
	case c.CASCycles <= 0 || c.ActivateCycles <= 0 || c.PrechargeCycles < 0 || c.BurstCycles <= 0:
		return fmt.Errorf("dram: non-positive timing parameters %+v", c)
	}
	return nil
}

// Stats counts device activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	Activates uint64
}

// RowHitRate returns row-buffer hits per access.
func (s Stats) RowHitRate() float64 {
	if n := s.Reads + s.Writes; n > 0 {
		return float64(s.RowHits) / float64(n)
	}
	return 0
}

// Result describes one device access.
type Result struct {
	Latency int  // core cycles until data is available
	RowHit  bool // open-row hit
	// Events is the number of device switching events for the EM model:
	// 1 per burst, +2 for precharge+activate on a row miss.
	Events float64
}

// DRAM is the memory device model.
type DRAM struct {
	cfg      Config
	openRow  []int64 // per-bank open row index, -1 = closed
	bankMask uint64
	rowShift uint
	stats    Stats
}

// New builds a device from cfg.
func New(cfg Config) (*DRAM, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &DRAM{cfg: cfg, bankMask: uint64(cfg.Banks - 1)}
	for rb := cfg.RowBytes; rb > 1; rb >>= 1 {
		d.rowShift++
	}
	d.openRow = make([]int64, cfg.Banks)
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	return d, nil
}

// MustNew is New for known-valid configurations.
func MustNew(cfg Config) *DRAM {
	d, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *DRAM) Config() Config { return d.cfg }

// Stats returns a copy of the counters.
func (d *DRAM) Stats() Stats { return d.stats }

// Reset closes all rows and zeroes statistics.
func (d *DRAM) Reset() {
	for i := range d.openRow {
		d.openRow[i] = -1
	}
	d.stats = Stats{}
}

// Access performs one line transfer (read or write) at addr.
// Banks interleave on row-sized granules: bank = (addr/RowBytes) mod Banks.
func (d *DRAM) Access(addr uint64, write bool) Result {
	row := int64(addr >> d.rowShift)
	bank := uint64(row) & d.bankMask
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	res := Result{}
	if d.openRow[bank] == row {
		d.stats.RowHits++
		res.RowHit = true
		res.Latency = d.cfg.CASCycles + d.cfg.BurstCycles
		res.Events = 1 // burst only
		return res
	}
	lat := d.cfg.ActivateCycles + d.cfg.CASCycles + d.cfg.BurstCycles
	if d.openRow[bank] >= 0 {
		lat += d.cfg.PrechargeCycles
	}
	d.openRow[bank] = row
	d.stats.Activates++
	res.Latency = lat
	res.Events = 3 // precharge/activate + burst
	return res
}

// Snapshot is an immutable copy of a device's state: its open rows and
// statistics.
type Snapshot struct {
	cfg     Config
	openRow []int64
	stats   Stats
}

// Bytes returns the size of the snapshot's arrays.
func (s *Snapshot) Bytes() int { return 8 * cap(s.openRow) }

// Save returns a snapshot of the device's state.
func (d *DRAM) Save() *Snapshot {
	return &Snapshot{cfg: d.cfg, openRow: slices.Clone(d.openRow), stats: d.stats}
}

// Restore puts the device in the state s was saved in. It panics when
// s was saved from a device of another configuration.
func (d *DRAM) Restore(s *Snapshot) {
	if s.cfg != d.cfg {
		panic(fmt.Sprintf("dram: restoring a snapshot of %+v", s.cfg))
	}
	copy(d.openRow, s.openRow)
	d.stats = s.stats
}
