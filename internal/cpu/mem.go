package cpu

import "encoding/binary"

// Memory is a sparse paged byte-addressable data memory. It stores actual
// program data (the caches in internal/memhier model behaviour and timing
// only), so workloads like the modular-exponentiation attack demo compute
// real values.
type Memory struct {
	pages map[uint64]*[pageBytes]byte
	// Two-entry lookup cache: kernel workloads stride through a small
	// buffer, so consecutive accesses almost always land on the same page
	// and skip the map; the second (victim) entry keeps loop kernels that
	// alternate between a sweep buffer and their counters map-free even
	// when the two live on different pages.
	lastPN   uint64
	lastPage *[pageBytes]byte
	prevPN   uint64
	prevPage *[pageBytes]byte
	// The last page a load found unwritten: load sweeps over arrays that
	// are never stored to (the LD kernels' arrays) read zeros page after
	// page and skip the map too. The store that creates it clears it.
	holePN uint64
	isHole bool
}

const pageBytes = 4096

// NewMemory returns an empty memory; unwritten locations read as zero.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint64]*[pageBytes]byte)}
}

func (m *Memory) page(addr uint64, create bool) *[pageBytes]byte {
	pn := addr / pageBytes
	if m.lastPage != nil && pn == m.lastPN {
		return m.lastPage
	}
	if m.prevPage != nil && pn == m.prevPN {
		m.lastPN, m.lastPage, m.prevPN, m.prevPage = pn, m.prevPage, m.lastPN, m.lastPage
		return m.lastPage
	}
	if !create && m.isHole && pn == m.holePN {
		return nil
	}
	p := m.pages[pn]
	if p == nil {
		if !create {
			m.holePN, m.isHole = pn, true
			return nil
		}
		p = new([pageBytes]byte)
		m.pages[pn] = p
		if pn == m.holePN {
			m.isHole = false
		}
	}
	m.prevPN, m.prevPage = m.lastPN, m.lastPage
	m.lastPN, m.lastPage = pn, p
	return p
}

// Load32 reads a 32-bit little-endian word; addr is aligned down to 4.
func (m *Memory) Load32(addr uint64) uint32 {
	addr &^= 3
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	o := addr % pageBytes
	return binary.LittleEndian.Uint32(p[o : o+4])
}

// Store32 writes a 32-bit little-endian word; addr is aligned down to 4.
func (m *Memory) Store32(addr uint64, v uint32) {
	addr &^= 3
	p := m.page(addr, true)
	o := addr % pageBytes
	binary.LittleEndian.PutUint32(p[o:o+4], v)
}

// Store32Run writes v to the n words at addr, addr+step, …,
// addr+(n−1)·step, each aligned down to 4 as Store32 aligns it. All of
// them must lie on addr's page, so one page lookup serves the run.
func (m *Memory) Store32Run(addr, step, n uint64, v uint32) {
	p := m.page(addr, true)
	for o := addr % pageBytes; n > 0; n-- {
		w := o &^ 3
		binary.LittleEndian.PutUint32(p[w:w+4], v)
		o += step
	}
}

// PageCount returns the number of materialized pages.
func (m *Memory) PageCount() int { return len(m.pages) }
