package cpu

import "encoding/binary"

// Memory is a sparse paged byte-addressable data memory. It stores actual
// program data (the caches in internal/memhier model behaviour and timing
// only), so workloads like the modular-exponentiation attack demo compute
// real values.
type Memory struct {
	pages map[uint64]*[pageBytes]byte
	// shared holds the pages of the snapshot the memory was restored
	// from (see CPU.Restore), which other memories may hold too: a
	// page found only here is read in place and cloned into pages on
	// its first store.
	shared map[uint64]*[pageBytes]byte
	// Two-entry lookup cache: kernel workloads stride through a small
	// buffer, so consecutive accesses almost always land on the same page
	// and skip the map; the second (victim) entry keeps loop kernels that
	// alternate between a sweep buffer and their counters map-free even
	// when the two live on different pages. It holds pages of the
	// memory's own only, so a store through it never writes a shared page.
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
		sp := m.shared[pn]
		switch {
		case sp != nil && !create:
			return sp
		case sp != nil:
			p = new([pageBytes]byte)
			*p = *sp
		case !create:
			m.holePN, m.isHole = pn, true
			return nil
		default:
			p = new([pageBytes]byte)
			if pn == m.holePN {
				m.isHole = false
			}
		}
		m.pages[pn] = p
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
func (m *Memory) PageCount() int {
	n := len(m.pages)
	for pn := range m.shared {
		if m.pages[pn] == nil {
			n++
		}
	}
	return n
}

// view returns every page the memory holds: its own, and the shared
// ones it has not cloned.
func (m *Memory) view() map[uint64]*[pageBytes]byte {
	v := make(map[uint64]*[pageBytes]byte, len(m.pages)+len(m.shared))
	for pn, p := range m.shared {
		v[pn] = p
	}
	for pn, p := range m.pages {
		v[pn] = p
	}
	return v
}

// Equal reports whether two memories hold the same pages with the same
// contents.
func (m *Memory) Equal(o *Memory) bool {
	mv, ov := m.view(), o.view()
	if len(mv) != len(ov) {
		return false
	}
	for pn, p := range mv {
		if q, ok := ov[pn]; !ok || *p != *q {
			return false
		}
	}
	return true
}
