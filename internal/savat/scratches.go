package savat

import "sync"

// workerScratchCap bounds the process-wide free list of campaign
// scratches. A warm scratch holds one cell's measurement working set —
// about 4.2 MiB for the paper's 1 s capture, about 1.1 MiB for a
// 0.25 s one — so the bound caps what idle campaigns keep at ~34 MiB
// while covering every computing cell of two concurrent campaigns on a
// four-core machine.
const workerScratchCap = 8

// workerScratches is the free list each computed campaign cell borrows
// its scratch from for the cell's duration, so a warm process (savatd,
// a distance sweep) reuses allocated working sets instead of allocating
// and zeroing them again per cell or per campaign. It is deliberately
// not a sync.Pool: that would empty at every GC, which is exactly when
// a warm working set is worth keeping.
var workerScratches = &scratchFreeList{}

// scratchFreeList is a LIFO of at most workerScratchCap idle scratches.
// Scratches on it are owned by no one; get hands one to exactly one
// owner, which hands it back with put once it no longer measures
// through it.
type scratchFreeList struct {
	mu   sync.Mutex
	free []*MeasureScratch
}

// get returns an idle scratch, or a fresh one when none is left.
func (l *scratchFreeList) get() *MeasureScratch {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return NewMeasureScratch()
	}
	s := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return s
}

// put keeps the scratch while the list has room, and otherwise leaves
// it to the GC. The caller must no longer measure through it.
func (l *scratchFreeList) put(s *MeasureScratch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.free) < workerScratchCap {
		l.free = append(l.free, s)
	}
}
