package savat

import "sync"

// workerScratchCap bounds the process-wide free list of campaign worker
// scratches. A warm scratch holds one worker's measurement working set
// — about 4.2 MiB for the paper's 1 s capture, about 1.1 MiB for a
// 0.25 s one — so the bound caps what idle campaigns keep at ~34 MiB
// while covering every worker of two concurrent campaigns on a
// four-core machine.
const workerScratchCap = 8

// workerScratches is the free list campaign workers take their
// scratches from, so a warm process (savatd, a distance sweep) reuses
// allocated working sets instead of allocating and zeroing them again
// per campaign. It is deliberately not a sync.Pool: that would empty at
// every GC, which is exactly when a warm working set is worth keeping.
var workerScratches = &scratchFreeList{}

// scratchFreeList is a LIFO of at most workerScratchCap idle scratches.
// Scratches on it are owned by no one; get hands one to exactly one
// owner.
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

// put keeps each scratch while the list has room; the rest are left to
// the GC. Callers must guarantee no worker still measures through the
// scratches.
func (l *scratchFreeList) put(ss []*MeasureScratch) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range ss {
		if len(l.free) < workerScratchCap {
			l.free = append(l.free, s)
		}
	}
}

// scratchLease records the scratches one campaign's workers took from
// workerScratches, so the campaign can hand them all back once its last
// worker has stopped. take is safe for concurrent use by the workers.
type scratchLease struct {
	mu   sync.Mutex
	held []*MeasureScratch
}

func (l *scratchLease) take() *MeasureScratch {
	s := workerScratches.get()
	l.mu.Lock()
	l.held = append(l.held, s)
	l.mu.Unlock()
	return s
}

// release returns every leased scratch to the free list. Call it only
// after every worker that took one has stopped.
func (l *scratchLease) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	workerScratches.put(l.held)
	l.held = nil
}
