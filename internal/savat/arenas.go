package savat

import (
	"sync"

	"repro/internal/arena"
)

// workerArenaCap bounds the process-wide free list of campaign worker
// arenas. A warm arena holds one worker's measurement working set —
// about 16 MiB for the paper's 1 s capture — so the bound caps what
// idle campaigns keep at ~128 MiB while covering every worker of two
// concurrent campaigns on a four-core machine.
const workerArenaCap = 8

// workerArenas is the free list campaign workers take their arenas
// from, so a warm process (savatd, a distance sweep) reuses carved
// slabs instead of carving and zeroing its working set again per
// campaign. It is deliberately not a sync.Pool: that would empty at
// every GC, which is exactly when a large working set is worth keeping.
var workerArenas = &arenaFreeList{}

// arenaFreeList is a LIFO of at most workerArenaCap idle arenas.
// Arenas on it are owned by no one; get hands one to exactly one owner.
type arenaFreeList struct {
	mu   sync.Mutex
	free []*arena.Arena
}

// get returns an idle arena, or a fresh one when none is left.
func (l *arenaFreeList) get() *arena.Arena {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return arena.New()
	}
	a := l.free[n-1]
	l.free[n-1] = nil
	l.free = l.free[:n-1]
	return a
}

// put resets each arena — retiring every buffer its last owner carved
// (see internal/arena's lifetime rules) — and keeps it while the list
// has room; the rest are left to the GC. Callers must guarantee nothing
// carved from the arenas is still live.
func (l *arenaFreeList) put(as []*arena.Arena) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, a := range as {
		a.Reset()
		if len(l.free) < workerArenaCap {
			l.free = append(l.free, a)
		}
	}
}

// arenaLease records the arenas one campaign's workers took from
// workerArenas, so the campaign can hand them all back once its last
// worker has stopped. take is safe for concurrent use by the workers.
type arenaLease struct {
	mu   sync.Mutex
	held []*arena.Arena
}

func (l *arenaLease) take() *arena.Arena {
	a := workerArenas.get()
	l.mu.Lock()
	l.held = append(l.held, a)
	l.mu.Unlock()
	return a
}

// release returns every leased arena to the free list. Call it only
// after every worker that took one has stopped.
func (l *arenaLease) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	workerArenas.put(l.held)
	l.held = nil
}
