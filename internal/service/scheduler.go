package service

import (
	"context"
	"time"

	"repro/internal/engine"
	"repro/internal/savat"
)

// scheduleLocked grants free run slots to queued jobs until MaxActive
// campaigns run or the queue is empty. Callers hold s.mu.
//
// Slot order is fair across tenants first: among queued jobs, the one
// whose tenant has been granted the fewest run slots so far (running
// and completed campaigns both count) wins, so a tenant submitting
// fifty campaigns cannot starve one submitting a single campaign. Ties
// fall to higher Priority, then to submission order (FIFO).
func (s *Server) scheduleLocked() {
	for s.active < s.opts.MaxActive {
		j := s.pickLocked()
		if j == nil {
			return
		}
		s.startLocked(j)
	}
}

// pickLocked selects the next queued job under the fairness policy, or
// nil when nothing is queued. It scans only s.queued, dropping the jobs
// that left the queue since the last pick (started or cancelled), and
// allocates nothing, so a grant costs the same however many jobs have
// run. Callers hold s.mu.
func (s *Server) pickLocked() *job {
	var best *job
	kept := s.queued[:0]
	for _, j := range s.queued {
		if j.state != StateQueued {
			continue
		}
		kept = append(kept, j)
		if best == nil || s.queuedBefore(j, best) {
			best = j
		}
	}
	clear(s.queued[len(kept):])
	s.queued = kept
	return best
}

// queuedBefore reports whether a should be scheduled before b: fewest
// slots granted to its tenant so far, then higher priority, then
// earlier submission. Callers hold s.mu.
func (s *Server) queuedBefore(a, b *job) bool {
	if la, lb := s.granted[a.tenant], s.granted[b.tenant]; la != lb {
		return la < lb
	}
	if a.priority != b.priority {
		return a.priority > b.priority
	}
	return a.seq < b.seq
}

// startLocked transitions a queued job to running, counts the slot
// against its tenant, and launches its campaign goroutine. Callers
// hold s.mu.
func (s *Server) startLocked(j *job) {
	ctx, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.started = time.Now()
	j.cancel = cancel
	s.active++
	s.granted[j.tenant]++

	s.wg.Add(1)
	go s.runJob(ctx, j)
}

// progress records one engine progress event in the job's history and
// hands it to the live subscriptions. The engine calls it once per
// finished cell, never concurrently, and not after the campaign
// returns, so the job finishes only after every event reached its
// subscribers.
func (s *Server) progress(j *job, ev engine.ProgressEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.events = append(j.events, ev)
	j.stats = ev.Stats
	j.health = ev.Health
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
			// A subscriber that stopped reading loses events rather
			// than stalling the campaign; its buffer covers the whole
			// grid, so this only fires for abandoned readers.
		}
	}
}

// runJob executes one campaign and finishes the job.
func (s *Server) runJob(ctx context.Context, j *job) {
	defer s.wg.Done()
	defer j.cancel()

	res, err := savat.RunSpecContext(ctx, j.spec, engine.Options{
		Parallelism: s.opts.Parallelism,
		Cache:       s.cache,
		Monitor:     func(ev engine.ProgressEvent) { s.progress(j, ev) },
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.active--
	switch {
	case err == nil:
		s.finishLocked(j, StateDone, res, nil)
	case ctx.Err() != nil:
		// Cancelled via Cancel or Close. Completed cells are already in
		// the shared result cache, so a later submission of the same
		// spec resumes from them.
		s.finishLocked(j, StateCancelled, nil, context.Canceled)
	default:
		s.finishLocked(j, StateFailed, nil, err)
	}
	s.scheduleLocked()
}
