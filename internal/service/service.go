// Package service runs measurement campaigns as long-lived jobs behind
// an HTTP JSON API (cmd/savatd). A Server owns one content-addressed
// result cache shared by every campaign it runs; the cache deduplicates
// cells in flight too, so concurrent submissions that overlap —
// identical campaigns, or campaigns sharing cells — compute each
// distinct cell exactly once between them. Jobs are queued with per-tenant fair
// scheduling, and stream typed progress events while they run. Every
// finished cell lands in the shared cache under its content key, so a
// cancelled campaign resumes where it stopped when the same spec is
// submitted again — across server restarts too when the cache is
// durable (Options.StateDir).
//
// The unit of work everywhere is savat.CampaignSpec: the HTTP layer
// unmarshals one from request bodies, Submit validates it with the same
// savat-side call the CLI uses, and its fingerprint identifies the
// job's campaign.
package service

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/savat"
)

// Sentinel errors; test with errors.Is.
var (
	// ErrNotFound reports an unknown job id.
	ErrNotFound = errors.New("service: no such campaign")
	// ErrNotDone reports a result request for a campaign that has not
	// finished successfully.
	ErrNotDone = errors.New("service: campaign has not completed")
	// ErrClosed reports a submission to a server that is shutting down.
	ErrClosed = errors.New("service: server is closed")
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: accepted, waiting for a run slot.
	StateQueued State = "queued"
	// StateRunning: the campaign is executing.
	StateRunning State = "running"
	// StateDone: finished successfully; the result is available.
	StateDone State = "done"
	// StateFailed: finished with an error (recorded on the job).
	StateFailed State = "failed"
	// StateCancelled: cancelled before completion. Completed cells stay
	// in the server's result cache, so resubmitting the same spec
	// resumes instead of restarting.
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Options configure a Server.
type Options struct {
	// StateDir, when non-empty, roots the server's persistent state:
	// the durable layer of the result cache (StateDir/cache). Empty
	// keeps the cache in memory — cancelled jobs still resume when
	// resubmitted (while their cells stay resident), but nothing
	// survives a server restart.
	StateDir string
	// MaxActive bounds concurrently running campaigns (0 = 2). Each
	// running campaign has its own Parallelism workers and the cores are
	// shared, so raising this trades per-campaign latency for fairness,
	// not for extra throughput.
	MaxActive int
	// Parallelism is each campaign's worker count (0 = GOMAXPROCS).
	Parallelism int
	// CacheCapacity is the shared result cache's in-memory entry bound
	// (0 = engine.DefaultCacheCapacity).
	CacheCapacity int
}

// Job is a point-in-time snapshot of one campaign job, as served by
// the API. Fields carry explicit json tags: this is wire format.
type Job struct {
	ID          string             `json:"id"`
	Tenant      string             `json:"tenant,omitempty"`
	Priority    int                `json:"priority,omitempty"`
	State       State              `json:"state"`
	Spec        savat.CampaignSpec `json:"spec"`
	Fingerprint string             `json:"fingerprint"`
	Created     time.Time          `json:"created"`
	Started     time.Time          `json:"started"`
	Finished    time.Time          `json:"finished"`
	Error       string             `json:"error,omitempty"`
	Stats       engine.Stats       `json:"stats"`
	Health      engine.Health      `json:"health"`
}

// job is the server-side state behind a Job snapshot. Mutable fields
// are guarded by the owning Server's mu.
type job struct {
	id       string
	tenant   string
	priority int
	seq      int // submission order, the scheduler's FIFO tie-break
	spec     savat.CampaignSpec
	fp       string
	state    State
	created  time.Time
	started  time.Time
	finished time.Time
	err      error
	cancel   context.CancelFunc
	stats    engine.Stats
	health   engine.Health
	events   []engine.ProgressEvent
	subs     map[chan engine.ProgressEvent]struct{}
	result   *savat.MatrixStats
	done     chan struct{} // closed when the job reaches a terminal state
}

// Server runs campaign jobs. Create one with New, serve its API with
// Handler, and Close it to shut down.
type Server struct {
	opts  Options
	cache *engine.Cache

	mu      sync.Mutex
	jobs    map[string]*job
	order   []*job // submission order, for List
	active  int
	nextSeq int
	closed  bool
	wg      sync.WaitGroup
}

// New builds a Server. With a StateDir, the shared result cache gets
// its durable layer under StateDir/cache: the append-only segment log
// of internal/store, batching cell writes off the campaign workers'
// path. Close flushes it.
func New(opts Options) (*Server, error) {
	if opts.MaxActive <= 0 {
		opts.MaxActive = 2
	}
	if opts.CacheCapacity <= 0 {
		opts.CacheCapacity = engine.DefaultCacheCapacity
	}
	var cache *engine.Cache
	if opts.StateDir == "" {
		cache = engine.NewCache(opts.CacheCapacity)
	} else {
		var err error
		cache, err = engine.NewStoreCache(opts.CacheCapacity, filepath.Join(opts.StateDir, "cache"))
		if err != nil {
			return nil, fmt.Errorf("service: %w", err)
		}
	}
	return &Server{
		opts:  opts,
		cache: cache,
		jobs:  make(map[string]*job),
	}, nil
}

// SubmitOptions carry the scheduling metadata of one submission.
type SubmitOptions struct {
	// Tenant groups submissions for fair scheduling: run slots are
	// granted to the queued job whose tenant currently holds the fewest
	// running campaigns. Empty is itself a tenant ("").
	Tenant string
	// Priority orders jobs within equally-loaded tenants; higher runs
	// first. Equal priorities fall back to submission order.
	Priority int
}

// Submit validates the spec, enqueues a job for it, and returns the
// job's snapshot. Identical specs submitted concurrently each get their
// own job; the shared cache, which deduplicates cells in flight, makes
// their overlap cost one campaign's compute.
func (s *Server) Submit(spec savat.CampaignSpec, opts SubmitOptions) (Job, error) {
	spec = spec.Normalized()
	if err := spec.Validate(); err != nil {
		return Job{}, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return Job{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Job{}, ErrClosed
	}
	s.nextSeq++
	j := &job{
		id:       fmt.Sprintf("c%06d", s.nextSeq),
		tenant:   opts.Tenant,
		priority: opts.Priority,
		seq:      s.nextSeq,
		spec:     spec,
		fp:       fp,
		state:    StateQueued,
		created:  time.Now(),
		subs:     make(map[chan engine.ProgressEvent]struct{}),
		done:     make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.scheduleLocked()
	return j.snapshotLocked(), nil
}

// Get returns a job snapshot.
func (s *Server) Get(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.snapshotLocked(), nil
}

// List returns every job in submission order.
func (s *Server) List() []Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Job, len(s.order))
	for i, j := range s.order {
		out[i] = j.snapshotLocked()
	}
	return out
}

// Result returns a completed job's matrix.
func (s *Server) Result(id string) (*savat.MatrixStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	if j.state != StateDone {
		return nil, fmt.Errorf("%w: %s is %s", ErrNotDone, id, j.state)
	}
	return j.result, nil
}

// Cancel stops a job: a queued job is cancelled in place, a running
// job's context is cancelled (its completed cells stay in the result
// cache, so resubmitting the same spec resumes). Cancelling a terminal
// job is a no-op. Returns the post-cancel snapshot.
func (s *Server) Cancel(id string) (Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	switch j.state {
	case StateQueued:
		s.finishLocked(j, StateCancelled, nil, nil)
	case StateRunning:
		j.cancel() // runJob observes the cancellation and finishes the job
	}
	return j.snapshotLocked(), nil
}

// Done returns a channel closed when the job reaches a terminal state.
func (s *Server) Done(id string) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return j.done, nil
}

// Subscribe returns a channel carrying the job's progress events: the
// full history so far, then live events as cells finish. The channel is
// closed when the job reaches a terminal state (after the final event).
// The returned stop function releases the subscription; it must be
// called once the caller stops reading. The channel's buffer covers the
// whole campaign, so a slow reader can never stall the measurement.
func (s *Server) Subscribe(id string) (<-chan engine.ProgressEvent, func(), error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	n := len(j.spec.GridEvents())
	capacity := n*n*j.spec.Repeats + 64
	ch := make(chan engine.ProgressEvent, capacity)
	for _, ev := range j.events {
		ch <- ev
	}
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.subs[ch] = struct{}{}
	stop := func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		if _, live := j.subs[ch]; live {
			delete(j.subs, ch)
			close(ch)
		}
	}
	return ch, stop, nil
}

// Close stops the server: no new submissions, queued jobs are
// cancelled, running campaigns are cancelled, Close
// blocks until they have wound down, and the shared result cache's
// durable layer is flushed and released.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	for _, j := range s.order {
		switch j.state {
		case StateQueued:
			s.finishLocked(j, StateCancelled, nil, nil)
		case StateRunning:
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.wg.Wait()
	s.cache.Close()
}

// finishLocked moves a job to a terminal state and releases its
// subscribers. Callers hold s.mu.
func (s *Server) finishLocked(j *job, state State, result *savat.MatrixStats, err error) {
	j.state = state
	j.result = result
	j.err = err
	j.finished = time.Now()
	for ch := range j.subs {
		delete(j.subs, ch)
		close(ch)
	}
	close(j.done)
}

// snapshotLocked builds the API view of the job. Callers hold s.mu.
func (j *job) snapshotLocked() Job {
	out := Job{
		ID:          j.id,
		Tenant:      j.tenant,
		Priority:    j.priority,
		State:       j.state,
		Spec:        j.spec,
		Fingerprint: j.fp,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
		Stats:       j.stats,
		Health:      j.health,
	}
	if j.err != nil {
		out.Error = j.err.Error()
	}
	return out
}
