// Package engine executes measurement campaigns: a worker pool fans out
// the cells of a (row, col, repetition) grid, a content-addressed
// per-cell result cache (an exactly-once memo.LRU, optionally backed by
// the durable segment log of internal/store) makes campaigns resumable
// and computes each distinct cell once across concurrent campaigns,
// transient cell failures are retried with exponential backoff, and
// progress is streamed as typed events with a running Stats snapshot.
//
// Resuming an interrupted campaign is rerunning it: every cell is a
// deterministic function of its content key, so the cells the first
// run finished come back as cache hits and only the rest are computed.
//
// The engine is deliberately ignorant of what a cell computes: the
// caller provides the compute function and the cache-key material that
// identifies each cell's result. The savat package builds its
// pairwise-SAVAT campaigns on top; any grid of deterministic,
// independent float-valued cells schedules the same way.
package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/workpool"
)

// Spec describes one campaign: the grid shape, the identity of its
// results, and how to compute a cell.
type Spec struct {
	// Rows, Cols, Reps define the cell grid; every combination in
	// [0,Rows)×[0,Cols)×[0,Reps) is one cell.
	Rows, Cols, Reps int
	// Key returns the cache-key material identifying one cell's result
	// (hashed with Key before use). Nil disables result caching.
	Key func(row, col, rep int) string
	// Compute produces the value of one cell. It must be deterministic
	// in (row, col, rep) — resumability and cache correctness depend on
	// it — and should honor ctx cancellation where it can. state is the
	// calling worker's NewWorkerState value (nil without one); it must
	// never influence the computed value.
	Compute func(ctx context.Context, state any, row, col, rep int) (float64, error)

	// NewWorkerState, when non-nil, is called once per worker goroutine
	// at the start of a Run; the value it returns is handed to every
	// Compute call that worker makes. It lets cells reuse expensive
	// per-worker scratch (buffers, plans, caches) without locking —
	// state is never shared between workers.
	NewWorkerState func() any
}

func (s Spec) validate() error {
	if s.Rows <= 0 || s.Cols <= 0 || s.Reps <= 0 {
		return fmt.Errorf("engine: bad grid %dx%dx%d", s.Rows, s.Cols, s.Reps)
	}
	if s.Compute == nil {
		return fmt.Errorf("engine: nil Compute")
	}
	return nil
}

// Every compute error is treated as transient: a cell gets maxAttempts
// attempts, the retries backing off exponentially from retryBackoff.
const (
	maxAttempts  = 3
	retryBackoff = 10 * time.Millisecond
)

// Options configure an Engine.
type Options struct {
	// Parallelism bounds concurrent cell computations (0 = GOMAXPROCS).
	Parallelism int
	// Cache memoizes cell results across Run calls and — when backed by
	// a store (NewStoreCache) — across processes; it is what resumes an
	// interrupted campaign. Engines sharing one Cache also compute each
	// distinct cell once while their campaigns run concurrently; the
	// others wait for that result and count it as Stats.Deduped. Nil
	// uses a fresh in-memory cache of DefaultCacheCapacity.
	Cache *Cache
	// Monitor, when non-nil, receives one ProgressEvent per finished
	// cell, in completion order: each event's Stats.Done is one more
	// than the last, so the final event carries the run's final Stats.
	// Run closes it when the campaign ends, so an Engine with a
	// Monitor serves exactly one Run; drain the channel until it closes —
	// sends block.
	Monitor chan<- ProgressEvent
}

// Engine runs campaigns with one shared cache and cumulative stats.
// An Engine is cheap; sharing one across Run calls shares its cache.
type Engine struct {
	opts Options

	mu  sync.Mutex
	cum Stats
}

// New returns an engine with defaults applied.
func New(opts Options) *Engine {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Cache == nil {
		opts.Cache = NewCache(DefaultCacheCapacity)
	}
	bindCacheGauges(opts.Cache)
	return &Engine{opts: opts}
}

// Cache returns the engine's result cache.
func (e *Engine) Cache() *Cache { return e.opts.Cache }

// Stats returns the cumulative statistics over all completed Run calls.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cum
}

// Result is one campaign's output.
type Result struct {
	// Values holds every cell value, indexed [row][col][rep].
	Values [][][]float64
	// Stats are the final scheduling statistics for this run.
	Stats Stats
}

// run carries the mutable state of one Run call.
type run struct {
	eng      *Engine
	spec     Spec
	start    time.Time
	values   [][][]float64
	inflight int64 // cells currently in compute (atomic)

	mu      sync.Mutex
	st      Stats
	firstEr error

	// sendMu keeps Monitor sends in the order record numbered them, so
	// the last event received carries the campaign's final Stats.
	sendMu sync.Mutex
}

// Run executes the campaign described by spec, honoring ctx: on
// cancellation no new cells start, in-flight cells finish (landing in
// the cache, so a rerun resumes from them), and the context's error is
// returned. A permanent cell failure (retries exhausted) likewise stops
// the campaign. When Options.Monitor is set it is closed before Run
// returns.
func (e *Engine) Run(ctx context.Context, spec Spec) (*Result, error) {
	res, err := e.runCampaign(ctx, spec)
	if e.opts.Monitor != nil {
		close(e.opts.Monitor)
	}
	return res, err
}

func (e *Engine) runCampaign(ctx context.Context, spec Spec) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}

	total := spec.Rows * spec.Cols * spec.Reps
	r := &run{
		eng:    e,
		spec:   spec,
		start:  time.Now(),
		values: make([][][]float64, spec.Rows),
		st:     Stats{Total: total},
	}
	for i := range r.values {
		r.values[i] = make([][]float64, spec.Cols)
		for j := range r.values[i] {
			row := make([]float64, spec.Reps)
			for k := range row {
				row[k] = math.NaN()
			}
			r.values[i][j] = row
		}
	}

	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(e.opts.Parallelism)
	for w := 0; w < e.opts.Parallelism; w++ {
		reserve := w > 0
		go func() {
			defer wg.Done()
			if reserve {
				// Campaign workers beyond the first occupy shared worker-pool
				// slots for their lifetime, so per-cell transform fan-out
				// (specan's segment feeds) plus campaign parallelism never
				// oversubscribes the machine: every concurrent executor past
				// the first holds a pool token, whoever it belongs to.
				_, release := workpool.Default.Reserve(1)
				defer release()
			}
			var state any
			if spec.NewWorkerState != nil {
				state = spec.NewWorkerState()
			}
			for idx := range work {
				if runCtx.Err() != nil {
					continue // drain: cancellation stops new cells promptly
				}
				if err := r.cell(runCtx, idx, state); err != nil {
					r.fail(err)
					cancel()
				}
			}
		}()
	}
feed:
	for idx := 0; idx < total; idx++ {
		select {
		case work <- idx:
		case <-runCtx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()

	r.mu.Lock()
	r.st.Elapsed = time.Since(r.start)
	st := r.st
	firstErr := r.firstEr
	r.mu.Unlock()

	e.mu.Lock()
	e.cum.Total += st.Total
	e.cum.Done += st.Done
	e.cum.Cached += st.Cached
	e.cum.Computed += st.Computed
	e.cum.Deduped += st.Deduped
	e.cum.Retries += st.Retries
	e.cum.Elapsed += st.Elapsed
	e.mu.Unlock()

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: campaign interrupted after %d/%d cells: %w", st.Done, st.Total, err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Result{Values: r.values, Stats: st}, nil
}

// cell completes one grid cell through the cache — a hit, a wait for
// an identical cell in flight, or this worker's bounded-retry compute —
// then does its accounting and eventing. state is the owning worker's
// NewWorkerState value (nil without one).
func (r *run) cell(ctx context.Context, idx int, state any) error {
	row, col, rep := r.unflatten(idx)
	ev := ProgressEvent{Row: row, Col: col, Rep: rep}
	compute := func() (float64, error) {
		atomic.AddInt64(&r.inflight, 1)
		mInFlight.Add(1)
		begin := time.Now()
		v, attempts, err := r.compute(ctx, state, row, col, rep)
		ev.Duration, ev.Attempts = time.Since(begin), attempts
		atomic.AddInt64(&r.inflight, -1)
		mInFlight.Add(-1)
		return v, err
	}

	var v float64
	var err error
	src := computed
	if r.spec.Key == nil {
		v, err = compute()
	} else {
		v, src, err = r.eng.opts.Cache.get(ctx, Key(r.spec.Key(row, col, rep)), compute)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil // cancellation, not a cell failure
		}
		return err
	}
	switch src {
	case cached:
		ev.Cached = true
		mCellsCached.Inc()
	case deduped:
		ev.Deduped = true
		mCellsDeduped.Inc()
	default:
		mCellsComputed.Inc()
		mCellLatency.Observe(ev.Duration)
	}
	r.record(row, col, rep, v, ev)
	return nil
}

// compute runs the spec's compute function with bounded retry and
// exponential, context-aware backoff.
func (r *run) compute(ctx context.Context, state any, row, col, rep int) (float64, int, error) {
	backoff := retryBackoff
	for attempt := 1; ; attempt++ {
		v, err := r.spec.Compute(ctx, state, row, col, rep)
		if err == nil {
			return v, attempt, nil
		}
		if ctx.Err() != nil {
			return 0, attempt, ctx.Err()
		}
		if attempt >= maxAttempts {
			return 0, attempt, fmt.Errorf("engine: cell (%d,%d,%d) failed after %d attempt(s): %w",
				row, col, rep, attempt, err)
		}
		r.bumpRetries()
		select {
		case <-ctx.Done():
			return 0, attempt, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// record stores a finished cell and emits its progress event.
func (r *run) record(row, col, rep int, v float64, ev ProgressEvent) {
	r.mu.Lock()
	r.values[row][col][rep] = v
	r.st.Done++
	switch {
	case ev.Cached:
		r.st.Cached++
	case ev.Deduped:
		r.st.Deduped++
	default:
		r.st.Computed++
	}
	r.st.Elapsed = time.Since(r.start)
	ev.Stats = r.st
	ev.Health = r.healthLocked()
	if r.eng.opts.Monitor == nil {
		r.mu.Unlock()
		return
	}
	r.sendMu.Lock()
	r.mu.Unlock()
	r.eng.opts.Monitor <- ev
	r.sendMu.Unlock()
}

// healthLocked derives the pipeline-health snapshot attached to each
// progress event from the run's own accounting plus the engine cell
// latency histogram. The latency quantiles are zero when the
// observability registry is disabled; the scheduling numbers are always
// live. Callers hold r.mu.
func (r *run) healthLocked() Health {
	inFlight := int(atomic.LoadInt64(&r.inflight))
	h := Health{
		InFlight:   inFlight,
		QueueDepth: r.st.Total - r.st.Done - inFlight,
	}
	if r.st.Done > 0 {
		h.CacheHitRate = float64(r.st.Cached) / float64(r.st.Done)
	}
	h.LatencyP50, h.LatencyP90, h.LatencyP99 = mCellLatency.Quantiles(0.50, 0.90, 0.99)
	mQueueDepth.Set(int64(h.QueueDepth))
	return h
}

func (r *run) bumpRetries() {
	r.mu.Lock()
	r.st.Retries++
	r.mu.Unlock()
	mRetries.Inc()
}

func (r *run) fail(err error) {
	r.mu.Lock()
	if r.firstEr == nil {
		r.firstEr = err
	}
	r.mu.Unlock()
}

func (r *run) unflatten(idx int) (row, col, rep int) {
	rep = idx % r.spec.Reps
	idx /= r.spec.Reps
	return idx / r.spec.Cols, idx % r.spec.Cols, rep
}
