// Package engine executes measurement campaigns: a worker pool fans out
// the cells of a (row, col, repetition) grid, a content-addressed
// per-cell result cache (an exactly-once memo.LRU, optionally backed by
// the durable segment log of internal/store) makes campaigns resumable
// and computes each distinct cell once across concurrent campaigns, a
// cell's first failure fails the campaign, and progress is reported as
// one typed event per finished cell, with a running Stats snapshot.
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
)

// Spec describes one campaign: the grid shape, the identity of its
// results, and how to compute a cell.
type Spec struct {
	// Rows, Cols, Reps define the cell grid; every combination in
	// [0,Rows)×[0,Cols)×[0,Reps) is one cell.
	Rows, Cols, Reps int
	// Key returns the cache-key material identifying one cell's result
	// (hashed with Key before use).
	Key func(row, col, rep int) string
	// Compute produces the value of one cell. It must be deterministic
	// in (row, col, rep) — resumability and cache correctness depend on
	// it — and should honor ctx cancellation where it can. Run calls it
	// from up to Parallelism goroutines at once, so anything it reuses
	// across cells it must borrow for the cell's duration.
	Compute func(ctx context.Context, row, col, rep int) (float64, error)
}

func (s Spec) validate() error {
	if s.Rows <= 0 || s.Cols <= 0 || s.Reps <= 0 {
		return fmt.Errorf("engine: bad grid %dx%dx%d", s.Rows, s.Cols, s.Reps)
	}
	if s.Key == nil || s.Compute == nil {
		return fmt.Errorf("engine: nil Key or Compute")
	}
	return nil
}

// Options configure one Run.
type Options struct {
	// Parallelism bounds concurrent cell computations (0 = GOMAXPROCS).
	// Run starts no more workers than the grid has cells.
	Parallelism int
	// Cache memoizes cell results across Run calls and — when backed by
	// a store (NewStoreCache) — across processes; it is what resumes an
	// interrupted campaign. Runs sharing one Cache also compute each
	// distinct cell once while their campaigns run concurrently; the
	// others wait for that result and count it as Stats.Deduped. Nil
	// uses a fresh in-memory cache of DefaultCacheCapacity.
	Cache *Cache
	// Monitor, when non-nil, is called once per finished cell, in
	// completion order and never concurrently: each event's Stats.Done
	// is one more than the last, so the final call carries the run's
	// final Stats, and every call has returned before Run does. Cells
	// finishing meanwhile wait for it, so it should return promptly.
	Monitor func(ProgressEvent)
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
	spec     Spec
	opts     Options
	start    time.Time
	values   [][][]float64
	inflight int64 // cells currently in compute (atomic)

	// mu also serializes Monitor calls, so they see Stats.Done in the
	// order record numbered them.
	mu      sync.Mutex
	st      Stats
	firstEr error
}

// Run executes the campaign described by spec, computing each cell at
// most once, and honoring ctx: on cancellation no new cells start,
// in-flight cells finish (landing in the cache, so a rerun resumes from
// them), and the context's error is returned. A cell's first error
// fails the campaign — cells are deterministic, so it would only
// recur.
//
// Workers take cells in a fixed order: repetition fastest, then row,
// then column — (0,0,0), (0,0,1), …, (0,0,Reps−1), (1,0,0), …,
// (Rows−1,0,Reps−1), (0,1,0), … Cells that share work through a
// caller's memo usually share a row or a repetition (a SAVAT campaign
// shares a row's envelope product and a repetition's noise product), so
// cells handed out together need different rows' and repetitions'
// products and no worker waits for another to build one; the later
// columns then find every product built. With Parallelism 1 cells run,
// and Monitor sees them, in exactly this order.
func Run(ctx context.Context, spec Spec, opts Options) (*Result, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.Cache == nil {
		opts.Cache = NewCache(DefaultCacheCapacity)
	}
	bindCacheGauges(opts.Cache)

	total := spec.Rows * spec.Cols * spec.Reps
	r := &run{
		spec:   spec,
		opts:   opts,
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
	workers := min(opts.Parallelism, total)
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for idx := range work {
				if runCtx.Err() != nil {
					continue // drain: cancellation stops new cells promptly
				}
				if err := r.cell(runCtx, idx); err != nil {
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

	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: campaign interrupted after %d/%d cells: %w", st.Done, st.Total, err)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Result{Values: r.values, Stats: st}, nil
}

// cell completes one grid cell through the cache — a hit, a wait for
// an identical cell in flight, or this worker's compute — then does its
// accounting and eventing.
func (r *run) cell(ctx context.Context, idx int) error {
	row, col, rep := r.unflatten(idx)
	ev := ProgressEvent{Row: row, Col: col, Rep: rep}
	v, src, err := r.opts.Cache.get(ctx, Key(r.spec.Key(row, col, rep)), func() (float64, error) {
		atomic.AddInt64(&r.inflight, 1)
		mInFlight.Add(1)
		begin := time.Now()
		v, err := r.spec.Compute(ctx, row, col, rep)
		ev.Duration = time.Since(begin)
		atomic.AddInt64(&r.inflight, -1)
		mInFlight.Add(-1)
		return v, err
	})
	if err != nil {
		if ctx.Err() != nil {
			return nil // cancellation, not a cell failure
		}
		return fmt.Errorf("engine: cell (%d,%d,%d): %w", row, col, rep, err)
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

// record stores a finished cell and emits its progress event.
func (r *run) record(row, col, rep int, v float64, ev ProgressEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()
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
	if r.opts.Monitor != nil {
		r.opts.Monitor(ev)
	}
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

func (r *run) fail(err error) {
	r.mu.Lock()
	if r.firstEr == nil {
		r.firstEr = err
	}
	r.mu.Unlock()
}

// unflatten maps a dispatch index to its cell: repetition fastest,
// then row, then column (see Run).
func (r *run) unflatten(idx int) (row, col, rep int) {
	rep = idx % r.spec.Reps
	idx /= r.spec.Reps
	return idx % r.spec.Rows, idx / r.spec.Rows, rep
}
