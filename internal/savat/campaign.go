package savat

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/stats"
	"repro/internal/workpool"
)

// CampaignOptions configure a full pairwise measurement campaign.
type CampaignOptions struct {
	// Events to measure pairwise; defaults to all 11 Figure 5 events.
	Events []Event
	// Repeats is the number of independent measurements per cell
	// (paper: 10, over multiple days).
	Repeats int
	// Seed feeds the deterministic per-cell, per-repetition rngs.
	Seed int64
	// Parallelism bounds concurrent cell measurements (0 = GOMAXPROCS).
	Parallelism int
	// AnalyzerPool, when non-nil, is the worker pool each campaign
	// worker's spectrum analyzer uses for per-segment transforms
	// (nil = the process-default pool, shared with the engine's own
	// workers so campaigns never oversubscribe the machine).
	AnalyzerPool *workpool.Pool
	// SynthCache, when non-nil, is the shared synthesis-product cache
	// the campaign workers read envelope and noise spectral products
	// through; sharing one across campaigns (e.g. a distance sweep over
	// one seed) extends the reuse across runs. Nil uses a fresh cache
	// sized to the campaign's repetition working set. Cache hits are
	// bit-identical to the computation they replace, so cell values
	// never depend on this option.
	SynthCache *SynthCache

	// Monitor, when non-nil, receives one engine.ProgressEvent per
	// finished (pair, repetition) cell — cache-served cells included. The campaign closes the channel when
	// the run ends, so pass a fresh channel per campaign and drain it
	// until it closes. Event Row/Col index into the campaign's Events.
	Monitor chan<- engine.ProgressEvent

	// Cache memoizes per-cell results across campaigns. Cells are keyed
	// by (machine config, measurement config, event pair, seed,
	// repetition) — event identity, not matrix position — so campaigns
	// over different event subsets or orders share work, as do repeated
	// figures in a distance sweep. A store-backed cache
	// (engine.NewStoreCache) is what makes campaigns resumable: rerun an
	// interrupted campaign over the same cache and its finished cells
	// are served, not recomputed. Nil uses a fresh in-memory cache.
	Cache *engine.Cache
	// Flight, when non-nil, deduplicates identical cells in flight
	// across concurrent campaigns sharing it (and sharing Cache): each
	// distinct cell is computed once, the others wait for that result.
	// Used by the campaign service so overlapping submissions never
	// duplicate work; nil disables it.
	Flight *engine.Flight
	// MaxAttempts bounds per-cell measurement attempts for transient
	// failures (0 = engine default of 3).
	MaxAttempts int
	// RetryBackoff is the base exponential backoff between attempts.
	RetryBackoff time.Duration
}

// DefaultCampaignOptions mirrors the paper's campaign: all 11 events,
// 10 repetitions.
func DefaultCampaignOptions() CampaignOptions {
	return CampaignOptions{Events: Events(), Repeats: 10, Seed: 1}
}

// RunCampaign measures the full pairwise SAVAT matrix for one machine
// and one measurement configuration. It is RunCampaignContext with a
// background context, kept for existing callers.
func RunCampaign(mc machine.Config, cfg Config, opts CampaignOptions) (*MatrixStats, error) {
	return RunCampaignContext(context.Background(), mc, cfg, opts)
}

// RunCampaignContext measures the full pairwise SAVAT matrix on the
// campaign engine: a worker pool fans out the (pair, repetition) cells,
// the content-addressed cache makes the campaign resumable, and
// transient cell failures are retried.
//
// Every (pair, repetition) gets its own rng seeded from the event
// identities — not matrix positions — so results are reproducible,
// independent of scheduling and of which other events the campaign
// includes, and exactly equal to MeasurePair for the same pair. The
// kernel (and its calibrated loop count) and its alternation come from
// the process-wide simulation cache: built once per pair and reused
// across repetitions, workers, and later campaigns — channels, seeds,
// and distances included — as the paper's fixed binary was; fully
// cached pairs never build a kernel at all.
//
// Cancelling ctx stops new cells promptly, lets in-flight cells finish
// (they land in opts.Cache, so a rerun over the same cache resumes from
// them), and returns the context's error.
func RunCampaignContext(ctx context.Context, mc machine.Config, cfg Config, opts CampaignOptions) (*MatrixStats, error) {
	// fail closes the caller's Monitor on paths that never reach the
	// engine, honoring the "closed when the run ends" contract.
	fail := func(err error) (*MatrixStats, error) {
		if opts.Monitor != nil {
			close(opts.Monitor)
		}
		return nil, err
	}
	// Normalizing first makes the legacy empty channel name and the
	// explicit "em" the same campaign: same validation, same fingerprint,
	// same cache cells.
	cfg = cfg.Normalized()
	if err := mc.Validate(); err != nil {
		return fail(err)
	}
	if err := Validate(cfg, opts); err != nil {
		return fail(err)
	}
	events := opts.Events
	if len(events) == 0 {
		events = Events()
	}
	n := len(events)

	// The campaign's shared synthesis-product cache. The engine
	// enumerates repetitions innermost, so the live working set is one
	// envelope-product entry plus one noise entry per repetition; the
	// default capacity covers it with headroom for scheduling skew.
	cache := opts.SynthCache
	if cache == nil {
		cache = NewSynthCache(2*opts.Repeats + 2)
	}

	// The worker arenas go back to the free list only after eng.Run has
	// returned — after every worker has stopped — so no arena is ever
	// held by two campaigns, or two workers, at once.
	var lease arenaLease

	spec := engine.Spec{
		Rows: n, Cols: n, Reps: opts.Repeats,
		Key: func(i, j, r int) string {
			return cellKeyMaterial(mc, cfg, events[i], events[j], opts.Seed, r)
		},
		// Each engine worker owns one Measurer (and through it one
		// MeasureScratch), so steady-state cells reuse sample buffers and
		// FFT plans without locking, while all workers share the campaign
		// synthesis-product cache — a matrix row's envelope products and a
		// repetition's noise PSD are computed once and reused by every row-
		// and repetition-mate — and the process-wide simulation cache of
		// kernels and alternations. No cache ever influences values:
		// cells remain exactly equal to Measurer.MeasurePair for the same
		// seed. Each worker also gets its own arena so steady-state cell
		// compute performs zero heap allocations (arenas are
		// single-owner — never shared across workers). The arenas come
		// from the process-wide free list, so a warm process starts each
		// campaign with its working set already carved.
		NewWorkerState: func() any {
			return NewMeasurer(mc, cfg, WithPool(opts.AnalyzerPool),
				WithSynthCache(cache), WithArena(lease.take()))
		},
		ComputeState: func(ctx context.Context, state any, i, j, r int) (float64, error) {
			// The chain's program countermeasures rewrite the pair's kernel
			// deterministically (CounterSeed), so the rewritten kernel, like
			// the paper's fixed binary, is shared across repetitions.
			meas := state.(*Measurer)
			k, err := meas.kernel(ctx, events[i], events[j], CounterSeed(opts.Seed, events[i], events[j]))
			if err != nil {
				return 0, fmt.Errorf("savat: cell %v/%v: %w", events[i], events[j], err)
			}
			m, err := meas.measureKernelSeeds(ctx, k, CampaignSeeds(opts.Seed, events[i], r))
			if err != nil {
				return 0, fmt.Errorf("savat: cell %v/%v rep %d: %w", events[i], events[j], r, err)
			}
			return m.SAVAT, nil
		},
	}

	eng := engine.New(engine.Options{
		Parallelism:  opts.Parallelism,
		MaxAttempts:  opts.MaxAttempts,
		RetryBackoff: opts.RetryBackoff,
		Cache:        opts.Cache,
		Flight:       opts.Flight,
		Monitor:      opts.Monitor,
	})
	res, err := eng.Run(ctx, spec)
	lease.release()
	if err != nil {
		return nil, err
	}

	out := &MatrixStats{
		Machine:  mc.Name,
		Distance: cfg.Distance,
		Mean:     NewMatrix(events),
		Engine:   res.Stats,
	}
	out.Cells = make([][]stats.Summary, n)
	for i := range out.Cells {
		out.Cells[i] = make([]stats.Summary, n)
		for j := range out.Cells[i] {
			s := stats.Summarize(res.Values[i][j])
			out.Cells[i][j] = s
			out.Mean.Vals[i][j] = s.Mean
		}
	}
	return out, nil
}

// campaignFingerprint canonically identifies a campaign: every
// parameter that determines its cell values, hashed. Service jobs and
// in-flight deduplication key on it. v3: the measurement
// configuration carries the channel and countermeasure dimensions
// (normalized, so the legacy empty channel and "em" fingerprint
// equal), and v2 entries describe channel-unaware values.
func campaignFingerprint(mc machine.Config, cfg Config, events []Event, seed int64, repeats int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "savat-campaign/v3|machine=%+v|measure=%+v|seed=%d|repeats=%d|events=",
		mc, cfg.Normalized(), seed, repeats)
	for _, e := range events {
		b.WriteString(e.String())
		b.WriteByte(',')
	}
	return engine.Key(b.String())
}

// cellKeyMaterial identifies one cell's result for the engine cache:
// the full machine and measurement configurations, the event pair (by
// identity, so matrix position and campaign composition don't matter),
// the base seed, and the repetition index. v3: the measurement
// configuration carries the channel and countermeasure dimensions
// (normalized, so a cell measured through the legacy empty channel
// name and through an explicit "em" is one cache entry); v2 entries
// predate the dimension and no longer describe the same key space.
func cellKeyMaterial(mc machine.Config, cfg Config, a, b Event, seed int64, rep int) string {
	return fmt.Sprintf("savat-cell/v3|machine=%+v|measure=%+v|pair=%v/%v|seed=%d|rep=%d",
		mc, cfg.Normalized(), a, b, seed, rep)
}
