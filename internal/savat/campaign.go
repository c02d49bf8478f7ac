package savat

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/stats"
)

// CampaignOptions are a campaign's runtime-only knobs: how it is
// executed, never what it measures (that is the CampaignSpec).
type CampaignOptions struct {
	// Parallelism bounds concurrent cell measurements (0 = GOMAXPROCS).
	Parallelism int

	// Monitor, when non-nil, receives one engine.ProgressEvent per
	// finished (pair, repetition) cell — cache-served cells included.
	// The campaign closes the channel when the run ends, on success and
	// on every failure, so pass a fresh channel per campaign and drain
	// it until it closes. Event Row/Col index into the spec's grid
	// events.
	Monitor chan<- engine.ProgressEvent

	// Cache memoizes per-cell results across campaigns. Cells are keyed
	// by (machine config, measurement config, event pair, seed,
	// repetition) — event identity, not matrix position — so campaigns
	// over different event subsets or orders share work, as do repeated
	// figures in a distance sweep. A store-backed cache
	// (engine.NewStoreCache) is what makes campaigns resumable: rerun an
	// interrupted campaign over the same cache and its finished cells
	// are served, not recomputed. Concurrent campaigns sharing one
	// cache also compute each distinct cell once — the others wait for
	// that result — which is how the campaign service keeps overlapping
	// submissions from duplicating work. Nil uses a fresh in-memory
	// cache.
	Cache *engine.Cache
}

// RunSpecContext measures the full pairwise SAVAT matrix a spec
// describes on the campaign engine, with rt supplying the runtime-only
// options: a worker pool fans out the (pair, repetition) cells and the
// content-addressed cache makes the campaign resumable. It is the one
// way to run a campaign; spec.Validate is its only check.
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
// (they land in rt.Cache, so a rerun over the same cache resumes from
// them), and returns the context's error.
func RunSpecContext(ctx context.Context, spec CampaignSpec, rt CampaignOptions) (*MatrixStats, error) {
	// Normalizing first makes the legacy empty channel name and the
	// explicit "em" the same campaign: same validation, same fingerprint,
	// same cache cells.
	spec = spec.Normalized()
	mc, err := spec.validated()
	if err != nil {
		// The engine closes the Monitor on every run it starts; a run
		// that never reaches it closes the Monitor here.
		if rt.Monitor != nil {
			close(rt.Monitor)
		}
		return nil, err
	}
	return runCampaign(ctx, mc, spec, rt)
}

// runCampaign runs a normalized spec that has passed validation on its
// resolved machine mc.
func runCampaign(ctx context.Context, mc machine.Config, spec CampaignSpec, rt CampaignOptions) (*MatrixStats, error) {
	cfg, seed := spec.Config, spec.Seed
	events := spec.GridEvents()
	n := len(events)

	// The campaign's shared synthesis-product cache. The engine
	// enumerates repetitions innermost, so the live working set is one
	// envelope-product entry plus one noise entry per repetition; the
	// capacity covers it with headroom for scheduling skew.
	cache := NewSynthCache(2*spec.Repeats + 2)

	// The worker scratches go back to the free list only after eng.Run
	// has returned — after every worker has stopped — so no scratch is
	// ever held by two campaigns, or two workers, at once.
	var lease scratchLease

	grid := engine.Spec{
		Rows: n, Cols: n, Reps: spec.Repeats,
		Key: func(i, j, r int) string {
			return cellKeyMaterial(mc, cfg, events[i], events[j], seed, r)
		},
		// Each engine worker owns one Measurer (and through it one
		// MeasureScratch), so steady-state cells reuse sample buffers and
		// FFT plans without locking, while all workers share the campaign
		// synthesis-product cache — a matrix row's envelope products and a
		// repetition's noise PSD are computed once and reused by every row-
		// and repetition-mate — and the process-wide simulation cache of
		// kernels and alternations. No cache ever influences values:
		// cells remain exactly equal to Measurer.MeasurePair for the same
		// seed. The scratches come from the process-wide free list, so a
		// warm process starts each campaign with its working set already
		// allocated and steady-state cells perform zero heap allocations.
		NewWorkerState: func() any {
			return NewMeasurer(mc, cfg, WithScratch(lease.take()), WithSynthCache(cache))
		},
		Compute: func(ctx context.Context, state any, i, j, r int) (float64, error) {
			// The chain's program countermeasures rewrite the pair's kernel
			// deterministically (CounterSeed), so the rewritten kernel, like
			// the paper's fixed binary, is shared across repetitions.
			meas := state.(*Measurer)
			k, err := meas.Kernel(ctx, events[i], events[j], CounterSeed(seed, events[i], events[j]))
			if err != nil {
				return 0, fmt.Errorf("savat: cell %v/%v: %w", events[i], events[j], err)
			}
			m, err := meas.measureKernelSeeds(ctx, k, CampaignSeeds(seed, events[i], r))
			if err != nil {
				return 0, fmt.Errorf("savat: cell %v/%v rep %d: %w", events[i], events[j], r, err)
			}
			return m.SAVAT, nil
		},
	}

	eng := engine.New(engine.Options{
		Parallelism: rt.Parallelism,
		Cache:       rt.Cache,
		Monitor:     rt.Monitor,
	})
	res, err := eng.Run(ctx, grid)
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
