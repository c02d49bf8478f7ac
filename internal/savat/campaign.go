package savat

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/stats"
)

// RunSpecContext measures the full pairwise SAVAT matrix a spec
// describes on the campaign engine, with opts supplying how it runs,
// never what it measures: a worker pool fans out the (pair, repetition)
// cells and the content-addressed cache makes the campaign resumable.
// It is the one way to run a campaign; spec.Validate is its only check.
// Cells are keyed by event identity, not matrix position, so campaigns
// over different event subsets or orders share opts.Cache; Monitor
// events' Row/Col index the spec's grid events.
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
func RunSpecContext(ctx context.Context, spec CampaignSpec, opts engine.Options) (*MatrixStats, error) {
	// Normalizing first makes the legacy empty channel name and the
	// explicit "em" the same campaign: same validation, same fingerprint,
	// same cache cells.
	spec = spec.Normalized()
	su, err := spec.validated()
	if err != nil {
		return nil, err
	}
	return runCampaign(ctx, &su, spec, opts)
}

// runCampaign runs a normalized spec that has passed validation on its
// effective setup su.
func runCampaign(ctx context.Context, su *setup, spec CampaignSpec, opts engine.Options) (*MatrixStats, error) {
	mc, cfg, seed := su.base, spec.Config, spec.Seed
	events := spec.GridEvents()
	n := len(events)
	prefix := cellKeyPrefix(mc, cfg)

	grid := engine.Spec{
		Rows: n, Cols: n, Reps: spec.Repeats,
		Key: func(i, j, r int) string {
			return cellKeyMaterial(prefix, events[i], events[j], seed, r)
		},
		Compute: func(ctx context.Context, i, j, r int) (float64, error) {
			return su.cell(ctx, events[i], events[j], seed, r)
		},
	}

	res, err := engine.Run(ctx, grid, opts)
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

// cell computes one campaign cell: the SAVAT of pair a/b in
// repetition rep of the campaign seeded by seed. The chain's program
// countermeasures rewrite the pair's kernel deterministically
// (CounterSeed), so the rewritten kernel, like the paper's fixed
// binary, is shared across repetitions through the process-wide
// simulation cache. The cell borrows a scratch from the process-wide
// free list for its own duration, so steady-state cells reuse sample
// buffers and FFT plans and perform zero heap allocations, and reads
// its products through the process-wide layer, so a matrix row's
// envelope products and a repetition's noise PSD are computed once for
// every row- and repetition-mate, and for later campaigns at other
// distances. No cache ever influences values: a cell equals
// Measurer.MeasurePair for the same seed exactly.
func (su *setup) cell(ctx context.Context, a, b Event, seed int64, rep int) (float64, error) {
	k, err := su.kernel(ctx, one(a), one(b), CounterSeed(seed, a, b))
	if err != nil {
		return 0, fmt.Errorf("savat: cell %v/%v: %w", a, b, err)
	}
	s := workerScratches.get()
	m, err := su.measure(ctx, k, CampaignSeeds(seed, a, rep), s, synths)
	workerScratches.put(s)
	if err != nil {
		return 0, fmt.Errorf("savat: cell %v/%v rep %d: %w", a, b, rep, err)
	}
	return m.SAVAT, nil
}

// campaignFingerprint canonically identifies a campaign: every
// parameter that determines its cell values, hashed. Service jobs and
// in-flight deduplication key on it. v4: the shuffle countermeasure
// no longer swaps instructions across branch targets, so shuffle cells
// measured under v3 hold different values. v3 added the channel and
// countermeasure dimensions to the measurement configuration
// (normalized, so the legacy empty channel and "em" fingerprint equal).
func campaignFingerprint(mc machine.Config, cfg Config, events []Event, seed int64, repeats int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "savat-campaign/v4|machine=%+v|measure=%+v|seed=%d|repeats=%d|events=",
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
// the base seed, and the repetition index. v4: shuffle windows end at
// branch targets, so a shuffle cell stored under v3 holds a value the
// current model no longer produces. v3 added the channel and
// countermeasure dimensions to the measurement configuration
// (normalized, so a cell measured through the legacy empty channel
// name and through an explicit "em" is one cache entry).
//
// A campaign formats the configurations once, in cellKeyPrefix, and
// each cell appends only its pair, seed and repetition.
func cellKeyMaterial(prefix string, a, b Event, seed int64, rep int) string {
	return prefix + "pair=" + a.String() + "/" + b.String() +
		"|seed=" + strconv.FormatInt(seed, 10) + "|rep=" + strconv.Itoa(rep)
}

// cellKeyPrefix is the part of cellKeyMaterial that every cell of a
// campaign on machine mc with configuration cfg shares.
func cellKeyPrefix(mc machine.Config, cfg Config) string {
	return fmt.Sprintf("savat-cell/v4|machine=%+v|measure=%+v|", mc, cfg.Normalized())
}
