package conform

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dsp"
	"repro/internal/engine"
	"repro/internal/savat"
)

// TestDifferentialSweep is the standing fast-path acceptance gate: 30
// randomized specs spanning machines, event pairs, distances,
// frequencies, bands, analyzer setups, jitter models, and noise
// environments, each measured through the shared-envelope fast path and
// the direct-rendering reference. CI runs this package under -race.
func TestDifferentialSweep(t *testing.T) {
	specs := GenDiffSpecs(1, 30)
	if len(specs) != 30 {
		t.Fatalf("generated %d specs", len(specs))
	}
	results, r, err := RunDifferential(specs, DiffRelTol)
	if err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for _, res := range results {
		if res.RelDiff > worst {
			worst = res.RelDiff
		}
	}
	t.Logf("%d specs, worst relative difference %.3g", len(results), worst)
	if err := r.Err(); err != nil {
		t.Logf("\n%s", r)
		t.Fatal(err)
	}
}

// TestDifferentialSweepKernelPaths forces every available butterfly
// kernel — the dispatched AVX2 assembly and the pure-Go fallback on
// amd64; only "go" under the purego tag or on other architectures —
// through a randomized fast-vs-reference sweep, so a kernel-specific
// accuracy regression fails with the kernel's name in the check instead
// of depending on which path the dispatcher happened to pick.
func TestDifferentialSweepKernelPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-kernel differential sweep in -short mode")
	}
	kernels := dsp.AvailableKernels()
	specs := GenDiffSpecs(2, 10)
	r, err := RunDifferentialKernels(specs, DiffRelTol)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(kernels) * len(specs); len(r.Checks) < want {
		t.Fatalf("%d checks for %d kernels × %d specs, want ≥ %d", len(r.Checks), len(kernels), len(specs), want)
	}
	t.Logf("kernels %v: %d checks", kernels, len(r.Checks))
	if err := r.Err(); err != nil {
		t.Logf("\n%s", r)
		t.Fatal(err)
	}
}

func TestGenDiffSpecsDeterministic(t *testing.T) {
	a := GenDiffSpecs(7, 10)
	b := GenDiffSpecs(7, 10)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed generated different specs")
	}
	c := GenDiffSpecs(8, 10)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds generated identical specs")
	}
	names := map[string]bool{}
	for _, s := range a {
		if names[s.Name] {
			t.Fatalf("duplicate spec name %s", s.Name)
		}
		names[s.Name] = true
	}
}

// TestCampaignCancelResumeStoreBacked exercises the engine's full
// cancellation surface from the savat layer: the campaign persists
// cells through a store-backed cache (the append-only segment log of
// internal/store) and is cancelled mid-flight with workers racing the
// canceller; the cache is closed (fsyncing the store), a
// fresh cache is reopened over the same directory, and the rerun must
// restore cells from the log and produce a matrix cell-for-cell
// identical to an uninterrupted run. The package's -race CI job makes
// this a data race detector for the engine/campaign seam as well.
func TestCampaignCancelResumeStoreBacked(t *testing.T) {
	cfg := savat.FastConfig()
	cfg.Duration = 1.0 / 32
	events := []savat.Event{savat.LDM, savat.STM, savat.NOI, savat.ADD}
	spec := savat.CampaignSpec{Machine: "Core2Duo", Config: cfg, Events: events, Repeats: 3, Seed: 9}
	run := func(ctx context.Context, opts engine.Options) (*savat.MatrixStats, error) {
		opts.Parallelism = 4
		return savat.RunSpecContext(ctx, spec, opts)
	}

	clean, err := run(context.Background(), engine.Options{})
	if err != nil {
		t.Fatal(err)
	}

	dir := filepath.Join(t.TempDir(), "cells")
	total := len(events) * len(events) * 3

	cache, err := engine.NewStoreCache(engine.DefaultCacheCapacity, dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	monitor := func(engine.ProgressEvent) {
		seen++
		if seen == total/3 {
			cancel()
		}
	}
	_, err = run(ctx, engine.Options{Cache: cache, Monitor: monitor})
	cancel()
	if err == nil {
		t.Logf("campaign outran cancellation (%d cells seen)", seen)
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v", err)
	}
	// Close fsyncs the store: every finished cell is durable, however
	// abruptly the campaign stopped.
	if err := cache.Close(); err != nil {
		t.Fatalf("closing cancelled campaign's cache: %v", err)
	}

	resumed, err := engine.NewStoreCache(engine.DefaultCacheCapacity, dir)
	if err != nil {
		t.Fatalf("reopening cache dir: %v", err)
	}
	defer resumed.Close()
	res, err := run(context.Background(), engine.Options{Cache: resumed})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if res.Engine.Cached == 0 && seen < total {
		t.Errorf("store restored no cells (cancelled run finished %d)", seen)
	}
	if cs := resumed.Stats(); cs.DiskHits == 0 && seen < total {
		t.Errorf("no disk hits on resume: %+v", cs)
	}

	for i := range events {
		for j := range events {
			if clean.Mean.Vals[i][j] != res.Mean.Vals[i][j] {
				t.Errorf("%v/%v: clean %g vs store-resumed %g",
					events[i], events[j], clean.Mean.Vals[i][j], res.Mean.Vals[i][j])
			}
			if clean.Cells[i][j].StdDev != res.Cells[i][j].StdDev {
				t.Errorf("%v/%v: per-cell stats diverge across store resume", events[i], events[j])
			}
		}
	}
}
