package conform

import (
	"fmt"
	"math/rand"

	"repro/internal/dsp"
	"repro/internal/machine"
	"repro/internal/noise"
	"repro/internal/savat"
)

// DiffRelTol is the acceptance bound of the shared-envelope
// factorization: the fast measurement path must agree with the
// reference pipeline (savat.WithReference) within this relative
// difference on every generated spec.
const DiffRelTol = 1e-9

// DiffSpec is one generated differential-test case: a machine, a full
// measurement configuration, an event pair, and the seed that fixes
// every stochastic stage.
type DiffSpec struct {
	Name    string
	Machine machine.Config
	Config  savat.Config
	A, B    savat.Event
	Seed    int64
}

// GenDiffSpecs deterministically generates n measurement specs
// sweeping the dimensions that have historically broken numeric
// pipelines: machine model (including asymmetry-source and
// amplitude-noise variants), event pair (extension events included),
// antenna distance, alternation frequency, capture length, measurement
// band, analyzer RBW and window, jitter model, noise environment, and
// side channel (the radiated "em" seam dominates the draw, with the
// conducted power and impedance channels mixed in so the
// fast-vs-reference factorization holds per channel, not just for the
// default). The same (seed, n) always yields the same specs, so a
// failure reported by name is reproducible in isolation.
func GenDiffSpecs(seed int64, n int) []DiffSpec {
	rng := rand.New(rand.NewSource(seed))
	machines := machine.CaseStudyMachines()
	events := savat.ExtendedEvents()
	windows := []dsp.Window{dsp.Hann, dsp.Blackman, dsp.FlatTop}
	out := make([]DiffSpec, 0, n)
	for i := 0; i < n; i++ {
		mc := machines[rng.Intn(len(machines))]
		switch rng.Intn(4) {
		case 0:
			mc.AsymmetrySourceAmp = 0
		case 1:
			mc.AmplitudeNoiseStd = 0.05 + 0.35*rng.Float64()
		}

		cfg := savat.DefaultConfig()
		// Short captures keep a ≥25-spec sweep fast enough to run under
		// the race detector; the factorization has no length-dependent
		// branches beyond the Welch segmentation the sweep varies anyway.
		cfg.Duration = 1.0 / float64(int(16)<<rng.Intn(3)) // 1/16, 1/32, 1/64 s
		cfg.Distance = []float64{0.05, 0.10, 0.28, 0.50, 1.00}[rng.Intn(5)]
		cfg.Frequency = []float64{40e3, 80e3, 120e3}[rng.Intn(3)]
		cfg.BandHalfWidth = []float64{500, 1e3, 4e3}[rng.Intn(3)]
		cfg.WarmupPeriods = 1 + rng.Intn(4)
		cfg.MeasurePeriods = 3 + rng.Intn(6)
		cfg.Analyzer.RBW = []float64{1, 10, 50}[rng.Intn(3)]
		w := windows[rng.Intn(len(windows))]
		cfg.Analyzer.Window = w
		if rng.Intn(2) == 0 {
			cfg.Environment = noise.Quiet()
		}
		cfg.Jitter.FreqOffset = 0.01 * rng.Float64()
		cfg.Jitter.DriftStd = 0.002 * rng.Float64()
		cfg.Jitter.AmpNoiseStd = 0.4 * rng.Float64() * float64(rng.Intn(2))
		cfg.Jitter.AmpNoiseCorr = 0.9 * rng.Float64()

		// Channel dimension: a conducted draw swaps in the channel's
		// canonical environment, exactly as the flag layer does.
		cfg.Channel = "em"
		if rng.Intn(4) == 0 {
			cfg.Channel = []string{"power", "impedance"}[rng.Intn(2)]
			ch, err := machine.ChannelByName(cfg.Channel)
			if err != nil {
				panic(err) // registry names are compiled in
			}
			cfg.Environment = ch.Environment()
		}

		a := events[rng.Intn(len(events))]
		b := events[rng.Intn(len(events))]
		out = append(out, DiffSpec{
			Name: fmt.Sprintf("spec%02d-%s-%v-%v-%.2fm-%gkHz-%v-%s",
				i, mc.Name, a, b, cfg.Distance, cfg.Frequency/1e3, w, cfg.Channel),
			Machine: mc,
			Config:  cfg,
			A:       a, B: b,
			Seed: rng.Int63(),
		})
	}
	return out
}

// DiffResult is one spec's outcome under both pipelines.
type DiffResult struct {
	Spec DiffSpec
	// Fast and Reference are the SAVAT values (joules) from the
	// shared-envelope fast path and the direct-rendering reference.
	Fast, Reference float64
	// RelDiff is their symmetric relative difference.
	RelDiff float64
}

// RunDifferential drives every spec through the fast path and the
// reference pipeline with identical rng streams and reports one check
// per spec at the given relative tolerance (DiffRelTol for the
// standing acceptance bound). One warmed scratch is shared across
// specs — exactly how campaign workers run — so scratch-reuse bugs
// surface here too.
func RunDifferential(specs []DiffSpec, relTol float64) ([]DiffResult, *Report, error) {
	r := &Report{}
	out := make([]DiffResult, 0, len(specs))
	scratch := savat.NewMeasureScratch()
	for _, s := range specs {
		k, err := savat.BuildKernel(s.Machine, s.A, s.B, s.Config.Frequency)
		if err != nil {
			return nil, nil, fmt.Errorf("conform: %s: build kernel: %w", s.Name, err)
		}
		fast, err := savat.NewMeasurer(s.Machine, s.Config, savat.WithScratch(scratch)).MeasureKernel(k, rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			return nil, nil, fmt.Errorf("conform: %s: fast path: %w", s.Name, err)
		}
		ref, err := savat.NewMeasurer(s.Machine, s.Config, savat.WithReference()).MeasureKernel(k, rand.New(rand.NewSource(s.Seed)))
		if err != nil {
			return nil, nil, fmt.Errorf("conform: %s: reference: %w", s.Name, err)
		}
		d := relDiff(fast.SAVAT, ref.SAVAT)
		out = append(out, DiffResult{Spec: s, Fast: fast.SAVAT, Reference: ref.SAVAT, RelDiff: d})
		r.addBound("differential/"+s.Name, d, relTol,
			fmt.Sprintf("fast %.9g zJ vs reference %.9g zJ", fast.ZJ(), ref.ZJ()))
		if fast.LoopCount != ref.LoopCount || fast.PairsPerSecond != ref.PairsPerSecond {
			r.Add(Check{
				Name: "differential/" + s.Name + "/metadata", Pass: false,
				Detail: fmt.Sprintf("loop %d vs %d, pairs/s %g vs %g",
					fast.LoopCount, ref.LoopCount, fast.PairsPerSecond, ref.PairsPerSecond),
			})
		}
	}
	return out, r, nil
}

// RunDifferentialKernels repeats the fast-vs-reference differential
// once per available butterfly kernel (dsp.AvailableKernels: the
// dispatched assembly and the pure-Go fallback on amd64, just "go"
// elsewhere or under the purego tag), forcing each for the whole run so
// an accuracy regression names the offending kernel path instead of
// hiding behind whatever the dispatcher picked. Check names are
// prefixed "kernel/<name>/". The previously active kernel is restored
// on return.
func RunDifferentialKernels(specs []DiffSpec, relTol float64) (*Report, error) {
	r := &Report{}
	prev := dsp.ActiveKernel()
	defer dsp.SetKernel(prev)
	for _, kernel := range dsp.AvailableKernels() {
		if err := dsp.SetKernel(kernel); err != nil {
			return nil, fmt.Errorf("conform: select kernel %s: %w", kernel, err)
		}
		_, kr, err := RunDifferential(specs, relTol)
		if err != nil {
			return nil, fmt.Errorf("conform: kernel %s: %w", kernel, err)
		}
		for _, c := range kr.Checks {
			c.Name = "kernel/" + kernel + "/" + c.Name
			r.Add(c)
		}
	}
	return r, nil
}

// RunCacheDifferential verifies that synthesis-product cache HITS are
// bit-identical to the computations they replace. For every spec it
// measures the campaign cell (A, C, rep 0) — C a deterministic second
// column event, so (A, B) and (A, C) are row-mates sharing A's envelope
// realization under CampaignSeeds — twice: cold, on a fresh Measurer,
// and warm, through a scratch whose product slots a prior (A, B)
// measurement already filled. The warm run serves both the envelope
// products and the noise PSD from the slots, and the report demands
// zero-ULP agreement on the SAVAT value, the band power, and every bin
// of the analyzed band. (The campaigns' process-wide product layer is
// held to the same bins by savat's own tests.)
func RunCacheDifferential(specs []DiffSpec) (*Report, error) {
	r := &Report{}
	events := savat.ExtendedEvents()
	for _, s := range specs {
		c := events[(int(s.A)+int(s.B)+1)%len(events)]
		kAB, err := savat.BuildKernel(s.Machine, s.A, s.B, s.Config.Frequency)
		if err != nil {
			return nil, fmt.Errorf("conform: %s: build kernel: %w", s.Name, err)
		}
		kAC, err := savat.BuildKernel(s.Machine, s.A, c, s.Config.Frequency)
		if err != nil {
			return nil, fmt.Errorf("conform: %s: build kernel: %w", s.Name, err)
		}
		seeds := savat.CampaignSeeds(s.Seed, s.A, 0)

		cold, err := savat.NewMeasurer(s.Machine, s.Config).MeasureKernelSeeds(kAC, seeds)
		if err != nil {
			return nil, fmt.Errorf("conform: %s: cold cell: %w", s.Name, err)
		}
		coldSAVAT, coldBand := cold.SAVAT, cold.BandPower
		cb := cold.Trace.Band()
		coldOffset, coldPSD := cb.Offset, append([]float64(nil), cb.PSD...)

		scratch := savat.NewMeasureScratch()
		if _, err := savat.NewMeasurer(s.Machine, s.Config, savat.WithScratch(scratch)).
			MeasureKernelSeeds(kAB, seeds); err != nil {
			return nil, fmt.Errorf("conform: %s: cache-priming cell: %w", s.Name, err)
		}
		warm, err := savat.NewMeasurer(s.Machine, s.Config, savat.WithScratch(scratch)).
			MeasureKernelSeeds(kAC, seeds)
		if err != nil {
			return nil, fmt.Errorf("conform: %s: warm cell: %w", s.Name, err)
		}

		name := "cache/" + s.Name
		r.Add(Check{
			Name: name + "/savat",
			Pass: warm.SAVAT == coldSAVAT && warm.BandPower == coldBand,
			Detail: fmt.Sprintf("warm %.17g zJ vs cold %.17g zJ (band %.17g vs %.17g W)",
				warm.ZJ(), coldSAVAT*1e21, warm.BandPower, coldBand),
		})
		warmBand := warm.Trace.Band()
		wp := warmBand.PSD
		mismatch, firstBin := 0, -1
		if len(wp) != len(coldPSD) || warmBand.Offset != coldOffset {
			mismatch, firstBin = len(wp)+len(coldPSD), 0
		} else {
			for i := range wp {
				if wp[i] != coldPSD[i] {
					if mismatch == 0 {
						firstBin = coldOffset + i
					}
					mismatch++
				}
			}
		}
		detail := fmt.Sprintf("%d bins", len(wp))
		if mismatch > 0 {
			detail = fmt.Sprintf("%d of %d bins differ, first at %d", mismatch, len(wp), firstBin)
		}
		r.Add(Check{Name: name + "/psd", Pass: mismatch == 0, Detail: detail})
	}
	return r, nil
}

// ReferenceMatrix measures the full pairwise matrix for events through
// the reference pipeline (savat.WithReference) — the readable specification —
// with the same per-cell seeding as a campaign, so the result is
// directly comparable to savat.RunSpecContext's mean matrix at Repeats 1.
func ReferenceMatrix(mc machine.Config, cfg savat.Config, events []savat.Event, seed int64) (*savat.Matrix, error) {
	m := savat.NewMatrix(events)
	for i, a := range events {
		for j, b := range events {
			k, err := savat.BuildKernel(mc, a, b, cfg.Frequency)
			if err != nil {
				return nil, fmt.Errorf("conform: %v/%v: %w", a, b, err)
			}
			meas, err := savat.NewMeasurer(mc, cfg, savat.WithReference()).
				MeasureKernelSeeds(k, savat.CampaignSeeds(seed, a, 0))
			if err != nil {
				return nil, fmt.Errorf("conform: %v/%v: %w", a, b, err)
			}
			m.Vals[i][j] = meas.SAVAT
		}
	}
	return m, nil
}
