package savat

import (
	"errors"
	"math"
	"strings"
	"testing"
)

// specSentinels are the errors every rejection of a campaign spec must
// wrap: whatever a client sends, it learns which rule it broke.
var specSentinels = []error{
	ErrBadSpec, ErrSpecVersion, ErrUnknownMachine, ErrBadDistance,
	ErrBadFrequency, ErrBadRepeats, ErrNonFinite, ErrTooLarge,
	ErrBadConfig, ErrUnknownChannel, ErrBadCountermeasure,
}

func wrapsSpecSentinel(err error) bool {
	for _, s := range specSentinels {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// fuzzMaxSamples bounds the capture a fuzzed spec may measure. Validate
// admits captures up to MaxCaptureSamples (tens of seconds of synthesis
// each); the fuzzer skips those rather than spend its budget on them —
// the bound itself is pinned by TestConfigValidateNonFiniteAndBounds.
const fuzzMaxSamples = 1 << 16

// fuzzSpecSeed is a valid, cheap campaign spec: the default measurement
// setup with a sixteenth-second capture. The seeds below mutate it.
const fuzzSpecSeed = `{"version":2,"machine":"Core2Duo","config":{"distance":0.1,"frequency":80000,` +
	`"band_half_width":1000,"sample_rate":262144,"duration":0.0625,"warmup_periods":3,"measure_periods":6,` +
	`"environment":{"thermal_psd":6e-18,"rf_background_psd":3.8e-17,"rf_background_spread":0.12,` +
	`"carriers":[{"freq":81700,"power":2.5e-13,"am_depth":0.3,"am_rate":7}]},` +
	`"analyzer":{"rbw":1,"window":"hann","floor_psd":6e-18},` +
	`"jitter":{"freq_offset":0.005,"drift_std":0.0007,"max_drift":0.004,"amp_noise_std":0,"amp_noise_corr":0},` +
	`"channel":"em"},"events":["ADD","LDM"],"repeats":1,"seed":1}`

// FuzzCampaignSpec throws arbitrary bytes at the spec surface shared by
// spec files and savatd request bodies: ParseCampaignSpec, then
// Validate, then one measured cell. Every input must either be rejected
// with an error wrapping a savat sentinel or measure a finite, positive
// SAVAT — never a NaN, a panic, or an unbounded allocation.
func FuzzCampaignSpec(f *testing.F) {
	f.Add([]byte(fuzzSpecSeed))
	// Overflowing repeats must be refused before the campaign sizes its
	// value grid from them.
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"repeats":1`, `"repeats":9223372036854775807`, 1)))
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"repeats":1`, `"repeats":100000000000`, 1)))
	// NaN distance: JSON has no NaN literal, so it fails to decode.
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"distance":0.1`, `"distance":NaN`, 1)))
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"distance":0.1`, `"distance":1e999`, 1)))
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"channel":"em"`, `"channel":"power"`, 1)))
	// The band's top edge at fs/2 is refused; just below it, the spec
	// validates and its cell measures.
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"sample_rate":262144`, `"sample_rate":162000`, 1)))
	f.Add([]byte(strings.Replace(fuzzSpecSeed, `"sample_rate":262144`, `"sample_rate":162002`, 1)))
	// Finite values the pipeline cannot measure, each refused by
	// Validate: jitter that stalls the envelope timeline (which would
	// hang the cell) or overflows it, a distance, noise densities, a
	// floor and an RBW that measured NaN or ±Inf, and a capture of zero
	// samples.
	for _, r := range [][2]string{
		{`"freq_offset":0.005`, `"freq_offset":-1`},
		{`"freq_offset":0.005`, `"freq_offset":-2`},
		{`"drift_std":0.0007`, `"drift_std":-0.1`},
		{`"max_drift":0.004`, `"max_drift":-0.1`},
		{`"amp_noise_std":0`, `"amp_noise_std":1e300`},
		{`"amp_noise_corr":0`, `"amp_noise_corr":5`},
		{`"amp_noise_corr":0`, `"amp_noise_corr":-5`},
		{`"distance":0.1`, `"distance":1e-100`},
		{`"thermal_psd":6e-18`, `"thermal_psd":1e308`},
		{`"rf_background_psd":3.8e-17`, `"rf_background_psd":1e308`},
		{`"floor_psd":6e-18`, `"floor_psd":1e308`},
		{`"rbw":1`, `"rbw":1e300`},
		{`"duration":0.0625`, `"duration":2e-6`},
	} {
		f.Add([]byte(strings.Replace(fuzzSpecSeed, r[0], r[1], 1)))
	}
	f.Add([]byte(`{"machine":"Core2Duo"}`))
	f.Add([]byte(`{`))

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := ParseCampaignSpec(data)
		if err != nil {
			if !wrapsSpecSentinel(err) {
				t.Fatalf("ParseCampaignSpec rejected %q without a sentinel: %v", data, err)
			}
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("parsed spec fails Validate: %v", err)
		}
		if spec.Config.Duration*spec.Config.SampleRate > fuzzMaxSamples {
			t.Skip("capture too long for a fuzz iteration")
		}
		mc, err := spec.MachineConfig()
		if err != nil {
			t.Fatalf("validated spec has no machine: %v", err)
		}
		events := spec.GridEvents()
		a, b := events[0], events[len(events)-1]
		vals, _, err := NewMeasurer(mc, spec.Config).MeasurePair(a, b, 1, spec.Seed)
		if err != nil {
			if !wrapsSpecSentinel(err) {
				t.Fatalf("measuring %v/%v failed without a sentinel: %v", a, b, err)
			}
			return
		}
		if v := vals[0]; math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("%v/%v SAVAT = %g, want finite and positive", a, b, v)
		}
	})
}
