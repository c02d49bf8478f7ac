package savat

import (
	"errors"
	"fmt"
)

// Sentinel validation errors, shared by Config.Validate,
// CampaignOptions.Validate, and the CLI flag layer (internal/cliconf
// aliases them), so every surface rejects a bad setup with the same
// identity. Test with errors.Is.
var (
	// ErrBadDistance reports a non-positive antenna distance.
	ErrBadDistance = errors.New("savat: distance must be positive")
	// ErrBadFrequency reports a non-positive alternation frequency.
	ErrBadFrequency = errors.New("savat: frequency must be positive")
	// ErrBadRepeats reports a repetition count below one.
	ErrBadRepeats = errors.New("savat: repeats must be at least 1")
	// ErrUnknownMachine reports a CampaignSpec machine name that is not a
	// case-study system.
	ErrUnknownMachine = errors.New("savat: unknown machine")
	// ErrSpecVersion reports a CampaignSpec whose version this build does
	// not understand.
	ErrSpecVersion = errors.New("savat: unsupported campaign spec version")
	// ErrUnknownChannel reports a Config channel name that is not in the
	// machine.Channels registry.
	ErrUnknownChannel = errors.New("savat: unknown channel")
	// ErrBadCountermeasure reports an invalid countermeasure chain entry.
	ErrBadCountermeasure = errors.New("savat: bad countermeasure")
	// ErrNonFinite reports a NaN or infinite configuration value.
	ErrNonFinite = errors.New("savat: configuration value must be finite")
	// ErrBadConfig reports a finite but inconsistent measurement
	// configuration: a band outside (0, f0), a sample rate below
	// Nyquist, a non-positive duration or period count, or an invalid
	// noise environment or analyzer setup.
	ErrBadConfig = errors.New("savat: invalid measurement configuration")
	// ErrBadSpec reports a campaign spec that does not decode — malformed
	// JSON, an unknown field, a mistyped value, or an unknown event.
	ErrBadSpec = errors.New("savat: malformed campaign spec")
	// ErrTooLarge reports a period count, capture length, or repetition
	// count beyond the resource bounds (MaxPeriods, MaxCaptureSamples,
	// MaxRepeats).
	ErrTooLarge = errors.New("savat: configuration exceeds a resource bound")
)

// MaxRepeats bounds CampaignOptions.Repeats (and CampaignSpec.Repeats).
// A campaign allocates its whole value grid — events² × repeats cells —
// before the first cell runs, so an unbounded count is an unbounded
// allocation; 1000 is a hundred times the paper's ten repetitions.
const MaxRepeats = 1000

// Validate checks a measurement configuration and campaign options
// together — the single validation entry point shared by the campaign
// runner and every CLI command. The configuration is checked first
// (order: distance, frequency, finiteness, band, Nyquist, duration,
// periods, resource bounds, environment, analyzer), then the options,
// and the first problem wins.
func Validate(cfg Config, opts CampaignOptions) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	return opts.Validate()
}

// Validate reports the first problem with the campaign options as a
// wrapped sentinel error.
func (o CampaignOptions) Validate() error {
	if o.Repeats <= 0 {
		return fmt.Errorf("%w: %d", ErrBadRepeats, o.Repeats)
	}
	if o.Repeats > MaxRepeats {
		return fmt.Errorf("%w: repeats %d exceeds %d", ErrTooLarge, o.Repeats, MaxRepeats)
	}
	return nil
}
