package savat

import (
	"errors"
	"fmt"
)

// Sentinel validation errors, shared by Config.Validate,
// CampaignSpec.Validate, and the CLI flag layer (internal/cliconf
// aliases them), so every surface rejects a bad setup with the same
// identity. Test with errors.Is.
var (
	// ErrBadDistance reports an antenna distance that is not positive
	// and finite, or is below MinDistance.
	ErrBadDistance = errors.New("savat: distance must be positive")
	// ErrBadFrequency reports an alternation frequency that is not
	// positive, or too high for the machine's clock to alternate at.
	ErrBadFrequency = errors.New("savat: frequency out of range")
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
	// ErrNonFinite reports a NaN or infinite configuration value, or a
	// measurement that came out non-finite or non-positive.
	ErrNonFinite = errors.New("savat: configuration value must be finite")
	// ErrBadConfig reports a finite but inconsistent measurement
	// configuration: a band outside (0, f0), a sample rate below
	// Nyquist, a non-positive duration or period count, a capture too
	// short to resolve the band or an RBW wider than it, an invalid
	// noise environment or analyzer setup, or jitter the envelope
	// synthesis cannot render.
	ErrBadConfig = errors.New("savat: invalid measurement configuration")
	// ErrBadSpec reports a campaign spec that does not decode — malformed
	// JSON, an unknown field, a mistyped value, or an unknown event — or
	// whose event grid names an event twice.
	ErrBadSpec = errors.New("savat: malformed campaign spec")
	// ErrTooLarge reports a period count, capture length, or repetition
	// count beyond the resource bounds (MaxPeriods, MaxCaptureSamples,
	// MaxRepeats).
	ErrTooLarge = errors.New("savat: configuration exceeds a resource bound")
)

// MaxRepeats bounds CampaignSpec.Repeats (and MeasurePair's count).
// A campaign allocates its whole value grid — events² × repeats cells —
// before the first cell runs, so an unbounded count is an unbounded
// allocation; 1000 is a hundred times the paper's ten repetitions.
// With repeated events rejected, a grid holds at most NumExtEvents² ×
// MaxRepeats cells.
const MaxRepeats = 1000

// validateRepeats reports a repetition count outside [1, MaxRepeats]
// as a wrapped sentinel error.
func validateRepeats(n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: %d", ErrBadRepeats, n)
	}
	if n > MaxRepeats {
		return fmt.Errorf("%w: repeats %d exceeds %d", ErrTooLarge, n, MaxRepeats)
	}
	return nil
}
