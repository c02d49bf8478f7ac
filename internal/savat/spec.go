package savat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/machine"
)

// SpecVersion is the wire version of CampaignSpec. It is bumped on any
// incompatible change to the spec's JSON shape; ParseCampaignSpec and
// CampaignSpec.Validate reject versions this build does not understand
// instead of silently misreading them.
//
// Version history:
//
//	1 — original shape.
//	2 — config gains the optional "channel" and "countermeasures"
//	    fields. Version-1 specs are accepted and normalized: the absent
//	    fields default to the "em" channel with no countermeasures,
//	    which measures bit-identically to a v1 executor.
const SpecVersion = 2

// CampaignSpec is the one serializable description of a measurement
// campaign, shared by every surface that names one: the CLI flag layer
// (internal/cliconf) parses flags into it, the campaign daemon
// (internal/service, cmd/savatd) unmarshals it from request bodies,
// cmd/savat and cmd/reproduce emit and accept it as a file, and its
// Fingerprint binds service jobs and in-flight cell deduplication to
// exactly the campaign it describes.
//
// A spec holds everything that determines the campaign's cell values —
// machine, measurement configuration, event grid, repeats, seed — and
// nothing about how the campaign is executed (parallelism, monitor and
// cache stay in CampaignOptions). Two specs with
// equal fingerprints therefore produce bit-identical matrices on any
// executor, which is what lets the service deduplicate overlapping
// submissions cell-by-cell.
type CampaignSpec struct {
	// Version is the spec wire version; zero is normalized to
	// SpecVersion so hand-written specs may omit it.
	Version int `json:"version"`
	// Machine names the case-study system (Core2Duo, Pentium3M,
	// TurionX2), resolved via machine.ConfigByName.
	Machine string `json:"machine"`
	// Config is the measurement setup (distance, frequency, band,
	// capture, environment, analyzer, jitter).
	Config Config `json:"config"`
	// Events are the grid's events in matrix order; empty means the
	// paper's 11 Figure 5 events. Serialized as mnemonics.
	Events []Event `json:"events,omitempty"`
	// Repeats is the number of independent measurements per cell.
	Repeats int `json:"repeats"`
	// Seed feeds the deterministic per-cell, per-repetition rngs.
	Seed int64 `json:"seed"`
}

// DefaultCampaignSpec mirrors the paper's campaign: the Core 2 Duo at
// 10 cm, the default measurement setup, all 11 events, 10 repetitions.
func DefaultCampaignSpec() CampaignSpec {
	return CampaignSpec{
		Version: SpecVersion,
		Machine: "Core2Duo",
		Config:  DefaultConfig(),
		Repeats: 10,
		Seed:    1,
	}
}

// Normalized returns the spec with defaults filled in: a zero or
// version-1 Version becomes SpecVersion (v1 specs simply predate the
// optional channel/countermeasure fields — see SpecVersion), the
// config's empty channel becomes "em", and nil Events stay nil
// (meaning "all 11").
func (s CampaignSpec) Normalized() CampaignSpec {
	if s.Version == 0 || s.Version == 1 {
		s.Version = SpecVersion
	}
	s.Config = s.Config.Normalized()
	return s
}

// Validate reports the first problem with the spec as a wrapped
// sentinel error: version (ErrSpecVersion), machine (ErrUnknownMachine),
// events — unknown or repeated — (ErrBadSpec), the measurement
// configuration (Config.Validate's sentinels), then repeats
// (ErrBadRepeats, ErrTooLarge). It is the only check a campaign run
// makes: RunSpecContext rejects exactly the specs Validate rejects.
func (s CampaignSpec) Validate() error {
	_, err := s.validated()
	return err
}

// validated is Validate returning the resolved machine, so a run
// resolves it once.
func (s CampaignSpec) validated() (machine.Config, error) {
	s = s.Normalized()
	if s.Version != SpecVersion {
		return machine.Config{}, fmt.Errorf("%w: %d (want %d)", ErrSpecVersion, s.Version, SpecVersion)
	}
	mc, err := s.MachineConfig()
	if err != nil {
		return machine.Config{}, err
	}
	var seen [NumExtEvents]bool
	for _, e := range s.Events {
		if !e.Valid() {
			return machine.Config{}, fmt.Errorf("%w: event %d invalid", ErrBadSpec, uint8(e))
		}
		if seen[e] {
			return machine.Config{}, fmt.Errorf("%w: event %v repeated", ErrBadSpec, e)
		}
		seen[e] = true
	}
	if err := s.Config.Validate(); err != nil {
		return machine.Config{}, err
	}
	if err := validateRepeats(s.Repeats); err != nil {
		return machine.Config{}, err
	}
	return mc, nil
}

// MachineConfig resolves the spec's machine name.
func (s CampaignSpec) MachineConfig() (machine.Config, error) {
	mc, err := machine.ConfigByName(s.Machine)
	if err != nil {
		return machine.Config{}, fmt.Errorf("%w: %q (have Core2Duo, Pentium3M, TurionX2)", ErrUnknownMachine, s.Machine)
	}
	return mc, nil
}

// GridEvents returns the spec's events, defaulting to the paper's 11.
func (s CampaignSpec) GridEvents() []Event {
	if len(s.Events) == 0 {
		return Events()
	}
	return append([]Event(nil), s.Events...)
}

// Fingerprint canonically identifies the campaign the spec describes;
// service jobs and deduplication key on it. Two specs fingerprint equal
// exactly when they produce bit-identical matrices.
func (s CampaignSpec) Fingerprint() (string, error) {
	mc, err := s.MachineConfig()
	if err != nil {
		return "", err
	}
	return campaignFingerprint(mc, s.Config, s.GridEvents(), s.Seed, s.Repeats), nil
}

// MarshalIndent serializes the normalized spec as indented JSON with a
// trailing newline — the canonical file form emitted by -emit-spec.
func (s CampaignSpec) MarshalIndent() ([]byte, error) {
	data, err := json.MarshalIndent(s.Normalized(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ParseCampaignSpec decodes and validates one JSON spec. Unknown fields
// are rejected so a typo'd field name fails loudly instead of silently
// running the default campaign. Decode failures wrap ErrBadSpec;
// validation failures wrap the sentinels CampaignSpec.Validate reports.
func ParseCampaignSpec(data []byte) (CampaignSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s CampaignSpec
	if err := dec.Decode(&s); err != nil {
		return CampaignSpec{}, fmt.Errorf("%w: %w", ErrBadSpec, err)
	}
	s = s.Normalized()
	if err := s.Validate(); err != nil {
		return CampaignSpec{}, err
	}
	return s, nil
}

// LoadCampaignSpec reads and validates a spec file.
func LoadCampaignSpec(path string) (CampaignSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return CampaignSpec{}, fmt.Errorf("savat: campaign spec: %w", err)
	}
	s, err := ParseCampaignSpec(data)
	if err != nil {
		return CampaignSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}
