package savat

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/counter"
)

func TestCampaignSpecRoundTrip(t *testing.T) {
	spec := DefaultCampaignSpec()
	spec.Events = []Event{ADD, LDM, DIV}
	spec.Repeats = 3
	spec.Seed = 42
	spec.Config.Distance = 0.50

	data, err := spec.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCampaignSpec(data)
	if err != nil {
		t.Fatalf("round trip: %v\n%s", err, data)
	}
	if !reflect.DeepEqual(back, spec.Normalized()) {
		t.Errorf("round trip changed the spec:\n in %+v\nout %+v", spec.Normalized(), back)
	}

	// Events serialize as mnemonics, not numbers.
	if !strings.Contains(string(data), `"ADD"`) || !strings.Contains(string(data), `"LDM"`) {
		t.Errorf("events should serialize as mnemonics:\n%s", data)
	}

	fpA, err := spec.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpB, err := back.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpA != fpB {
		t.Errorf("round trip changed the fingerprint: %s vs %s", fpA, fpB)
	}
}

func TestCampaignSpecValidate(t *testing.T) {
	base := DefaultCampaignSpec()
	cases := []struct {
		name  string
		tweak func(*CampaignSpec)
		want  error
	}{
		{"future-version", func(s *CampaignSpec) { s.Version = SpecVersion + 1 }, ErrSpecVersion},
		{"unknown-machine", func(s *CampaignSpec) { s.Machine = "Cray1" }, ErrUnknownMachine},
		{"bad-distance", func(s *CampaignSpec) { s.Config.Distance = -1 }, ErrBadDistance},
		{"bad-frequency", func(s *CampaignSpec) { s.Config.Frequency = 0 }, ErrBadFrequency},
		{"frequency-above-clock", func(s *CampaignSpec) {
			// 30 MHz leaves the 2 GHz Core 2 Duo under 100 cycles per period.
			s.Config.Frequency, s.Config.SampleRate, s.Config.Duration = 30e6, 1<<26, 0.01
		}, ErrBadFrequency},
		{"bad-repeats", func(s *CampaignSpec) { s.Repeats = 0 }, ErrBadRepeats},
		{"repeats-over", func(s *CampaignSpec) { s.Repeats = MaxRepeats + 1 }, ErrTooLarge},
		{"repeats-max-int", func(s *CampaignSpec) { s.Repeats = math.MaxInt }, ErrTooLarge},
		{"unknown-channel", func(s *CampaignSpec) { s.Config.Channel = "acoustic" }, ErrUnknownChannel},
		{"repeated-event", func(s *CampaignSpec) { s.Events = []Event{ADD, LDM, ADD} }, ErrBadSpec},
		{"band-at-nyquist", func(s *CampaignSpec) {
			s.Config.SampleRate = 2 * (s.Config.Frequency + s.Config.BandHalfWidth)
		}, ErrBadConfig},
		{"bad-countermeasure", func(s *CampaignSpec) {
			s.Config.Countermeasures = counter.Chain{{Name: counter.NoopInsert, Param: 2}}
		}, ErrBadCountermeasure},
		// Finite values the pipeline cannot measure: a jitter period
		// scale at or below zero never advances the envelope timeline;
		// the rest measured NaN or ±Inf, or failed after validation.
		{"freq-offset-stalls", func(s *CampaignSpec) { s.Config.Jitter.FreqOffset = -1 }, ErrBadConfig},
		{"freq-offset-negative-scale", func(s *CampaignSpec) { s.Config.Jitter.FreqOffset = -2 }, ErrBadConfig},
		{"freq-offset-above-nyquist", func(s *CampaignSpec) { s.Config.Jitter.FreqOffset = -0.999 }, ErrBadConfig},
		{"negative-drift", func(s *CampaignSpec) { s.Config.Jitter.DriftStd = -0.1 }, ErrBadConfig},
		{"negative-max-drift", func(s *CampaignSpec) { s.Config.Jitter.MaxDrift = -0.1 }, ErrBadConfig},
		{"amp-noise-huge", func(s *CampaignSpec) { s.Config.Jitter.AmpNoiseStd = 1e300 }, ErrBadConfig},
		{"amp-corr-above", func(s *CampaignSpec) { s.Config.Jitter.AmpNoiseCorr = 5 }, ErrBadConfig},
		{"amp-corr-below", func(s *CampaignSpec) { s.Config.Jitter.AmpNoiseCorr = -5 }, ErrBadConfig},
		{"distance-tiny", func(s *CampaignSpec) { s.Config.Distance = 1e-100 }, ErrBadDistance},
		{"thermal-huge", func(s *CampaignSpec) { s.Config.Environment.ThermalPSD = 1e308 }, ErrBadConfig},
		{"background-huge", func(s *CampaignSpec) { s.Config.Environment.RFBackgroundPSD = 1e308 }, ErrBadConfig},
		{"floor-huge", func(s *CampaignSpec) { s.Config.Analyzer.FloorPSD = 1e308 }, ErrBadConfig},
		{"rbw-huge", func(s *CampaignSpec) { s.Config.Analyzer.RBW = 1e300 }, ErrBadConfig},
		{"zero-sample-capture", func(s *CampaignSpec) { s.Config.Duration = 2e-6 }, ErrBadConfig},
		// A valid chain whose model-side effects push the effective
		// jitter out of range: shuffling adds drift, and with MaxDrift 0
		// the walk's clamp follows it.
		{"chain-stalls-jitter", func(s *CampaignSpec) {
			s.Config.Jitter.MaxDrift = 0
			s.Config.Jitter.FreqOffset = -0.3 // valid as given: the scale stays above 0.69
			s.Config.Countermeasures = counter.Chain{{Name: counter.Shuffle, Param: 64}}
		}, ErrBadConfig},
	}
	for _, c := range cases {
		s := base
		c.tweak(&s)
		if err := s.Validate(); !errors.Is(err, c.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", c.name, err, c.want)
		}
	}
	if err := base.Validate(); err != nil {
		t.Errorf("default spec should validate: %v", err)
	}
	atBound := base
	atBound.Repeats = MaxRepeats
	if err := atBound.Validate(); err != nil {
		t.Errorf("repeats at MaxRepeats should validate: %v", err)
	}

	// Version 0 is normalized, not rejected — hand-written specs may
	// omit it.
	s := base
	s.Version = 0
	if err := s.Validate(); err != nil {
		t.Errorf("zero version should normalize: %v", err)
	}

	// An invalid event in the grid is rejected.
	s = base
	s.Events = []Event{ADD, Event(99)}
	if err := s.Validate(); err == nil {
		t.Error("invalid grid event should fail validation")
	}
}

func TestParseCampaignSpecRejectsUnknownFields(t *testing.T) {
	data, err := DefaultCampaignSpec().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	// A typo'd field must fail loudly, not silently run the default.
	bad := strings.Replace(string(data), `"seed"`, `"sede"`, 1)
	if _, err := ParseCampaignSpec([]byte(bad)); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := ParseCampaignSpec([]byte(`{"machine": "Core2Duo"`)); err == nil {
		t.Error("truncated JSON should be rejected")
	}
}

func TestLoadCampaignSpec(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	data, err := DefaultCampaignSpec().MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadCampaignSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Machine != "Core2Duo" {
		t.Errorf("loaded %+v", spec)
	}
	if _, err := LoadCampaignSpec(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file should fail")
	}
}

// The fingerprint must track exactly the fields that determine cell
// values: events defaulting (nil == all 11) fingerprints equal, while
// any value-determining change fingerprints differently.
func TestCampaignSpecFingerprint(t *testing.T) {
	base := DefaultCampaignSpec()
	fp := func(s CampaignSpec) string {
		t.Helper()
		f, err := s.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	all := base
	all.Events = Events()
	if fp(base) != fp(all) {
		t.Error("nil events and the explicit full grid must fingerprint equal")
	}

	for _, tweak := range []func(*CampaignSpec){
		func(s *CampaignSpec) { s.Machine = "Pentium3M" },
		func(s *CampaignSpec) { s.Seed = 2 },
		func(s *CampaignSpec) { s.Repeats = 5 },
		func(s *CampaignSpec) { s.Config.Distance = 1.0 },
		func(s *CampaignSpec) { s.Events = []Event{ADD, LDM} },
		func(s *CampaignSpec) { s.Config.Channel = "power" },
		func(s *CampaignSpec) { s.Config.Channel = "impedance" },
		func(s *CampaignSpec) {
			s.Config.Countermeasures = counter.Chain{{Name: counter.NoopInsert, Param: 0.1}}
		},
	} {
		s := base
		tweak(&s)
		if fp(s) == fp(base) {
			t.Errorf("value-determining change did not change fingerprint: %+v", s)
		}
	}

	// The legacy empty channel and the explicit "em" describe the same
	// campaign: same fingerprint, so v1-era cache cells stay usable.
	em := base
	em.Config.Channel = "em"
	legacy := base
	legacy.Config.Channel = ""
	if fp(em) != fp(legacy) {
		t.Error("empty channel and explicit em must fingerprint equal")
	}
}

// TestSpecVersionGoldenRoundTrip loads the committed wire-format files
// for both spec versions: the version-1 file (written before the channel
// and countermeasure dimensions existed) must normalize to the exact
// canonical v2 spec, and the version-2 file must load its channel and
// countermeasure chain intact and survive a marshal/parse round trip.
func TestSpecVersionGoldenRoundTrip(t *testing.T) {
	v1, err := LoadCampaignSpec(filepath.Join("testdata", "spec-v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	if v1.Version != SpecVersion {
		t.Errorf("v1 file normalized to version %d, want %d", v1.Version, SpecVersion)
	}
	if v1.Config.Channel != "em" || len(v1.Config.Countermeasures) != 0 {
		t.Errorf("v1 file defaults: channel %q, countermeasures %v", v1.Config.Channel, v1.Config.Countermeasures)
	}
	// The v1 file is the default campaign at the paper's setup with a
	// 3-event grid; its normalized form must equal the same spec written
	// natively in v2 — including the fingerprint that keys service jobs.
	want := DefaultCampaignSpec()
	want.Events = []Event{ADD, LDM, DIV}
	want.Repeats = 3
	want.Seed = 17
	want = want.Normalized()
	if !reflect.DeepEqual(v1, want) {
		t.Errorf("v1 file normalized to:\n%+v\nwant:\n%+v", v1, want)
	}
	fpGot, err := v1.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fpWant, err := want.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fpGot != fpWant {
		t.Error("v1 file fingerprints differently from its native v2 form")
	}

	v2, err := LoadCampaignSpec(filepath.Join("testdata", "spec-v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	if v2.Config.Channel != "power" {
		t.Errorf("v2 channel %q", v2.Config.Channel)
	}
	wantChain := counter.Chain{
		{Name: counter.NoopInsert, Param: 0.1},
		{Name: counter.SupplyFilter, Param: 20000},
	}
	if !reflect.DeepEqual(v2.Config.Countermeasures, wantChain) {
		t.Errorf("v2 countermeasures %v, want %v", v2.Config.Countermeasures, wantChain)
	}
	data, err := v2.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseCampaignSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, v2) {
		t.Errorf("v2 marshal/parse round trip changed the spec:\n%+v\nvs\n%+v", back, v2)
	}

	// A future version is rejected no matter how plausible the body.
	future := strings.Replace(string(data), `"version": 2`, fmt.Sprintf(`"version": %d`, SpecVersion+1), 1)
	if _, err := ParseCampaignSpec([]byte(future)); !errors.Is(err, ErrSpecVersion) {
		t.Errorf("future version: got %v, want ErrSpecVersion", err)
	}
}

// A grid that names an event twice is rejected at parse time, so a
// small body can never describe an unbounded campaign: 170,001 "ADD"
// events at MaxRepeats fit in under 1 MiB of JSON but would be a
// 2.9e13-cell grid.
func TestParseCampaignSpecRejectsRepeatedEvents(t *testing.T) {
	body := fmt.Sprintf(`{"machine": "Core2Duo", "config": %s, "events": [%s"ADD"], "repeats": %d, "seed": 1}`,
		mustJSON(t, FastConfig()), strings.Repeat(`"ADD", `, 170000), MaxRepeats)
	if _, err := ParseCampaignSpec([]byte(body)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("170,001 repeated events: got %v, want ErrBadSpec", err)
	}
	// Every distinct event once is the largest grid a spec can name.
	all := DefaultCampaignSpec()
	all.Events = ExtendedEvents()
	all.Repeats = MaxRepeats
	if err := all.Validate(); err != nil {
		t.Errorf("all %d extended events once: %v", NumExtEvents, err)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
