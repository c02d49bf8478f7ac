package cliconf

import (
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/savat"
	"repro/internal/store"
)

func parse(t *testing.T, which Set, args ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs, which)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDefaultsValid(t *testing.T) {
	f := parse(t, All)
	if err := f.Validate(); err != nil {
		t.Fatalf("paper defaults invalid: %v", err)
	}
	if f.Machine != "Core2Duo" || f.Distance != 0.10 || f.Frequency != 80e3 ||
		f.Repeats != 10 || f.Seed != 1 || f.Fast {
		t.Errorf("defaults = %+v", f)
	}
}

func TestSentinelErrors(t *testing.T) {
	cases := []struct {
		args []string
		want error
	}{
		{[]string{"-machine", "Cray1"}, ErrUnknownMachine},
		{[]string{"-machine", "core2duo"}, ErrUnknownMachine}, // names are case-sensitive
		{[]string{"-machine", ""}, ErrUnknownMachine},
		{[]string{"-distance", "0"}, ErrBadDistance},
		{[]string{"-distance", "-0.5"}, ErrBadDistance},
		{[]string{"-freq", "0"}, ErrBadFrequency},
		{[]string{"-freq", "-80e3"}, ErrBadFrequency},
		// Non-finite values are rejected, not measured into a NaN SAVAT
		// (distance) or an out-of-range band index (frequency).
		{[]string{"-distance", "NaN"}, ErrBadDistance},
		{[]string{"-distance", "+Inf"}, ErrBadDistance},
		{[]string{"-freq", "NaN"}, ErrBadFrequency},
		{[]string{"-freq", "Inf"}, ErrBadFrequency},
		{[]string{"-repeats", "0"}, ErrBadRepeats},
		{[]string{"-repeats", "-3"}, ErrBadRepeats},
		// An unbounded count would size the campaign's value grid.
		{[]string{"-repeats", "9223372036854775807"}, savat.ErrTooLarge},
		// The first problem wins when several flags are bad.
		{[]string{"-machine", "Cray1", "-distance", "0"}, ErrUnknownMachine},
		{[]string{"-distance", "0", "-repeats", "0"}, ErrBadDistance},
	}
	for _, c := range cases {
		f := parse(t, All, c.args...)
		if err := f.Validate(); !errors.Is(err, c.want) {
			t.Errorf("args %v: err = %v, want %v", c.args, err, c.want)
		}
	}
}

func TestUnregisteredFlagsNotValidated(t *testing.T) {
	// A command that only registers -machine must not trip over the
	// zero values of the flags it never exposed.
	f := parse(t, Machine)
	f.Repeats = 0
	f.Distance = 0
	if err := f.Validate(); err != nil {
		t.Errorf("unregistered fields validated: %v", err)
	}
}

func TestMachineConfig(t *testing.T) {
	f := parse(t, Machine, "-machine", "TurionX2")
	mc, err := f.MachineConfig()
	if err != nil {
		t.Fatal(err)
	}
	if mc.Name != "TurionX2" {
		t.Errorf("machine = %s", mc.Name)
	}
	f = parse(t, Machine, "-machine", "nope")
	if _, err := f.MachineConfig(); !errors.Is(err, ErrUnknownMachine) {
		t.Errorf("err = %v, want ErrUnknownMachine", err)
	}
}

// The campaign spec's measurement configuration is the default (or,
// with -fast, the quarter-second) one with the registered distance and
// frequency applied.
func TestMeasureConfig(t *testing.T) {
	f := parse(t, All, "-fast", "-distance", "0.5", "-freq", "40e3")
	spec, err := f.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	cfg := spec.Config
	if cfg.Distance != 0.5 || cfg.Frequency != 40e3 {
		t.Errorf("cfg = %+v", cfg)
	}
	if cfg.Duration != 0.25 {
		t.Errorf("fast config not applied: duration %v", cfg.Duration)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("produced config invalid: %v", err)
	}

	// Without the Distance flag registered, the default stands even if
	// the field was clobbered.
	f = parse(t, Fast)
	f.Distance = 99
	if spec, err = f.CampaignSpec(); err != nil {
		t.Fatal(err)
	}
	if spec.Config.Distance != 0.10 {
		t.Errorf("unregistered distance applied: %v", spec.Config.Distance)
	}
}

func TestCampaignSpecFromFlags(t *testing.T) {
	f := parse(t, All|Spec, "-machine", "TurionX2", "-distance", "0.5", "-repeats", "3", "-seed", "7", "-fast")
	spec, err := f.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Machine != "TurionX2" || spec.Config.Distance != 0.5 ||
		spec.Repeats != 3 || spec.Seed != 7 || spec.Config.Duration != 0.25 {
		t.Errorf("spec = %+v", spec)
	}
	if err := spec.Validate(); err != nil {
		t.Errorf("resolved spec invalid: %v", err)
	}

	// Bad flags fail with the shared sentinel through the spec path too.
	f = parse(t, All|Spec, "-machine", "Cray1")
	if _, err := f.CampaignSpec(); !errors.Is(err, ErrUnknownMachine) {
		t.Errorf("err = %v, want ErrUnknownMachine", err)
	}
}

func TestCampaignSpecFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/spec.json"

	// Emit from one flag set, load from another: the file overrides the
	// second invocation's setup flags.
	f := parse(t, All|Spec, "-machine", "Pentium3M", "-repeats", "2", "-emit-spec", path)
	emitted, err := f.WriteEmittedSpec()
	if err != nil {
		t.Fatal(err)
	}
	if !emitted {
		t.Fatal("-emit-spec set but not emitted")
	}

	f = parse(t, All|Spec, "-machine", "Core2Duo", "-spec", path)
	spec, err := f.CampaignSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.Machine != "Pentium3M" || spec.Repeats != 2 {
		t.Errorf("-spec file should override flags: %+v", spec)
	}

	// Without -emit-spec nothing is written and the command proceeds.
	f = parse(t, All|Spec)
	if emitted, err := f.WriteEmittedSpec(); err != nil || emitted {
		t.Errorf("emitted=%v err=%v without -emit-spec", emitted, err)
	}

	// A missing spec file fails loudly.
	f = parse(t, All|Spec, "-spec", dir+"/missing.json")
	if _, err := f.CampaignSpec(); err == nil {
		t.Error("missing -spec file accepted")
	}
}

func TestStartObs(t *testing.T) {
	// Flag unset: start and stop are no-ops and the registry stays off.
	f := parse(t, Metrics)
	stop, err := f.StartObs(nil)
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent
	if obs.Default.Enabled() {
		t.Fatal("registry enabled without -metrics-addr")
	}

	// Flag set: the registry turns on and /metrics answers.
	f = parse(t, Metrics, "-metrics-addr", "localhost:0")
	stop, err = f.StartObs(func() any { return map[string]int{"done": 3} })
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	if !obs.Default.Enabled() {
		t.Error("registry not enabled by -metrics-addr")
	}
	t.Cleanup(func() { obs.Default.SetEnabled(false) })

	// An unusable address fails up front.
	f = parse(t, Metrics, "-metrics-addr", "256.256.256.256:1")
	if _, err := f.StartObs(nil); err == nil {
		t.Error("unusable -metrics-addr accepted")
	}
}

func TestStartProfiles(t *testing.T) {
	// Neither flag set: start and stop are no-ops.
	f := parse(t, Profile)
	stop, err := f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent

	// Both flags set: the profile files appear and are non-empty.
	dir := t.TempDir()
	cpu, mem := dir+"/cpu.pprof", dir+"/mem.pprof"
	f = parse(t, Profile, "-cpuprofile", cpu, "-memprofile", mem)
	stop, err = f.StartProfiles()
	if err != nil {
		t.Fatal(err)
	}
	stop()
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}

	// An unwritable path fails up front rather than at exit.
	f = parse(t, Profile, "-cpuprofile", dir+"/no/such/dir/x.pprof")
	if _, err := f.StartProfiles(); err == nil {
		t.Error("unwritable -cpuprofile accepted")
	}
}

// cellCampaign runs a one-cell campaign keyed key over cache: it
// computes v on a miss and reports whether the cell was served cached.
func cellCampaign(t *testing.T, cache *engine.Cache, key string, v float64) (float64, bool) {
	t.Helper()
	res, err := engine.Run(context.Background(), engine.Spec{
		Rows: 1, Cols: 1, Reps: 1,
		Key: func(int, int, int) string { return key },
		Compute: func(context.Context, int, int, int) (float64, error) {
			return v, nil
		},
	}, engine.Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	return res.Values[0][0][0], res.Stats.Cached == 1
}

func TestOpenCacheBackends(t *testing.T) {
	// Without -cache-dir: memory-only cache, no-op closer.
	f := parse(t, All|CacheDir)
	cache, closeCache, err := f.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	cellCampaign(t, cache, "k", 1)
	if v, ok := cellCampaign(t, cache, "k", -1); !ok || v != 1 {
		t.Fatalf("memory-only cache: (%v, %v)", v, ok)
	}
	if err := closeCache(); err != nil {
		t.Fatal(err)
	}

	// With -cache-dir the cache persists through the segment log: a
	// second open over the same directory sees the first one's cells.
	dir := t.TempDir()
	f = parse(t, All|CacheDir, "-cache-dir", dir)
	cache, closeCache, err = f.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	cellCampaign(t, cache, "cell", 42.5)
	if err := closeCache(); err != nil {
		t.Fatal(err)
	}
	if seg, err := os.Stat(filepath.Join(dir, "000001.seg")); err != nil || seg.Size() == 0 {
		t.Fatalf("store cache wrote no segment: %v", err)
	}
	cache, closeCache, err = f.OpenCache()
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := cellCampaign(t, cache, "cell", -1); !ok || v != 42.5 {
		t.Fatalf("reopened store cache: (%v, %v)", v, ok)
	}
	// A second run on a -cache-dir that a live run holds is refused.
	if _, _, err := f.OpenCache(); !errors.Is(err, store.ErrLocked) {
		t.Fatalf("second OpenCache on a held -cache-dir: %v, want store.ErrLocked", err)
	}
	if err := closeCache(); err != nil {
		t.Fatal(err)
	}
}
