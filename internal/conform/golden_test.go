package conform

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/machine"
	"repro/internal/savat"
)

// update regenerates the committed golden files from the current
// pipeline:
//
//	go test ./internal/conform -run TestGolden -update
var update = flag.Bool("update", false, "regenerate golden files under testdata/golden")

// The golden recipe: a 5-event subset spanning the matrix's dynamic
// range (two main-memory events, the empty slot, and two ALU events) on
// the default machine at the fast capture length.
const goldenSeed = 42

func goldenEvents() []savat.Event {
	return []savat.Event{savat.LDM, savat.STM, savat.NOI, savat.ADD, savat.MUL}
}

var goldenMeasured = sync.OnceValues(func() (*savat.MatrixStats, error) {
	return savat.RunCampaign(machine.Core2Duo(), savat.FastConfig(), savat.CampaignOptions{
		Events: goldenEvents(), Repeats: 1, Seed: goldenSeed,
	})
})

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name)
}

func TestGoldenMatrix(t *testing.T) {
	st, err := goldenMeasured()
	if err != nil {
		t.Fatal(err)
	}
	path := goldenPath("matrix-core2duo.json")
	if *update {
		g := NewGoldenMatrix("5-event fast-capture matrix, Core2Duo at 10 cm",
			"Core2Duo", savat.FastConfig(), goldenSeed, 1, st.Mean)
		if err := SaveGolden(path, g); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	g, err := LoadGoldenMatrix(path)
	if err != nil {
		t.Fatal(err)
	}
	r := g.CompareMatrix("matrix-core2duo", st.Mean, GoldenRelTol)
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

func goldenPSDMeasure() (savat.Measurement, error) {
	return savat.NewMeasurer(machine.Core2Duo(), savat.FastConfig()).Measure(savat.LDM, savat.NOI,
		rand.New(rand.NewSource(goldenSeed)))
}

func TestGoldenPSD(t *testing.T) {
	m, err := goldenPSDMeasure()
	if err != nil {
		t.Fatal(err)
	}
	path := goldenPath("psd-ldm-noi.json")
	if *update {
		g, err := NewGoldenPSD("LDM/NOI band spectrum, Core2Duo at 10 cm",
			"Core2Duo", m, goldenSeed, 80e3, 200)
		if err != nil {
			t.Fatal(err)
		}
		if err := SaveGolden(path, g); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s", path)
	}
	g, err := LoadGoldenPSD(path)
	if err != nil {
		t.Fatal(err)
	}
	r := g.ComparePSD("psd-ldm-noi", m, GoldenRelTol)
	t.Log("\n" + r.String())
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
}

// channelCellMeasure measures the golden LDM/NOI cell through a named
// side channel with the channel's canonical noise environment — the
// same configuration the flag layer builds for -channel.
func channelCellMeasure(t *testing.T, channel string) savat.Measurement {
	t.Helper()
	ch, err := machine.ChannelByName(channel)
	if err != nil {
		t.Fatal(err)
	}
	cfg := savat.FastConfig()
	cfg.Channel = channel
	cfg.Environment = ch.Environment()
	m, err := savat.NewMeasurer(machine.Core2Duo(), cfg).Measure(savat.LDM, savat.NOI,
		rand.New(rand.NewSource(goldenSeed)))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestGoldenChannelCells pins one measured cell per conducted channel:
// any change to the power or impedance coupling tables, the distance-flat
// law, or the channels' noise environments moves these vectors and must
// be a deliberate regeneration.
func TestGoldenChannelCells(t *testing.T) {
	for _, tc := range []struct {
		channel, file string
	}{
		{"power", "psd-ldm-noi-power.json"},
		{"impedance", "psd-ldm-noi-impedance.json"},
	} {
		m := channelCellMeasure(t, tc.channel)
		path := goldenPath(tc.file)
		if *update {
			g, err := NewGoldenPSD("LDM/NOI band spectrum, Core2Duo, "+tc.channel+" channel",
				"Core2Duo", m, goldenSeed, 80e3, 200)
			if err != nil {
				t.Fatal(err)
			}
			if err := SaveGolden(path, g); err != nil {
				t.Fatal(err)
			}
			t.Logf("regenerated %s", path)
		}
		g, err := LoadGoldenPSD(path)
		if err != nil {
			t.Fatal(err)
		}
		r := g.ComparePSD("psd-ldm-noi-"+tc.channel, m, GoldenRelTol)
		t.Log("\n" + r.String())
		if err := r.Err(); err != nil {
			t.Errorf("channel %s: %v", tc.channel, err)
		}
	}
}

// TestGoldenDetectsPerturbation is the suite's own regression test: a
// 1 % perturbation injected into the golden values must fail the
// comparison (the committed tolerance sits four orders of magnitude
// below it).
func TestGoldenDetectsPerturbation(t *testing.T) {
	st, err := goldenMeasured()
	if err != nil {
		t.Fatal(err)
	}
	g, err := LoadGoldenMatrix(goldenPath("matrix-core2duo.json"))
	if err != nil {
		t.Fatal(err)
	}
	g.ZJ[1][2] *= 1.01
	r := g.CompareMatrix("perturbed", st.Mean, GoldenRelTol)
	if r.Ok() {
		t.Fatal("1% matrix perturbation passed the golden comparison")
	}
	found := false
	for _, c := range r.Failures() {
		if strings.Contains(c.Name, "cell/STM-NOI") {
			found = true
		}
	}
	if !found {
		t.Fatalf("perturbed cell not named in failures:\n%s", r)
	}

	m, err := goldenPSDMeasure()
	if err != nil {
		t.Fatal(err)
	}
	gp, err := LoadGoldenPSD(goldenPath("psd-ldm-noi.json"))
	if err != nil {
		t.Fatal(err)
	}
	gp.BandPowerW *= 1.01
	if gp.ComparePSD("perturbed", m, GoldenRelTol).Ok() {
		t.Fatal("1% band-power perturbation passed the golden comparison")
	}
}

func TestGoldenLoadErrors(t *testing.T) {
	if _, err := LoadGoldenMatrix(goldenPath("does-not-exist.json")); err == nil {
		t.Error("missing matrix file accepted")
	}
	if _, err := LoadGoldenPSD(goldenPath("does-not-exist.json")); err == nil {
		t.Error("missing PSD file accepted")
	}

	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGoldenMatrix(bad); err == nil {
		t.Error("malformed JSON accepted")
	}

	// Shape mismatch: 2 events but a 1×1 value grid.
	ragged := filepath.Join(dir, "ragged.json")
	if err := os.WriteFile(ragged, []byte(`{"events":["LDM","NOI"],"zj":[[1]]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGoldenMatrix(ragged); err == nil {
		t.Error("ragged matrix accepted")
	}
	raggedPSD := filepath.Join(dir, "raggedpsd.json")
	if err := os.WriteFile(raggedPSD, []byte(`{"freq_hz":[1,2],"psd_w_per_hz":[1]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadGoldenPSD(raggedPSD); err == nil {
		t.Error("ragged PSD accepted")
	}
}

// TestGoldenShapeMismatch checks that a measured matrix over a
// different event set is rejected rather than silently compared.
func TestGoldenShapeMismatch(t *testing.T) {
	g, err := LoadGoldenMatrix(goldenPath("matrix-core2duo.json"))
	if err != nil {
		t.Fatal(err)
	}
	if g.CompareMatrix("shape", synthMatrix(4), GoldenRelTol).Ok() {
		t.Error("wrong-size matrix passed")
	}
	if g.CompareMatrix("shape", synthMatrix(5), GoldenRelTol).Ok() {
		t.Error("wrong-event matrix passed")
	}
}
