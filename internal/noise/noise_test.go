package noise

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dsp"
)

func TestValidate(t *testing.T) {
	if err := Quiet().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Lab().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Environment{
		{ThermalPSD: -1},
		{RFBackgroundPSD: -1},
		{RFBackgroundSpread: 1.5},
		{Carriers: []Carrier{{Power: -1}}},
		{Carriers: []Carrier{{AMDepth: 2}}},
		{Carriers: []Carrier{{AMRate: -3}}},
	}
	for _, e := range bad {
		if err := e.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", e)
		}
	}
}

func TestApplyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]complex128, 16)
	if err := (Environment{ThermalPSD: -1}).Apply(x, 1e3, rng); err == nil {
		t.Error("invalid env should fail")
	}
	if err := Quiet().Apply(x, 0, rng); err == nil {
		t.Error("zero fs should fail")
	}
}

func TestThermalNoiseLevel(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	env := Environment{ThermalPSD: 1e-12}
	fs := 1e6
	x := make([]complex128, 1<<15)
	if err := env.Apply(x, fs, rng); err != nil {
		t.Fatal(err)
	}
	s, err := dsp.Periodogram(x, fs, dsp.Hann)
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, v := range s.PSD {
		mean += v
	}
	mean /= float64(s.Bins())
	if math.Abs(mean-1e-12) > 0.1e-12 {
		t.Errorf("thermal PSD = %v, want 1e-12", mean)
	}
}

func TestBackgroundSpreadVariesByCampaign(t *testing.T) {
	env := Environment{RFBackgroundPSD: 1e-12, RFBackgroundSpread: 0.3}
	powers := make([]float64, 8)
	for c := range powers {
		rng := rand.New(rand.NewSource(int64(100 + c)))
		x := make([]complex128, 4096)
		if err := env.Apply(x, 1e6, rng); err != nil {
			t.Fatal(err)
		}
		p := 0.0
		for _, v := range x {
			p += real(v)*real(v) + imag(v)*imag(v)
		}
		powers[c] = p / float64(len(x))
	}
	min, max := powers[0], powers[0]
	for _, p := range powers {
		min = math.Min(min, p)
		max = math.Max(max, p)
	}
	if (max-min)/min < 0.05 {
		t.Errorf("background should vary across campaigns: min %v max %v", min, max)
	}
}

func TestCarrierAppearsAtFrequency(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := Environment{
		Carriers: []Carrier{{Freq: 10e3, Power: 1e-9}},
	}
	fs := 1 << 18
	x := make([]complex128, 1<<16)
	if err := env.Apply(x, float64(fs), rng); err != nil {
		t.Fatal(err)
	}
	s, err := dsp.Periodogram(x, float64(fs), dsp.Hann)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.BandPower(9.9e3, 10.1e3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1e-9) > 0.1e-9 {
		t.Errorf("carrier band power = %v, want 1e-9", p)
	}
	// Out-of-band power is negligible.
	off, err := s.BandPower(50e3, 51e3)
	if err != nil {
		t.Fatal(err)
	}
	if off > 1e-12 {
		t.Errorf("out-of-band power = %v", off)
	}
}

func TestCarrierAMSidebands(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	env := Environment{
		Carriers: []Carrier{{Freq: 1000, Power: 1e-6, AMDepth: 0.5, AMRate: 100}},
	}
	fs := 1 << 14
	x := make([]complex128, 1<<14)
	if err := env.Apply(x, float64(fs), rng); err != nil {
		t.Fatal(err)
	}
	s, err := dsp.Periodogram(x, float64(fs), dsp.Hann)
	if err != nil {
		t.Fatal(err)
	}
	// Sidebands at 900 and 1100 Hz with power (depth/2)²·P each.
	for _, f := range []float64{900, 1100} {
		p, err := s.BandPower(f-10, f+10)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.25 * 0.25 * 1e-6
		if math.Abs(p-want) > 0.2*want {
			t.Errorf("sideband at %v Hz power = %v, want %v", f, p, want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	env := Lab()
	mk := func() []complex128 {
		rng := rand.New(rand.NewSource(99))
		x := make([]complex128, 1024)
		if err := env.Apply(x, 1e6, rng); err != nil {
			t.Fatal(err)
		}
		return x
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed must give identical noise")
		}
	}
}

func TestLabHasFloorBackgroundAndCarrier(t *testing.T) {
	env := Lab()
	if env.ThermalPSD != 6e-18 {
		t.Errorf("Lab thermal floor = %v, want the paper's 6e-18", env.ThermalPSD)
	}
	if env.RFBackgroundPSD <= env.ThermalPSD {
		t.Error("Lab background should dominate the thermal floor")
	}
	if len(env.Carriers) == 0 {
		t.Error("Lab should include the Figure 8 radio carrier")
	}
}

// Draining a Stream in blocks of any size must reproduce Apply on a
// zeroed buffer bit for bit in the lab environment — thermal noise, a
// spread background level, and an AM carrier whose phasors re-anchor
// every carrierRenorm samples — and leave the rng where Apply leaves it.
func TestStreamChunkInvariant(t *testing.T) {
	env := Lab()
	const fs, seg, n = 1 << 18, 4096, 3*4096 + 1234
	want := make([]complex128, n)
	wantRng := rand.New(rand.NewSource(13))
	if err := env.Apply(want, fs, wantRng); err != nil {
		t.Fatal(err)
	}
	wantNext := wantRng.Int63()
	for _, chunk := range []int{1, 7, 999, seg, n} {
		rng := rand.New(rand.NewSource(13))
		var s Stream
		if err := s.Init(env, fs, n, rng); err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		for off := 0; off < n; {
			k, err := s.Next(got[off:min(off+chunk, n)])
			if err != nil || k == 0 {
				t.Fatalf("chunk %d: Next at %d = %d, %v", chunk, off, k, err)
			}
			off += k
		}
		if k, _ := s.Next(got); k != 0 {
			t.Errorf("chunk %d: drained stream produced %d more samples", chunk, k)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("chunk %d: sample %d = %v, Apply gives %v", chunk, i, got[i], want[i])
			}
		}
		if rng.Int63() != wantNext {
			t.Errorf("chunk %d: rng left at a different draw than Apply", chunk)
		}
	}
}
