package dsp

import (
	"fmt"
	"math"
)

// Window identifies a tapering function applied before spectral analysis.
type Window uint8

const (
	// Rectangular applies no taper: best RBW, worst leakage.
	Rectangular Window = iota
	// Hann is the general-purpose taper used by default.
	Hann
	// Blackman trades RBW for very low sidelobes.
	Blackman
	// FlatTop gives accurate amplitude readout of discrete tones, like a
	// spectrum analyzer's flat-top RBW filter.
	FlatTop
)

// String returns the window name.
func (w Window) String() string {
	switch w {
	case Rectangular:
		return "rectangular"
	case Hann:
		return "hann"
	case Blackman:
		return "blackman"
	case FlatTop:
		return "flattop"
	}
	return fmt.Sprintf("window(%d)", uint8(w))
}

// MarshalText encodes the window by name ("hann"), so configurations
// embedded in the campaign-spec wire format stay readable and stable
// across reorderings of the Window constants.
func (w Window) MarshalText() ([]byte, error) {
	if w > FlatTop {
		return nil, fmt.Errorf("dsp: cannot marshal unknown window %d", uint8(w))
	}
	return []byte(w.String()), nil
}

// UnmarshalText decodes a window name written by MarshalText.
func (w *Window) UnmarshalText(text []byte) error {
	for cand := Rectangular; cand <= FlatTop; cand++ {
		if cand.String() == string(text) {
			*w = cand
			return nil
		}
	}
	return fmt.Errorf("dsp: unknown window %q", text)
}

// windowEntry caches the coefficients and gains of one (window, length)
// pair; the coeff slice is shared and must never be mutated.
type windowEntry struct {
	coeff           []float64
	coherent, noise float64
}

var windowCache onceMap[windowKey, *windowEntry]

type windowKey struct {
	w Window
	n int
}

// cached returns the shared entry for (w, n), computing it on first
// use. Window coefficients are pure cosine sums, so the cache turns the
// per-call trigonometry — which dominates repeated Welch runs at fixed
// segment length — into a one-time cost.
func (w Window) cached(n int) (*windowEntry, error) {
	return windowCache.get(windowKey{w, n}, func() (*windowEntry, error) {
		coeff, err := w.compute(n)
		if err != nil {
			return nil, err
		}
		e := &windowEntry{coeff: coeff}
		var s, s2 float64
		for _, v := range coeff {
			s += v
			s2 += v * v
		}
		fn := float64(n)
		e.coherent, e.noise = s/fn, s2/fn
		return e, nil
	})
}

// Coefficients returns the n window coefficients. The slice is the
// caller's to mutate; internal spectral estimators share a cached copy
// instead (see cached).
func (w Window) Coefficients(n int) ([]float64, error) {
	e, err := w.cached(n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	copy(out, e.coeff)
	return out, nil
}

func (w Window) compute(n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("dsp: window length %d", n)
	}
	out := make([]float64, n)
	den := float64(n - 1)
	if n == 1 {
		den = 1
	}
	for i := range out {
		t := 2 * math.Pi * float64(i) / den
		switch w {
		case Rectangular:
			out[i] = 1
		case Hann:
			out[i] = 0.5 - 0.5*math.Cos(t)
		case Blackman:
			out[i] = 0.42 - 0.5*math.Cos(t) + 0.08*math.Cos(2*t)
		case FlatTop:
			out[i] = 0.21557895 - 0.41663158*math.Cos(t) + 0.277263158*math.Cos(2*t) -
				0.083578947*math.Cos(3*t) + 0.006947368*math.Cos(4*t)
		default:
			return nil, fmt.Errorf("dsp: unknown window %d", uint8(w))
		}
	}
	return out, nil
}

// Gains returns the coherent gain (mean of coefficients) and the noise
// gain (mean of squared coefficients) for a window of length n; PSD
// estimators divide by the noise gain so white-noise levels are unbiased.
func (w Window) Gains(n int) (coherent, noise float64, err error) {
	e, err := w.cached(n)
	if err != nil {
		return 0, 0, err
	}
	return e.coherent, e.noise, nil
}

// ENBW returns the equivalent noise bandwidth of the window in bins:
// n·Σw²/(Σw)². The RBW of a windowed FFT is ENBW·fs/n.
func (w Window) ENBW(n int) (float64, error) {
	cg, ng, err := w.Gains(n)
	if err != nil {
		return 0, err
	}
	return ng / (cg * cg), nil
}
