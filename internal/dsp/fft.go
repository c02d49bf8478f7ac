// Package dsp provides the signal-processing primitives the simulated
// spectrum analyzer is built from: a planned radix-2/4 FFT, window
// functions, periodogram and Welch power-spectral-density estimation,
// segment feeds that stream Welch accumulation, and band-power
// integration.
//
// Conventions: signals are complex baseband samples; PSDs are one-sided in
// W/Hz against a 1 Ω reference (|x|² is watts), with frequencies in Hz.
package dsp

import "math/bits"

// FFT computes the in-place forward discrete Fourier transform of x.
// len(x) must be a power of two. It runs on the process-wide shared
// plan for len(x) (see PlanFor); hot paths that know their length
// should hold a Plan directly.
func FFT(x []complex128) error {
	p, err := PlanFor(len(x))
	if err != nil {
		return err
	}
	return p.Forward(x)
}

// NextPow2 returns the smallest power of two ≥ n (n ≥ 1).
func NextPow2(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}
