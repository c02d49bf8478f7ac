package specan

import (
	"fmt"

	"repro/internal/buf"
)

// PairSource produces two equal-length real streams one block at a
// time: Next fills a[:k] and b[:k] with the next k = min(len(a),
// remaining) samples and returns k, 0 when drained.
// emsim.EnvelopeStream satisfies it.
type PairSource interface {
	Next(a, b []float64) (int, error)
}

// SampleSource produces one complex stream one block at a time with
// the same contract. noise.Stream satisfies it.
type SampleSource interface {
	Next(dst []complex128) (int, error)
}

// blockLen is how many samples the product walks read from a source at
// a time: the walks' only sample buffers are one block per stream,
// whatever the segment length.
const blockLen = 4096

// walkPair drains src block by block into the scratch's pair feed —
// which windows each block straight into the segments it belongs to
// and drops a tail shorter than half a segment — and finishes the
// feed. The source is drained to the end even past the last segment:
// its rng draws must still happen so a capture consumes the same
// randomness whatever its segmentation.
func walkPair(src PairSource, s *Scratch) error {
	for {
		k, err := src.Next(s.ba, s.bb)
		if err != nil {
			return err
		}
		if k == 0 {
			return s.pairFeed.Finish()
		}
		if err := s.pairFeed.Push(s.ba[:k], s.bb[:k]); err != nil {
			return err
		}
	}
}

// walk is walkPair for the complex noise stream and noise feed.
func walk(src SampleSource, s *Scratch) error {
	for {
		k, err := src.Next(s.bn)
		if err != nil {
			return err
		}
		if k == 0 {
			return s.noiseFeed.Finish()
		}
		s.noiseFeed.Push(s.bn[:k])
	}
}

// EnvelopeProductsStream computes the pair-Welch products of an
// envelope pair over the bins of band, at the segmentation an n-sample
// capture gets: it consumes the n-sample pair from src block by block
// (working set O(segment)) and accumulates the products into dst
// (grown as needed; nil allocates). The products depend only on the
// envelopes, the band, the sample rate, and the analyzer's RBW/window —
// not on group coefficients or the floor — so callers may cache and
// share them across every measurement rendered from the same envelope
// realization. The source is fully drained, and each Welch segment is
// transformed and reduced on the caller as soon as its last sample
// arrives.
func (a *Analyzer) EnvelopeProductsStream(n int, band Band, src PairSource, fs float64, s *Scratch, dst *PairPSD) (*PairPSD, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if src == nil {
		return nil, fmt.Errorf("specan: nil envelope source")
	}
	if s == nil {
		s = NewScratch()
	}
	bins, err := a.setup(n, band, fs, s)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &PairPSD{}
	}
	dst.grow(bins.Len())
	s.ba = buf.Grow(s.ba, blockLen)
	s.bb = buf.Grow(s.bb, blockLen)
	if err := s.pairFeed.Init(s.welch, n, bins, dst.PA, dst.PB, dst.Cross, fs, &s.ring); err != nil {
		return nil, err
	}
	if err := walkPair(src, s); err != nil {
		return nil, err
	}
	return dst, nil
}

// NoiseProductsStream computes the Welch PSD of an n-sample complex
// stream over the bins of band: src is consumed block by block and the
// PSD accumulated into dst (grown as needed; nil allocates). Like the
// envelope products, the result is coefficient- and floor-independent
// and may be cached and shared. The source is fully drained, with the
// same segment-by-segment reduction as EnvelopeProductsStream.
func (a *Analyzer) NoiseProductsStream(n int, band Band, src SampleSource, fs float64, s *Scratch, dst []float64) ([]float64, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if src == nil {
		return nil, fmt.Errorf("specan: nil sample source")
	}
	if s == nil {
		s = NewScratch()
	}
	bins, err := a.setup(n, band, fs, s)
	if err != nil {
		return nil, err
	}
	dst = buf.Grow(dst, bins.Len())
	s.bn = buf.Grow(s.bn, blockLen)
	if err := s.noiseFeed.Init(s.welch, n, bins, dst, fs, &s.ring); err != nil {
		return nil, err
	}
	if err := walk(src, s); err != nil {
		return nil, err
	}
	return dst, nil
}
