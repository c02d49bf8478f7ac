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

// fillPair reads exactly len(a) samples from src (looping over partial
// blocks), erroring if the source drains early.
func fillPair(src PairSource, a, b []float64) error {
	for off := 0; off < len(a); {
		k, err := src.Next(a[off:], b[off:])
		if err != nil {
			return err
		}
		if k == 0 {
			return fmt.Errorf("specan: envelope source drained after %d of %d samples", off, len(a))
		}
		off += k
	}
	return nil
}

// fill reads exactly len(dst) samples from src.
func fill(src SampleSource, dst []complex128) error {
	for off := 0; off < len(dst); {
		k, err := src.Next(dst[off:])
		if err != nil {
			return err
		}
		if k == 0 {
			return fmt.Errorf("specan: sample source drained after %d of %d samples", off, len(dst))
		}
		off += k
	}
	return nil
}

// drainPair consumes src to exhaustion, discarding samples into the
// scrap windows. The Welch walk ignores any tail shorter than half a
// segment, but the sources' rng draws must still happen so a capture
// consumes the same randomness whatever its segmentation.
func drainPair(src PairSource, a, b []float64) error {
	for {
		k, err := src.Next(a, b)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
	}
}

func drain(src SampleSource, dst []complex128) error {
	for {
		k, err := src.Next(dst)
		if err != nil {
			return err
		}
		if k == 0 {
			return nil
		}
	}
}

// walkPair pushes the n-sample envelope pair from src through the
// scratch's pair feed and finishes it. The first full segment is read
// whole; after that the window slides by half: the second half becomes
// the first half of the next segment, so each later segment costs one
// half-window read. The capture's last segment goes in through
// FeedFinal, transformed on this goroutine since Finish waits for it.
func walkPair(n int, src PairSource, s *Scratch) error {
	seg := len(s.wa)
	half := seg / 2
	if err := fillPair(src, s.wa, s.wb); err != nil {
		return err
	}
	for read := seg; read+half <= n; read += half {
		if err := s.pairFeed.Feed(s.wa, s.wb); err != nil {
			return err
		}
		copy(s.wa[:half], s.wa[half:])
		copy(s.wb[:half], s.wb[half:])
		if err := fillPair(src, s.wa[half:], s.wb[half:]); err != nil {
			return err
		}
	}
	if err := s.pairFeed.FeedFinal(s.wa, s.wb); err != nil {
		return err
	}
	// The window contents are already consumed (FeedFinal scatters
	// before returning), so the tail can be discarded into the windows.
	if err := drainPair(src, s.wa, s.wb); err != nil {
		return err
	}
	return s.pairFeed.Finish()
}

// walk is walkPair for the complex noise stream and noise feed.
func walk(n int, src SampleSource, s *Scratch) error {
	seg := len(s.wn)
	half := seg / 2
	if err := fill(src, s.wn); err != nil {
		return err
	}
	for read := seg; read+half <= n; read += half {
		if err := s.noiseFeed.Feed(s.wn); err != nil {
			return err
		}
		copy(s.wn[:half], s.wn[half:])
		if err := fill(src, s.wn[half:]); err != nil {
			return err
		}
	}
	if err := s.noiseFeed.FeedFinal(s.wn); err != nil {
		return err
	}
	if err := drain(src, s.wn); err != nil {
		return err
	}
	return s.noiseFeed.Finish()
}

// EnvelopeProductsStream computes the pair-Welch products of an
// envelope pair at the segmentation an n-sample capture gets: it
// consumes the n-sample pair from src segment by segment (working set
// O(segment)) and accumulates the products into dst (grown as needed;
// nil allocates). The products depend only on the envelopes, the
// sample rate, and the analyzer's RBW/window — not on group
// coefficients or the floor — so callers may cache and share them
// across every measurement rendered from the same envelope
// realization. The source is fully drained — the Welch walk ignores
// any tail shorter than half a segment, but the source's rng draws
// must still happen so a measurement consumes the same randomness
// whatever its segmentation. Per-segment transforms fan out on the
// scratch's Pool (workpool.Default when nil); reduction order is
// fixed, so results do not depend on the pool.
func (a *Analyzer) EnvelopeProductsStream(n int, src PairSource, fs float64, s *Scratch, dst *PairPSD) (*PairPSD, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if src == nil {
		return nil, fmt.Errorf("specan: nil envelope source")
	}
	if s == nil {
		s = NewScratch()
	}
	seg, _, err := a.setup(n, fs, s)
	if err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &PairPSD{}
	}
	dst.grow(seg)
	s.wa = s.growFloats(s.wa, seg)
	s.wb = s.growFloats(s.wb, seg)
	if err := s.pairFeed.Init(s.welch, dst.PA, dst.PB, dst.Cross, fs, &s.ring, s.Pool, s.Mem); err != nil {
		return nil, err
	}
	if err := walkPair(n, src, s); err != nil {
		s.ring.Settle() // no transform outlives the call that fed it
		return nil, err
	}
	return dst, nil
}

// NoiseProductsStream computes the Welch PSD of an n-sample complex
// stream: src is consumed segment by segment and the PSD accumulated
// into dst (grown as needed; nil allocates). Like the envelope
// products, the result is coefficient- and floor-independent and may
// be cached and shared. The source is fully drained, with the same
// pool and ordering guarantees as EnvelopeProductsStream.
func (a *Analyzer) NoiseProductsStream(n int, src SampleSource, fs float64, s *Scratch, dst []float64) ([]float64, error) {
	sp := mAnalyze.Start()
	defer sp.End()
	if src == nil {
		return nil, fmt.Errorf("specan: nil sample source")
	}
	if s == nil {
		s = NewScratch()
	}
	seg, _, err := a.setup(n, fs, s)
	if err != nil {
		return nil, err
	}
	dst = buf.Grow(dst, seg) // published product: heap, never arena
	s.wn = s.growComplexes(s.wn, seg)
	if err := s.noiseFeed.Init(s.welch, dst, fs, &s.ring, s.Pool, s.Mem); err != nil {
		return nil, err
	}
	if err := walk(n, src, s); err != nil {
		s.ring.Settle()
		return nil, err
	}
	return dst, nil
}
