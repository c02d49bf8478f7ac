package dsp

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
)

// Plan is a reusable FFT plan for one transform length: the
// bit-reversal permutation and the twiddle factors are computed once,
// each twiddle directly from the angle (no repeated-multiplication
// recurrence), so transforms executed through a plan carry no
// accumulated rounding error from twiddle generation and do no
// per-transform trigonometry.
//
// The butterfly core is a radix-4 decimation-in-time kernel over
// bit-reversed input (a radix-2 lead pass absorbs odd stage counts):
// three complex multiplies per four outputs per pass, with the inner
// loops dispatched to an AVX2 assembly kernel when the CPU has it (see
// kernel.go) and a bit-identical pure-Go kernel otherwise.
//
// A Plan is safe for concurrent use: Forward and Inverse only read the
// plan's tables and work in place on the caller's buffer.
type Plan struct {
	n    int
	perm []int32 // bit-reversal permutation, perm[i] = reverse(i)
	// stages holds one twiddle table per radix-4 pass at half-size
	// h ≥ 2, laid out as three contiguous runs [w1 | w2 | w3] of h
	// entries each — w1[j] = W^j, w2[j] = W^2j, w3[j] = W^3j with
	// W = exp(−2πi/(4h)) — so the SIMD kernel streams all three
	// sequentially. The j = 0 entries are exact units; keeping them
	// makes every inner loop uniform for vectorization. The first pass
	// over an even stage count (h = 1) has all-unit twiddles and needs
	// no table (radix4Pass1).
	stages [][]complex128
}

// NewPlan builds a plan for transforms of length n (a power of two).
func NewPlan(n int) (*Plan, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("dsp: FFT length %d is not a power of two", n)
	}
	p := &Plan{n: n}
	p.perm = make([]int32, n)
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		p.perm[i] = int32(bits.Reverse64(uint64(i)) >> shift)
	}
	tw := func(k int) complex128 { // exp(−2πi·k/n)
		if k == 0 {
			return complex(1, 0) // exact unit for the uniform j = 0 lanes
		}
		s, c := math.Sincos(-2 * math.Pi * float64(k) / float64(n))
		return complex(c, s)
	}
	h := firstRadix4Half(n)
	for ; 4*h <= n; h *= 4 {
		strideA := n / (2 * h) // w2 stride: exp(−2πi·j/(2h))
		strideB := n / (4 * h) // w1 stride: exp(−2πi·j/(4h))
		st := make([]complex128, 3*h)
		for j := 0; j < h; j++ {
			st[j] = tw(j * strideB)
			st[h+j] = tw(j * strideA)
			st[2*h+j] = tw(3 * j * strideB)
		}
		p.stages = append(p.stages, st)
	}
	return p, nil
}

// firstRadix4Half returns the half-size of the first tabled radix-4
// pass: 2 after a radix-2 lead when the stage count is odd, 4 after the
// all-unit first pass when it is even (and ≥ 4 points exist).
func firstRadix4Half(n int) int {
	if bits.TrailingZeros(uint(n))&1 == 1 {
		return 2
	}
	if n >= 4 {
		return 4
	}
	return 1 // n == 1: no passes at all
}

// Len returns the transform length the plan was built for.
func (p *Plan) Len() int { return p.n }

// Forward computes the in-place forward DFT of x; len(x) must equal the
// plan length.
func (p *Plan) Forward(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan length %d, input length %d", p.n, len(x))
	}
	p.forward(x)
	return nil
}

// Inverse computes the in-place inverse DFT of x (normalized by 1/N);
// len(x) must equal the plan length. It conjugates around the forward
// transform, so the hot forward path carries no inverse branches.
func (p *Plan) Inverse(x []complex128) error {
	if len(x) != p.n {
		return fmt.Errorf("dsp: plan length %d, input length %d", p.n, len(x))
	}
	for i := range x {
		x[i] = complex(real(x[i]), -imag(x[i]))
	}
	p.forward(x)
	inv := 1 / float64(p.n)
	for i := range x {
		x[i] = complex(real(x[i])*inv, -imag(x[i])*inv)
	}
	return nil
}

// forward is the in-place forward DFT core: bit-reversal, then the
// butterfly passes.
func (p *Plan) forward(x []complex128) {
	for i, pi := range p.perm {
		if j := int(pi); j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	p.butterflies(x)
}

// butterflies runs the radix-4 passes over x, which must already be in
// bit-reversed order (callers that build the input element-wise can
// scatter through perm and skip the separate reversal pass). An odd
// stage count leads with a plain radix-2 pass; an even one with the
// all-unit radix-4 pass; every later pass reads its stage table. Each
// pass runs on the active butterfly kernel (AVX2 when dispatched,
// pure Go otherwise — bit-identical by construction, see kernel.go).
func (p *Plan) butterflies(x []complex128) {
	h := 1
	if bits.TrailingZeros(uint(p.n))&1 == 1 {
		leadRadix2(x)
		h = 2
	} else if p.n >= 4 {
		radix4Pass1(x)
		h = 4
	}
	for si := 0; 4*h <= p.n; h *= 4 {
		radix4Stage(x, p.stages[si], h)
		si++
	}
}

var planCache onceMap[int, *Plan]

// PlanFor returns a process-wide shared plan for length n, building and
// caching it on first use; concurrent first callers wait for one build.
// Plans are immutable after construction, so the shared instance is
// safe for concurrent transforms.
func PlanFor(n int) (*Plan, error) {
	return planCache.get(n, func() (*Plan, error) {
		planBuilds.Add(1)
		return NewPlan(n)
	})
}

// planBuilds counts the plans PlanFor has built, for tests.
var planBuilds atomic.Int64

// onceMap is a process-wide table whose values are built exactly once
// per key, however many goroutines ask for a missing key at the same
// time: they all wait for the first caller's build. A failed build is
// not kept, so the next caller retries it.
type onceMap[K comparable, V any] struct{ m sync.Map }

type onceCell[V any] struct {
	once sync.Once
	v    V
	err  error
}

func (m *onceMap[K, V]) get(k K, build func() (V, error)) (V, error) {
	c, ok := m.m.Load(k)
	if !ok {
		c, _ = m.m.LoadOrStore(k, new(onceCell[V]))
	}
	cell := c.(*onceCell[V])
	cell.once.Do(func() {
		cell.v, cell.err = build()
		if cell.err != nil {
			m.m.CompareAndDelete(k, cell)
		}
	})
	return cell.v, cell.err
}
