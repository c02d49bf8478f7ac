// Package emsim models how component switching activity becomes the EM
// signal a loop antenna receives at a given distance.
//
// Model, and why it is shaped this way (DESIGN.md §2):
//
//   - Each microarchitectural component (internal/activity) is a radiating
//     source with a near-field coupling term that falls off as 1/r³, a
//     far-field term that falls off as 1/r, and a conducted (distance-flat)
//     term. On-chip structures (ALU, caches) are almost purely near-field,
//     while the off-chip processor–memory interface drives long board
//     traces with genuine far-field and conducted components. This
//     reproduces the paper's distance findings: at 10 cm L2 hits are as
//     distinguishable as DRAM accesses, at 50/100 cm only off-chip events
//     remain prominent, and values barely drop from 50 cm to 100 cm
//     (Figures 16–18).
//
//   - A component's received amplitude is coupling × √(event rate): the
//     events of one component form an incoherent pulse train, so the
//     in-band *power* of the alternation envelope scales linearly with the
//     event rate. This matches the paper's STL2 ≈ 2×LDL2 relation (double
//     L2 traffic per store) rather than the 4× a coherent model predicts.
//
//   - Components belong to coherence groups. Sources within a group share
//     a current loop (the off-chip bus and the DRAM device it drives) and
//     add coherently with fixed geometry phases. Sources in different
//     groups have distinct spatial field structure and polarization, so
//     their band powers add incoherently at the antenna. A single coherent
//     (scalar) model cannot reproduce the paper's observation that LDM and
//     LDL2 are *more* distinguishable from each other than either is from
//     ADD (Figure 9: LDM/LDL2 ≈ LDM/ADD + LDL2/ADD); power-additive groups
//     give exactly that, and keep campaign-to-campaign variation at the
//     paper's σ/mean ≈ 0.05 instead of the ±100% cross-term swings of a
//     random-phase coherent model. The ablation bench quantifies this.
//
//   - Antenna repositioning between campaigns perturbs each component's
//     effective gain by a few percent (the paper's stated repeatability
//     error source), and the alternation period follows a random walk (OS
//     activity, DVFS), giving the frequency shift and dispersion visible
//     in the paper's Figure 7.
//
// Samples are complex baseband volts-equivalents normalized so that
// |x|² is instantaneous received power in watts at the analyzer input.
package emsim

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"

	"repro/internal/activity"
	"repro/internal/buf"
)

// RefDistance is the reference antenna distance at which Source
// coefficients are specified: 10 cm, the paper's baseline.
const RefDistance = 0.10

// GainJitterStd is the per-campaign fractional gain perturbation from
// antenna repositioning and environment changes.
const GainJitterStd = 0.02

// Source is one component's EM coupling at the reference distance.
//
// Diffuse is a distance-flat conducted-coupling term: current loops that
// reach the power cord and board ground planes re-radiate from structures
// much larger than the measurement distances, which is how the paper's
// off-chip SAVAT values barely drop between 50 cm and 100 cm (Figure 16).
type Source struct {
	Near    float64 // near-field amplitude coefficient (falls off as 1/r³)
	Far     float64 // far-field amplitude coefficient (falls off as 1/r)
	Diffuse float64 // conducted re-radiation (distance-flat)
	// Group is the coherence group this source radiates in (see the group
	// constants); Angle is its fixed geometry phase within the group, in
	// radians. Both are properties of the specific machine's board layout:
	// e.g. on the AMD Turion the divider's signature resembles the
	// off-chip interface's (the paper's Figure 14 shows DIV/LDM far below
	// DIV/ADD), which is expressed by placing Div in GroupOffchip at a
	// small angle to the bus.
	Group int
	Angle float64
}

// CouplingAt returns the amplitude coupling at distance d metres.
func (s Source) CouplingAt(d float64) float64 {
	if d <= 0 {
		panic(fmt.Sprintf("emsim: non-positive distance %v", d))
	}
	k := RefDistance / d
	return s.Near*k*k*k + s.Far*k + s.Diffuse
}

// DistanceLaw selects how a radiator's couplings depend on the
// measurement distance. The zero value is the EM near/far/conducted law,
// so existing constructors keep their behaviour unchanged.
type DistanceLaw int

const (
	// LawNearFar is the EM antenna law: near-field terms fall off as
	// 1/r³, far-field terms as 1/r, conducted terms are flat.
	LawNearFar DistanceLaw = iota
	// LawFlat is the conducted-channel law (power rail, impedance probe):
	// the instrument clips onto the supply or the PDN, so every coupling
	// — and the loop-half asymmetry source — is the reference-distance
	// value regardless of the configured distance.
	LawFlat
)

// CouplingUnder returns the amplitude coupling at distance d metres
// under the given distance law. LawFlat reads the coupling at the
// reference distance, making the value independent of d.
func (s Source) CouplingUnder(law DistanceLaw, d float64) float64 {
	if law == LawFlat {
		return s.Near + s.Far + s.Diffuse
	}
	return s.CouplingAt(d)
}

// SourceTable maps every component to its coupling.
type SourceTable [activity.NumComponents]Source

// Validate reports negative coefficients or out-of-range groups.
func (t SourceTable) Validate() error {
	for i, s := range t {
		if s.Near < 0 || s.Far < 0 || s.Diffuse < 0 {
			return fmt.Errorf("emsim: component %s has negative coupling %+v", activity.Component(i), s)
		}
		if s.Group < 0 || s.Group >= NumGroups {
			return fmt.Errorf("emsim: component %s has group %d outside [0,%d)", activity.Component(i), s.Group, NumGroups)
		}
	}
	return nil
}

// NewSourceTable returns a table with zero couplings and the canonical
// group/angle layout (DefaultGroup/DefaultAngle) for every component.
func NewSourceTable() SourceTable {
	var t SourceTable
	for c := activity.Component(0); c < activity.NumComponents; c++ {
		t[c].Group = DefaultGroup(c)
		t[c].Angle = DefaultAngle(c)
	}
	return t
}

// NumGroups is the number of coherence groups.
const NumGroups = 4

// Coherence groups: the front end and execution units share the core's
// power-delivery loops; the divider is a physically separate macro with
// its own signature; the L2 macro is large and distinct; the off-chip bus
// and the DRAM it drives form one current loop.
const (
	GroupCore    = 0 // fetch, ALU, mul, branch, L1 (+ the loop asymmetry)
	GroupDiv     = 1
	GroupL2      = 2
	GroupOffchip = 3
)

// DefaultGroup returns the canonical coherence group of a component.
func DefaultGroup(c activity.Component) int {
	switch c {
	case activity.Div:
		return GroupDiv
	case activity.L2:
		return GroupL2
	case activity.Bus, activity.BusWr, activity.DRAM:
		return GroupOffchip
	default:
		return GroupCore
	}
}

// defaultAngle is the canonical geometry phase of each component within
// its group (radians).
var defaultAngle = [activity.NumComponents]float64{
	activity.Fetch:  0,
	activity.ALU:    1.3,
	activity.Mul:    2.6,
	activity.Branch: 3.9,
	activity.L1D:    5.2,
	activity.Div:    0,
	activity.L2:     0,
	activity.Bus:    0,
	activity.BusWr:  0.6,
	activity.DRAM:   0.7,
}

// DefaultAngle returns the canonical geometry phase of a component.
func DefaultAngle(c activity.Component) float64 {
	if c >= activity.NumComponents {
		panic(fmt.Sprintf("emsim: invalid component %d", uint8(c)))
	}
	return defaultAngle[c]
}

// Alternation describes the steady-state A/B loop as measured by the
// cycle-accurate run: per-second component event rates during each half,
// and the nominal duration of each half.
type Alternation struct {
	Rates       [2]activity.Vector // [0]=A half, [1]=B half
	HalfSeconds [2]float64
}

// Period returns the nominal alternation period in seconds.
func (a Alternation) Period() float64 { return a.HalfSeconds[0] + a.HalfSeconds[1] }

// Duty returns the fraction of the period spent in the A half.
func (a Alternation) Duty() float64 { return a.HalfSeconds[0] / a.Period() }

// CanonicalTimeline is the 50/50 alternation timeline at the nominal
// frequency f0: half a period in each phase, no activity rates. Every
// pair measured at the same f0 shares this timeline, which is what lets
// a campaign synthesize one envelope realization per matrix row (the
// synthesis consumes only HalfSeconds, the sample grid, and the jitter
// model — see EnvelopeStream) and carry each pair's true duty cycle as
// the scalar DutyAmplitudeFactor on its phase amplitudes instead.
func CanonicalTimeline(f0 float64) Alternation {
	half := 0.5 / f0
	return Alternation{HalfSeconds: [2]float64{half, half}}
}

// DutyAmplitudeFactor returns the amplitude of the alternation
// fundamental of a duty-d square wave relative to the 50/50 wave:
// sin(π·d) (the Fourier coefficient of a duty-d rectangular envelope at
// its fundamental is e^{−iπd}·sin(πd)/π, and the global phase cancels
// in the quadratic band-power combine). Folding this factor into every
// group's phase amplitudes makes a measurement over the canonical 50/50
// timeline carry the pair's true duty cycle exactly at the measured
// fundamental, which is where SAVAT's band power lives.
func DutyAmplitudeFactor(d float64) float64 { return math.Sin(math.Pi * d) }

// Validate reports structural problems.
func (a Alternation) Validate() error {
	if a.HalfSeconds[0] <= 0 || a.HalfSeconds[1] <= 0 {
		return fmt.Errorf("emsim: non-positive half durations %v", a.HalfSeconds)
	}
	for p := 0; p < 2; p++ {
		for c, r := range a.Rates[p] {
			if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
				return fmt.Errorf("emsim: phase %d component %s has bad rate %v", p, activity.Component(c), r)
			}
		}
	}
	return nil
}

// Jitter configures alternation-period instability and slow activity
// fluctuation. The json tags are part of the savat.CampaignSpec wire
// format.
type Jitter struct {
	FreqOffset float64 `json:"freq_offset"` // fixed fractional period error (0.005 → 0.5% slower loop)
	DriftStd   float64 `json:"drift_std"`   // per-period fractional random-walk step (dispersion)
	MaxDrift   float64 `json:"max_drift"`   // clamp on the accumulated walk (0 = 10×DriftStd)
	// AmpNoiseStd is the standard deviation of the slow, per-half
	// fractional amplitude fluctuation: DRAM refresh collisions, row-buffer
	// state wander, and arbitration beats make a loop half's activity level
	// wander a few percent over hundreds of periods. Because the two halves
	// wander independently, this differential noise modulates the
	// alternation line itself and lands inside the ±1 kHz measurement band,
	// which is what gives the paper's *loud* rows (LDM, STM, Turion's
	// DIV/STL2) their elevated A/A diagonals — the fluctuation power scales
	// with the row's own signal power. Machine-specific; see
	// machine.Config.AmplitudeNoiseStd.
	AmpNoiseStd float64 `json:"amp_noise_std"`
	// AmpNoiseCorr is the per-period AR(1) correlation of the fluctuation
	// (0 = use the 0.99 default, ≈250 Hz bandwidth at 80 kHz).
	AmpNoiseCorr float64 `json:"amp_noise_corr"`
}

// MaxAmpNoiseStd bounds Jitter.AmpNoiseStd: a fluctuation as large as
// the loop half's own activity level. Past it the fractional
// fluctuation is no longer a perturbation, and a large enough one
// overflows the rendered power.
const MaxAmpNoiseStd = 1

// MaxWalk returns the clamp on the accumulated drift walk: MaxDrift, or
// 10×DriftStd when MaxDrift is 0.
func (j Jitter) MaxWalk() float64 {
	if j.MaxDrift == 0 {
		return 10 * j.DriftStd
	}
	return j.MaxDrift
}

// Validate reports jitter the envelope timeline cannot render for an
// alternation of the given period at sample rate fs: a negative drift
// field, an amplitude-fluctuation correlation outside [0, 1) (0 selects
// the default), a fluctuation standard deviation outside [0,
// MaxAmpNoiseStd], or a smallest period scale 1 + FreqOffset −
// MaxWalk() that lets the jittered alternation reach the Nyquist
// frequency. The last keeps every jittered half-period longer than a
// sample, so the synthesis advances by at most a few edges per sample;
// a scale at or below zero would never advance at all.
func (j Jitter) Validate(period, fs float64) error {
	switch {
	case j.DriftStd < 0 || j.MaxDrift < 0:
		return fmt.Errorf("emsim: negative jitter drift (drift_std %g, max_drift %g)", j.DriftStd, j.MaxDrift)
	case !(j.AmpNoiseCorr >= 0 && j.AmpNoiseCorr < 1):
		return fmt.Errorf("emsim: amplitude noise correlation %g outside [0, 1)", j.AmpNoiseCorr)
	case !(j.AmpNoiseStd >= 0 && j.AmpNoiseStd <= MaxAmpNoiseStd):
		return fmt.Errorf("emsim: amplitude noise std %g outside [0, %g]", j.AmpNoiseStd, float64(MaxAmpNoiseStd))
	}
	lo := 1 + j.FreqOffset - j.MaxWalk()
	if !(lo > 0) {
		return fmt.Errorf("emsim: jitter period scale 1 + freq_offset − max walk = %g is not positive: the envelope timeline would not advance", lo)
	}
	if !(lo*period > 2/fs) {
		return fmt.Errorf("emsim: jitter period scale down to %g puts the alternation at or above the Nyquist frequency %g Hz", lo, fs/2)
	}
	return nil
}

// DefaultJitter reproduces the paper's Figure 7: a few hundred Hz shift
// below the 80 kHz intent and a dispersion of a couple hundred Hz.
func DefaultJitter() Jitter {
	return Jitter{FreqOffset: 0.005, DriftStd: 0.0007, MaxDrift: 0.004}
}

// Radiator turns alternation activity into received baseband signals for
// one measurement campaign. Geometry phases are fixed; the campaign's
// antenna repositioning perturbs each component's gain by a few percent,
// which is the dominant repeatability error (paper: σ/mean ≈ 0.05 over
// ten campaigns).
type Radiator struct {
	table        SourceTable
	distance     float64
	asymmetryAmp float64
	law          DistanceLaw
	gainJitter   [activity.NumComponents]float64
	asymJitter   float64
}

// NewRadiator draws the campaign's gain perturbations from rng. The
// radiator uses the EM LawNearFar distance law; conducted channels use
// NewRadiatorLaw.
func NewRadiator(table SourceTable, distance, asymmetryAmp float64, rng *rand.Rand) (*Radiator, error) {
	return NewRadiatorLaw(table, distance, asymmetryAmp, LawNearFar, rng)
}

// NewRadiatorLaw is NewRadiator with an explicit distance law (see
// DistanceLaw); machine.Channel implementations select it per channel.
func NewRadiatorLaw(table SourceTable, distance, asymmetryAmp float64, law DistanceLaw, rng *rand.Rand) (*Radiator, error) {
	r := &Radiator{}
	if err := r.InitLaw(table, distance, asymmetryAmp, law, rng); err != nil {
		return nil, err
	}
	return r, nil
}

// InitLaw re-initializes r in place with freshly drawn gain
// perturbations under the distance law, exactly as NewRadiatorLaw does
// for a new radiator. It lets a measurement scratch reuse one Radiator
// value across campaign cells without allocating. On error r is left
// unchanged and rng is not consumed. LawFlat makes every coupling (and
// the asymmetry source) distance-invariant, which is the
// conducted-channel contract conform.VerifyDistanceFlat asserts
// exactly.
func (r *Radiator) InitLaw(table SourceTable, distance, asymmetryAmp float64, law DistanceLaw, rng *rand.Rand) error {
	if err := table.Validate(); err != nil {
		return err
	}
	if distance <= 0 {
		return fmt.Errorf("emsim: non-positive distance %v", distance)
	}
	if asymmetryAmp < 0 {
		return fmt.Errorf("emsim: negative asymmetry amplitude %v", asymmetryAmp)
	}
	if law != LawNearFar && law != LawFlat {
		return fmt.Errorf("emsim: unknown distance law %d", law)
	}
	r.table = table
	r.distance = distance
	r.asymmetryAmp = asymmetryAmp
	r.law = law
	for i := range r.gainJitter {
		r.gainJitter[i] = 1 + GainJitterStd*rng.NormFloat64()
	}
	r.asymJitter = 1 + GainJitterStd*rng.NormFloat64()
	return nil
}

// GroupAmplitude returns the complex received amplitude of one coherence
// group while the loop executes the given phase (0 = A half, 1 = B half).
//
// The asymmetry term models the residual code-placement difference between
// the two loop halves: a fixed near-field source in the core group,
// present only while the A half executes.
func (r *Radiator) GroupAmplitude(rates activity.Vector, phase, group int) complex128 {
	var sum complex128
	for c := 0; c < int(activity.NumComponents); c++ {
		if r.table[c].Group != group {
			continue
		}
		k := r.table[c].CouplingUnder(r.law, r.distance) * r.gainJitter[c]
		if k == 0 || rates[c] == 0 {
			continue
		}
		sum += cmplx.Rect(k*math.Sqrt(rates[c]), r.table[c].Angle)
	}
	if group == GroupCore && phase == 0 && r.asymmetryAmp > 0 {
		decay := 1.0
		if r.law == LawNearFar {
			k := RefDistance / r.distance
			decay = k * k * k
		}
		sum += complex(r.asymmetryAmp*r.asymJitter*decay, 0)
	}
	return sum
}

// PhaseAmplitudes returns each coherence group's complex received
// amplitude while the loop executes the A half ([g][0]) and the B half
// ([g][1]), pre-scaled by the inverse of the zero-order-hold droop at
// sample rate fs. Each output sample integrates the amplitude over its
// 1/fs window (zero-order hold), which droops the alternation
// fundamental by sinc(π·f₀/fs); a calibrated digitizer front end
// compensates this in-band droop, so the rendered amplitudes carry its
// inverse and SAVAT does not depend on the capture rate.
func (r *Radiator) PhaseAmplitudes(alt Alternation, fs float64) ([NumGroups][2]complex128, error) {
	var amps [NumGroups][2]complex128
	if err := alt.Validate(); err != nil {
		return amps, err
	}
	if fs <= 0 {
		return amps, fmt.Errorf("emsim: bad synthesis parameters fs=%v", fs)
	}
	droop := 1.0
	if x := math.Pi / (alt.Period() * fs); x > 0 && x < math.Pi {
		droop = math.Sin(x) / x
	}
	comp := complex(1/droop, 0)
	for g := 0; g < NumGroups; g++ {
		amps[g][0] = r.GroupAmplitude(alt.Rates[0], 0, g) * comp
		amps[g][1] = r.GroupAmplitude(alt.Rates[1], 1, g) * comp
	}
	return amps, nil
}

// Envelopes holds the two shared per-phase envelope streams of one
// jittered alternation timeline. Sample m of A is the fraction of the
// m-th sample window spent executing the A half — weighted by the slow
// amplitude fluctuation and scaled by fs, so a sample lying fully
// inside a fluctuation-free A half reads 1. Every coherence group's
// baseband stream is the same two envelopes combined with the group's
// phase amplitudes: x_g[m] = amps[g][0]·A[m] + amps[g][1]·B[m].
type Envelopes struct {
	A, B []float64
}

// SynthesizeEnvelopes renders the two shared per-phase envelope streams
// for n samples at rate fs: one jittered alternation timeline, rendered
// once, from which every group's baseband stream follows by linear
// combination (see Envelopes). Sample m integrates the exact envelope
// over [m/fs, (m+1)/fs), so the result is correct even when the sample
// period is comparable to the alternation period.
//
// dst, when non-nil, provides buffers to reuse (grown as needed) and is
// also the return value; pass nil to allocate fresh envelopes. The rng
// draws are the two initial fluctuation values, the edge phase, and
// the per-period walk and fluctuation steps. It is one full-length
// drain of an EnvelopeStream, so buffered and streaming synthesis are
// bit-identical by construction.
func SynthesizeEnvelopes(alt Alternation, fs float64, n int, jit Jitter, rng *rand.Rand, dst *Envelopes) (*Envelopes, error) {
	var es EnvelopeStream
	if err := es.Init(alt, fs, n, jit, rng); err != nil {
		return nil, err
	}
	if dst == nil {
		dst = &Envelopes{}
	}
	dst.A = buf.Grow(dst.A, n)
	dst.B = buf.Grow(dst.B, n)
	if _, err := es.Next(dst.A, dst.B); err != nil {
		return nil, err
	}
	return dst, nil
}
