package savat

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"sort"

	"repro/internal/counter"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/memhier"
	"repro/internal/memo"
	"repro/internal/obs"
)

// simCacheCap bounds each kind of entry in the process-wide simulation
// cache. One entry is a few KiB (a ~50-instruction program, or two
// phases' activity statistics), so the bound caps the cache at a few
// MiB while covering every pair of several 11×11 campaigns — the
// paper's three machines at once — before anything is evicted.
const simCacheCap = 1024

// simMachine is the part of a machine configuration the cycle-level
// simulation reads: the clock and the core and memory models. The name,
// the EM source table, and the model-side noise parameters are
// deliberately absent — channels and model-side countermeasures rewrite
// only those, so every channel and every seed of one machine shares one
// calibrated kernel and one alternation simulation per pair.
type simMachine struct {
	clock float64
	cpu   cpu.Config
	mem   memhier.Config
}

func simInputs(mc machine.Config) simMachine {
	return simMachine{clock: mc.ClockHz, cpu: mc.CPU, mem: mc.Mem}
}

// kernelRecipe keys one calibrated kernel: everything buildKernel
// reads, plus — only when the chain rewrites the program — the
// countermeasure chain and the seed it was applied with. A pair keys as
// its one-event halves, so a pair and the one-event sequences of its
// events share one entry.
type kernelRecipe struct {
	sim       simMachine
	a, b      half
	frequency float64
	stride    int
	chain     string // canonical chain text; "" for an unrewritten kernel
	seed      int64  // CounterSeed; 0 when chain is ""
}

// prologueRecipe keys one kernel prologue's saved machine state: the
// content address of the program before its first phase marker (the
// pre-touch loops, and the setup that reaches them) and the machine's
// simulation inputs — everything the prologue's execution reads (see
// machine.Prologue). The loop count is set after the marker, so a
// pair's calibration rounds and its alternation share one entry, and
// pairs whose halves sweep the same arrays the same way share it too.
type prologueRecipe struct {
	prefix kernelSum
	sim    simMachine
}

// prologueBudget bounds the prologue layer in bytes. A Figure 9
// matrix has 36 distinct prologues (six ways to warm each half); they
// hold 3.3 MiB on the Core 2 Duo, 1.5 MiB on the Pentium 3 M and
// 5.5 MiB on the Turion X2 — the data pages the STL1 and STL2 arrays
// were stored to dominate — so the bound holds the paper's three
// machines at once with room to spare.
const prologueBudget = 32 << 20

// prologueEntryBytes is what an entry costs beyond its snapshot's
// arrays: its key, its list element and the snapshot's headers. A nil
// snapshot (a prologue that is not shared) costs this much too.
const prologueEntryBytes = 1 << 10

func prologueBytes(w *machine.Warm) int {
	if w == nil {
		return prologueEntryBytes
	}
	return prologueEntryBytes + w.Bytes()
}

// kernelSum is a kernel's content address: SHA-256 over its program and
// phase markers. Everything an alternation simulation reads of a kernel
// is in those two, so equal sums simulate identically.
type kernelSum [sha256.Size]byte

// altRecipe keys one alternation simulation by content — never by
// kernel pointer — so a kernel rebuilt by another campaign, another
// worker, or the uncached BuildKernel hits the same entry.
type altRecipe struct {
	kernel     kernelSum
	sim        simMachine
	warm, meas int
}

// sumKernel computes the content address of a program and its phase
// markers (markers in index order, so map iteration order never leaks
// into the sum).
func sumKernel(prog []isa.Instruction, phaseAt map[int]int) kernelSum {
	buf := make([]byte, 0, 8+8*len(prog)+16*len(phaseAt))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(prog)))
	for _, in := range prog {
		buf = append(buf, byte(in.Op), byte(in.Rd), byte(in.Rs1), byte(in.Rs2))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(in.Imm))
	}
	at := make([]int, 0, len(phaseAt))
	for i := range phaseAt {
		at = append(at, i)
	}
	sort.Ints(at)
	for _, i := range at {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(i))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(phaseAt[i]))
	}
	return sha256.Sum256(buf)
}

// contentSum returns the kernel's content address: the one sealed at
// construction, or — for a hand-assembled Kernel value — computed now.
func (k *Kernel) contentSum() kernelSum {
	if k.sum != (kernelSum{}) {
		return k.sum
	}
	return sumKernel(k.Program, k.PhaseAt)
}

// simCache is the process-wide simulation cache: calibrated kernels and
// alternation results, the two products of the cycle-level simulator a
// measurement needs. Both are fixed by the machine's simulation inputs,
// the two halves, and the frequency — never by seed, distance, channel, or
// noise — so every campaign, worker, and Measurer in the process shares
// them, as the paper reuses one binary across its campaigns and
// distances. Entries are immutable once published.
//
// A third kind of entry serves the simulations themselves: the machine
// state at a kernel's first phase marker, after its pre-touch prologue,
// from which every run of a kernel with that prologue starts (see
// Kernel.runPhases). It is bounded in bytes, not entries.
type simCache struct {
	kernels   *memo.LRU[kernelRecipe, *Kernel]
	alts      *memo.LRU[altRecipe, *AlternationResult]
	prologues *memo.LRU[prologueRecipe, *machine.Warm]
}

func newSimCache(capacity int) *simCache {
	return &simCache{
		kernels:   memo.New[kernelRecipe, *Kernel](capacity, nil, nil),
		alts:      memo.New[altRecipe, *AlternationResult](capacity, nil, nil),
		prologues: memo.New[prologueRecipe, *machine.Warm](prologueBudget, prologueBytes, nil),
	}
}

var sims = newSimCache(simCacheCap)

// kernel returns the calibrated kernel for (mc, a, b, frequency) at the
// paper's sweep stride, with the chain's program countermeasures
// applied under seed (chainKey is the chain's canonical text, "" when
// it rewrites nothing). The rewritten kernel is its own entry on top of
// the base one, so sweeps over countermeasure seeds calibrate once.
// The halves become sequences only on a miss, so a hit allocates
// nothing.
func (c *simCache) kernel(ctx context.Context, mc machine.Config, a, b half, frequency float64,
	chain counter.Chain, chainKey string, seed int64) (*Kernel, error) {
	sp := mKernel.Start()
	defer sp.End()
	key := kernelRecipe{sim: simInputs(mc), a: a, b: b, frequency: frequency, stride: SweepOffset}
	k, how, err := c.kernels.Get(ctx, key, func() (*Kernel, error) {
		return buildKernel(mc, a.seq(), b.seq(), frequency, SweepOffset)
	})
	countLookup(mKernelHits, mKernelMisses, how, err)
	if err != nil || chainKey == "" {
		return k, err
	}
	key.chain, key.seed = chainKey, seed
	k, how, err = c.kernels.Get(ctx, key, func() (*Kernel, error) {
		return applyProgramCountermeasures(k, chain, seed)
	})
	countLookup(mKernelHits, mKernelMisses, how, err)
	return k, err
}

// alternation returns the steady-state alternation of k on mc,
// simulating it — on a pooled memory hierarchy — only on a miss.
// Alternation is deterministic and consumes no rng, so sharing it
// cannot change any measured value. The result's Kernel field is the
// kernel that first simulated this content: its loop count (encoded in
// the program) equals k's.
func (c *simCache) alternation(ctx context.Context, mc machine.Config, k *Kernel, warm, meas int) (*AlternationResult, error) {
	key := altRecipe{kernel: k.contentSum(), sim: simInputs(mc), warm: warm, meas: meas}
	alt, how, err := c.alts.Get(ctx, key, func() (*AlternationResult, error) {
		hier, err := borrowHier(mc.Mem)
		if err != nil {
			return nil, err
		}
		defer returnHier(mc.Mem, hier)
		return k.alternationHier(mc, warm, meas, hier)
	})
	countLookup(mAltHits, mAltMisses, how, err)
	return alt, err
}

// prologue returns the machine state at k's first phase marker on m,
// running the prologue — on hier when it is non-nil — only on a miss,
// and whether this call ran it. A nil state (a prologue machine.Prologue
// does not share) is cached too: runs of that kernel start cold.
func (c *simCache) prologue(m *machine.Machine, k *Kernel, hier *memhier.Hierarchy) (*machine.Warm, bool, error) {
	marker := machine.FirstMarker(k.PhaseAt)
	if marker <= 0 || marker >= len(k.Program) {
		return nil, false, nil
	}
	key := prologueRecipe{prefix: sumKernel(k.Program[:marker], nil), sim: simInputs(m.Config())}
	w, how, err := c.prologues.Get(context.Background(), key, func() (*machine.Warm, error) {
		return m.Prologue(k.Program, k.PhaseAt, hier)
	})
	return w, how == memo.Computed, err
}

// countLookup records one cache lookup: a miss when the call computed
// the entry, a hit when it was served one — resident, or after waiting
// for another caller's computation; failures count as neither.
func countLookup(hits, misses *obs.Counter, how memo.Outcome, err error) {
	switch {
	case how == memo.Computed && err == nil:
		misses.Inc()
	case err == nil:
		hits.Inc()
	}
}
