package savat

import (
	"context"

	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/specan"
)

// Synthesis-product cache metrics, on the process registry so campaign
// hit rates show up in /metrics and obs.WriteSummary. A hit means a
// measurement skipped an entire synthesis + Welch pass; a wait is a hit
// that found another worker building the product and waited for it
// (counted among the hits too), and mWait times those waits.
var (
	mSynthHits   = obs.Default.Counter("savat.synthcache.hits")
	mSynthMisses = obs.Default.Counter("savat.synthcache.misses")
	mSynthWaits  = obs.Default.Counter("savat.synthcache.waits")
	mWait        = obs.Default.Histogram("savat.stage.wait")
)

// synthBudget bounds the bytes the process-wide product layer keeps.
// One machine's products for an 11×11, 10-repetition figure of 1 s
// captures are about 14 MiB (110 envelope products of 125 KiB, 10 noise
// products of 31 KiB), so the bound holds the paper's three machines at
// once with room to spare; the size of a product follows its capture's
// RBW, band and sample rate, which is why the bound is in bytes.
const synthBudget = 64 << 20

// synths is the process-wide synthesis-product layer: envelope
// pair-Welch products (specan.PairPSD) and noise PSDs, keyed by their
// full recipe (see productKey), so a hit is bit-identical to what the
// measurement would have computed. The keys hold neither distance nor
// — for noise — machine, so every campaign in the process shares them:
// with CampaignSeeds' scoping a row's envelope products are computed
// once for every row-mate, every repetition's noise PSD once for the
// whole matrix, and a figure at another distance recomputes nothing.
// Each key is computed exactly once across concurrent callers (see
// memo.LRU). Published products are immutable and shared read-only;
// eviction is safe because live references keep their arrays alive.
var synths = newSynths(synthBudget)

func newSynths(budget int) *memo.LRU[productKey, synthProduct] {
	return memo.New[productKey, synthProduct](budget, synthProduct.bytes, nil)
}

// productKey identifies one synthesis product: the (mc, cfg)-fixed
// recipe prefix (built once per setup by resolveSetup and compared by
// content, so equal recipes match across setups) plus the stage seed.
// Two measurements share a key exactly when their products are
// bit-identical by construction: same seed, same synthesis parameters
// (nominal frequency, sample rate, capture length, resolved jitter,
// noise environment), same segmentation parameters (RBW request,
// window) and same analyzed band. The instrument floor and the group
// coefficients are excluded — products are computed upstream of both.
// A comparable struct rather than a concatenated string so the
// steady-state lookup path performs no per-measurement key allocation.
type productKey struct {
	prefix string
	seed   int64
}

// synthProduct is one cached product. Exactly one field is set; typed
// fields rather than an `any` so storing a noise PSD does not box its
// slice header on every insert. Envelope and noise keys never collide
// (their prefixes differ), so one LRU holds both kinds.
type synthProduct struct {
	env   *specan.PairPSD
	noise []float64
}

// bytes is the product's size in synths: the capacities of its slices.
func (p synthProduct) bytes() int {
	n := 8 * cap(p.noise)
	if p.env != nil {
		n += 8*(cap(p.env.PA)+cap(p.env.PB)) + 16*cap(p.env.Cross)
	}
	return n
}

// productSlot is a scratch's one-entry memo of one product kind, used
// by a Measurer outside a campaign: the last product and its key. A
// repeated key is a hit; any other key recomputes into the slot's own
// buffers, so a stream of distinct seeds through one scratch allocates
// no product-sized buffers after the first.
type productSlot struct {
	key productKey
	ok  bool
	p   synthProduct
}

// get returns the slot's product when key matches, and otherwise the
// product compute writes over the slot's buffers. Lookups count on the
// same hit and miss counters as synths.
func (sl *productSlot) get(key productKey, compute func(dst synthProduct) (synthProduct, error)) (synthProduct, error) {
	if sl.ok && sl.key == key {
		mSynthHits.Inc()
		return sl.p, nil
	}
	sl.ok = false // compute may leave the buffers half overwritten
	p, err := compute(sl.p)
	if err != nil {
		return synthProduct{}, err
	}
	mSynthMisses.Inc()
	sl.key, sl.p, sl.ok = key, p, true
	return p, nil
}

// product returns the product for key from layer when the measurement has
// one — a campaign cell's — and otherwise from slot, which compute
// refills in place on a miss. compute receives the buffers it may
// overwrite: the slot's, or none for the layer, whose published
// products must never be reused. ctx bounds only the wait for another
// caller's computation of the key.
func product(ctx context.Context, layer *memo.LRU[productKey, synthProduct], slot *productSlot, key productKey,
	compute func(dst synthProduct) (synthProduct, error)) (synthProduct, error) {
	if layer == nil {
		return slot.get(key, compute)
	}
	wait := mWait.Start()
	p, how, err := layer.Get(ctx, key, func() (synthProduct, error) { return compute(synthProduct{}) })
	if how == memo.Waited {
		wait.End()
		if err == nil {
			mSynthWaits.Inc()
		}
	}
	countLookup(mSynthHits, mSynthMisses, how, err)
	return p, err
}
