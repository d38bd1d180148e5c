package defense

import "timecache/internal/cache"

// Clepsydra-style time-based eviction (ClepsydraCache, arXiv:2104.11469):
// every cached line carries a time-to-live assigned at fill; when it runs
// out the line is evicted regardless of use, so an attacker observing
// evictions cannot distinguish capacity conflicts from timeouts and
// eviction-set construction is disrupted. The TTL is randomized per line so
// expiries do not phase-lock with victim activity.
//
// The simulator models the TTL table beside the hierarchy, indexed by
// physical line number: the per-access hook lazily expires the accessed
// line before the access is served (the modeled hardware evicts in the
// background, so no latency is charged to the access that observes the
// expiry) and assigns a fresh deadline when the line is (re)filled by that
// access. A line that is
// capacity-evicted and refilled within one TTL window keeps its original
// deadline — the line's clock does not reset on refill, which is the
// conservative reading for the attacker. Only the accessed line is
// inspected, so the hook is O(1), decisions never iterate the table, and the
// jitter stream is derived from the access stream — fully deterministic.
const (
	// clepsydraBaseTTL is the minimum line lifetime in cycles. It is sized
	// to roughly one scheduler slice (kernel.DefaultConfig's 200k cycles):
	// a line survives its owner's slice but rarely the neighbor's.
	clepsydraBaseTTL = 150_000
	// clepsydraJitterMask bounds the per-line random TTL extension
	// (up to ~32k cycles on top of the base).
	clepsydraJitterMask = (1 << 15) - 1
	// clepsydraSeed seeds the deterministic jitter hash.
	clepsydraSeed = 0x9E3779B97F4A7C15
)

type clepsydraDefense struct {
	h *cache.Hierarchy
	// deadline holds, per physical line number, the cycle the line's TTL
	// expires; 0 means never assigned (a real deadline is at least
	// clepsydraBaseTTL). It grows on demand to the highest line accessed.
	deadline []uint64
	// nonce counts deadline assignments, decorrelating the jitter of
	// successive TTLs on the same line.
	nonce uint64
}

func newClepsydra(h *cache.Hierarchy) cache.Defense {
	return &clepsydraDefense{h: h}
}

func (d *clepsydraDefense) Name() string { return Clepsydra }

func (d *clepsydraDefense) OnAccess(r *cache.Request) {
	lineAddr := r.Addr &^ (cache.LineSize - 1)
	line := int(r.Addr >> cache.LineShift)
	if line >= len(d.deadline) {
		d.deadline = append(d.deadline, make([]uint64, line+1-len(d.deadline))...)
	}
	if dl := d.deadline[line]; dl != 0 {
		if r.Now < dl {
			return
		}
		d.h.EvictLine(lineAddr)
	}
	d.nonce++
	d.deadline[line] = r.Now + clepsydraBaseTTL + d.jitter(lineAddr)
}

// jitter hashes (lineAddr, nonce) to a bounded TTL extension.
func (d *clepsydraDefense) jitter(lineAddr uint64) uint64 {
	x := (lineAddr >> cache.LineShift) ^ (d.nonce * clepsydraSeed)
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 29
	return x & clepsydraJitterMask
}

func (d *clepsydraDefense) OnSwitch(corei, outPID, inPID int, now uint64) uint64 {
	return 0 // Clepsydra has no context-switch work
}

func (d *clepsydraDefense) Reset() {
	d.deadline = d.deadline[:0]
	d.nonce = 0
}

func (d *clepsydraDefense) CopyFrom(src cache.Defense) {
	s, ok := src.(*clepsydraDefense)
	if !ok {
		panic("defense: clepsydra CopyFrom from a different defense kind")
	}
	d.deadline = append(d.deadline[:0], s.deadline...)
	d.nonce = s.nonce
}
