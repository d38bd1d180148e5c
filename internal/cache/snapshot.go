// Snapshot support: restoring one hierarchy's warm state into another built
// from the same HierarchyConfig. Machine forking (internal/machine) uses
// this to clone cache line arrays, replacement-policy state, the s-bit
// trackers, and the LLC sharer directory without replaying the accesses
// that produced them.
package cache

import (
	"timecache/internal/core"
	"timecache/internal/replacement"
)

// copyFrom restores src's state into c. Both caches must come from the same
// Config (same geometry, policy, and tracker shape).
func (c *Cache) copyFrom(src *Cache) {
	copy(c.lines, src.lines)
	copy(c.tags, src.tags)
	copy(c.mru, src.mru)
	replacement.Copy(c.pol, src.pol)
	if c.sec != nil {
		core.CopyTracker(c.sec, src.sec)
	}
	c.Stats = src.Stats
}

// copyFrom restores src's sharer state into d. Side-table entries are
// deep-copied (they are held by pointer) so later mutations in one
// hierarchy never leak into the other.
func (d *directory) copyFrom(src *directory) {
	copy(d.entries, src.entries)
	copy(d.ownedInSet, src.ownedInSet)
	clear(d.side)
	for addr, e := range src.side {
		ec := *e
		d.side[addr] = &ec
	}
	d.sideOwned = src.sideOwned
}

// CopyFrom restores src's complete timing-relevant state into h: every
// cache's lines and tags, MRU memos, replacement policy, and s-bit tracker,
// plus the sharer directory and the partitioned-mode active domains. Both
// hierarchies must come from the same HierarchyConfig. The observer is
// detached (as Reset does): a forked machine never reports into the source
// run's collector. The scratch Request is not copied — beginTrail clears
// every response field per access. src is only read, so concurrent
// CopyFrom calls may share one source.
func (h *Hierarchy) CopyFrom(src *Hierarchy) {
	for c := range h.l1i {
		h.l1i[c].copyFrom(src.l1i[c])
		h.l1d[c].copyFrom(src.l1d[c])
	}
	h.llc.copyFrom(src.llc)
	if h.dir != nil {
		h.dir.copyFrom(src.dir)
	}
	copy(h.activeDomain, src.activeDomain)
	h.obs = nil
	if src.def != nil {
		// Defense state is timing-relevant and must travel with the
		// snapshot. The destination hierarchy was built from the same
		// machine Config and so carries a same-kind instance; CopyFrom
		// panics on a kind mismatch rather than shelving a partial machine.
		if h.def == nil {
			panic("cache: snapshot source has a runtime defense but destination does not")
		}
		h.def.CopyFrom(src.def)
	}
}
