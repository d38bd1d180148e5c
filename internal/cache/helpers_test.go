package cache

import (
	"timecache/internal/clock"
	"timecache/internal/core"
)

// Test-only helpers over the served-request API.

// Flush performs a clflush of addr by ctx through ServeFlush and returns the
// charged latency.
func (h *Hierarchy) Flush(now clock.Cycles, ctx int, addr uint64) uint64 {
	r := &h.scratch
	r.Now, r.Ctx, r.Addr = now, ctx, addr
	h.ServeFlush(r)
	return r.Latency
}

// Occupancy returns the number of valid lines.
func (c *Cache) Occupancy() int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

// DirectoryEnabled reports whether this hierarchy runs directory-tracked
// coherence (as opposed to the broadcast fallback).
func (h *Hierarchy) DirectoryEnabled() bool { return h.dir != nil }

// saveColumn returns a fresh copy of ctx's s-bit column in c.
func saveColumn(c *Cache, ctx int) core.SecVec {
	v := make(core.SecVec, core.VecWords(c.Lines()))
	c.Sec().SaveColumnInto(ctx, v)
	return v
}
