package cache

import "fmt"

// This file implements the LLC sharer directory: per-line tracking of which
// cores' private L1 caches hold a copy of each line, plus the core (if any)
// holding it modified. It replaces broadcast snooping — probing every core's
// L1I and L1D on every coherence event, O(cores × ways) — with O(sharers)
// work: coherence actors iterate only the set bits of a presence bitmask.
//
// Layout follows real inclusive LLCs: the directory state for a line lives
// alongside its LLC slot (entries, parallel to the LLC line array), with a
// small side table for lines that are transiently non-inclusive (an L1 copy
// outliving its LLC backing, e.g. a flush racing a first-access descend).
// Under the hierarchy's normal operation inclusion holds and the side table
// stays empty, but the directory does not depend on that invariant.
//
// The directory is maintained at the hierarchy's single choke points — L1
// fill, L1 eviction/invalidation, store upgrade, snoop downgrade — so the
// Cache type itself stays coherence-agnostic. It is enabled for 2–64 core
// non-partitioned hierarchies (see NewHierarchy); way-partitioned mode can
// hold duplicate copies of one line inside a single cache, which a per-core
// presence bit cannot represent, so it keeps the broadcast path.

// dirNoOwner is the encoded "no dirty owner" value of dirEntry.own.
const dirNoOwner = 0

// dirEntry is one line's sharer state. The zero value means "no L1 holds
// the line": presence masks empty and no dirty owner.
type dirEntry struct {
	// data and inst are per-core presence bitmasks: bit c set means core
	// c's L1D (resp. L1I) holds the line. Capped at 64 cores by the mask
	// width; NewHierarchy falls back to broadcast beyond that.
	data, inst uint64
	// own is the dirty owner encoded as core+1 (0 = none): the core whose
	// L1D holds the line in modified state.
	own uint8
}

// empty reports whether no L1 holds the line.
func (e dirEntry) empty() bool { return e.data == 0 && e.inst == 0 }

// ownerCore returns the dirty owner's core index, or -1.
func (e dirEntry) ownerCore() int { return int(e.own) - 1 }

func (e dirEntry) String() string {
	return fmt.Sprintf("{data=%#x inst=%#x owner=%d}", e.data, e.inst, e.ownerCore())
}

// directory is the hierarchy's sharer directory.
type directory struct {
	llc *Cache
	// entries holds the sharer state of LLC-resident lines, parallel to
	// the LLC line array: entries[idx] describes the line at llc.lines[idx].
	entries []dirEntry
	// ownedInSet counts, per LLC set, dense entries naming a dirty owner.
	// Inclusion pins a line's sharer state to its LLC set, so a zero count
	// lets snoopDirty reject a whole set — the common case for loads over
	// unshared data — with one array load instead of an LLC probe.
	ownedInSet []int32
	// side holds sharer state for lines with L1 copies but no LLC slot
	// (transient non-inclusion). Normally empty.
	side map[uint64]*dirEntry
	// sideOwned counts side-table entries naming a dirty owner.
	sideOwned int
}

func newDirectory(llc *Cache) *directory {
	return &directory{
		llc:        llc,
		entries:    make([]dirEntry, llc.Lines()),
		ownedInSet: make([]int32, llc.Sets()),
		side:       map[uint64]*dirEntry{},
	}
}

// noteOwn records an own-field transition on the entry tracking lineAddr:
// delta +1 when a dirty owner appears, -1 when one disappears. Every writer
// of dirEntry.own must report the transition here so the per-set owned
// counts stay exact (audited by CheckCoherence).
func (d *directory) noteOwn(lineAddr uint64, e *dirEntry, delta int32) {
	if len(d.side) != 0 {
		if se, ok := d.side[lineAddr]; ok && se == e {
			d.sideOwned += int(delta)
			return
		}
	}
	d.ownedInSet[d.llc.setOf(lineAddr)] += delta
}

// mayHaveOwner reports whether any line of lineAddr's LLC set (or the side
// table) names a dirty owner; false means snoopDirty has nothing to do.
func (d *directory) mayHaveOwner(lineAddr uint64) bool {
	return d.sideOwned != 0 || d.ownedInSet[d.llc.setOf(lineAddr)] != 0
}

// find returns the entry tracking lineAddr, or nil when no state exists.
// The returned pointer is valid until the next LLC fill of that slot.
func (d *directory) find(lineAddr uint64) *dirEntry {
	if idx := d.llc.Probe(lineAddr); idx >= 0 {
		return &d.entries[idx]
	}
	if len(d.side) != 0 {
		if e, ok := d.side[lineAddr]; ok {
			return e
		}
	}
	return nil
}

// at returns the entry tracking lineAddr using a caller-provided LLC slot
// hint (an L1 line's llcHint or a just-computed fill index), avoiding the
// LLC probe of find when the hint verifies. Inclusion makes the hint stable
// — an LLC slot cannot be reassigned while an L1 copy exists without
// back-invalidating that copy first — so the fallback is for stale hints
// only (e.g. after FlushAll).
func (d *directory) at(hint int, lineAddr uint64) *dirEntry {
	if hint >= 0 && hint < len(d.entries) {
		if d.llc.tags[hint] == lineAddr|tagValid {
			return &d.entries[hint]
		}
	}
	return d.find(lineAddr)
}

// findOrCreate returns the entry for lineAddr, creating a side-table entry
// when the line has no LLC slot.
func (d *directory) findOrCreate(lineAddr uint64) *dirEntry {
	if idx := d.llc.Probe(lineAddr); idx >= 0 {
		return &d.entries[idx]
	}
	if e, ok := d.side[lineAddr]; ok {
		return e
	}
	e := &dirEntry{}
	d.side[lineAddr] = e
	return e
}

// addAt records that core's L1 (instruction or data side) now holds
// lineAddr, with owner marking a modified fill. llcIdx is the line's LLC
// slot when the caller already knows it (saving a probe), or -1.
func (d *directory) addAt(llcIdx int, lineAddr uint64, core int, inst, owner bool) {
	var e *dirEntry
	if llcIdx >= 0 {
		e = &d.entries[llcIdx]
	} else {
		e = d.findOrCreate(lineAddr)
	}
	bit := uint64(1) << uint(core)
	if inst {
		e.inst |= bit
	} else {
		e.data |= bit
	}
	if owner {
		if e.own == dirNoOwner {
			d.noteOwn(lineAddr, e, 1)
		}
		e.own = uint8(core + 1)
	}
}

// remove records that core's L1 copy of lineAddr is gone (eviction or
// invalidation of that one copy). hint is the vacating line's llcHint.
func (d *directory) remove(hint int, lineAddr uint64, core int, inst bool) {
	e := d.at(hint, lineAddr)
	if e == nil {
		return
	}
	bit := uint64(1) << uint(core)
	if inst {
		e.inst &^= bit
	} else {
		e.data &^= bit
		if e.own == uint8(core+1) {
			e.own = dirNoOwner
			d.noteOwn(lineAddr, e, -1)
		}
	}
	d.release(lineAddr, e)
}

// setOwner records a store upgrade: core's L1D copy of lineAddr is now the
// modified owner (its presence bit is set too, defensively). hint is the
// upgrading line's llcHint.
func (d *directory) setOwner(hint int, lineAddr uint64, core int) {
	e := d.at(hint, lineAddr)
	if e == nil {
		e = d.findOrCreate(lineAddr)
	}
	e.data |= uint64(1) << uint(core)
	if e.own == dirNoOwner {
		d.noteOwn(lineAddr, e, 1)
	}
	e.own = uint8(core + 1)
}

// release drops a side-table entry once it is empty. Dense entries stay in
// place (an all-zero entry is the ground state).
func (d *directory) release(lineAddr uint64, e *dirEntry) {
	if !e.empty() || len(d.side) == 0 {
		return
	}
	if se, ok := d.side[lineAddr]; ok && se == e {
		delete(d.side, lineAddr)
	}
}

// onLLCFill prepares slot llcIdx for lineAddr being installed there: any
// state still attached to the displaced line moves to the side table
// (defensive; back-invalidation has normally emptied it), and state parked
// in the side table for the incoming line moves into the slot.
func (d *directory) onLLCFill(llcIdx int, lineAddr uint64) {
	e := &d.entries[llcIdx]
	set := llcIdx / d.llc.ways
	if !e.empty() {
		old := *e
		d.side[d.llc.tagAt(llcIdx)] = &old
		if old.own != dirNoOwner {
			d.ownedInSet[set]--
			d.sideOwned++
		}
	}
	*e = dirEntry{}
	if len(d.side) != 0 {
		if se, ok := d.side[lineAddr]; ok {
			*e = *se
			delete(d.side, lineAddr)
			if e.own != dirNoOwner {
				d.sideOwned--
				d.ownedInSet[set]++
			}
		}
	}
}

// reset clears all directory state (FlushAll).
func (d *directory) reset() {
	clear(d.entries)
	clear(d.ownedInSet)
	clear(d.side)
	d.sideOwned = 0
}

// bruteForceEntry recomputes lineAddr's sharer state by probing every L1,
// exactly what the pre-directory broadcast implementations observed. Used
// by the -coherence-check cross-checking mode and the audit in
// CheckCoherence.
func (h *Hierarchy) bruteForceEntry(lineAddr uint64) dirEntry {
	var e dirEntry
	for c := 0; c < h.cfg.Cores; c++ {
		if idx := h.l1d[c].Probe(lineAddr); idx >= 0 {
			e.data |= uint64(1) << uint(c)
			if h.l1d[c].lines[idx].st == modified {
				e.own = uint8(c + 1)
			}
		}
		if idx := h.l1i[c].Probe(lineAddr); idx >= 0 {
			e.inst |= uint64(1) << uint(c)
		}
	}
	return e
}

// verifyLine asserts that the directory's view of lineAddr matches a
// brute-force probe of every L1. Called on every coherence event when
// HierarchyConfig.CoherenceCheck is set; panics on divergence because a
// divergent directory means the simulation itself is wrong.
func (h *Hierarchy) verifyLine(lineAddr uint64, where string) {
	if h.dir == nil {
		return
	}
	want := h.bruteForceEntry(lineAddr)
	var got dirEntry
	if e := h.dir.find(lineAddr); e != nil {
		got = *e
	}
	if got != want {
		panic(fmt.Sprintf("cache: sharer directory diverged at %s for line %#x: directory %v, brute force %v",
			where, lineAddr, got, want))
	}
}

// CheckCoherence audits the whole directory against the L1 contents: every
// resident L1 line must be tracked by exactly one entry with the right
// masks and owner, and no entry may track state no L1 holds. Returns nil
// when the directory is disabled. Intended for tests (the randomized
// coherence property test calls it between operation bursts).
func (h *Hierarchy) CheckCoherence() error {
	if h.dir == nil {
		return nil
	}
	want := map[uint64]dirEntry{}
	for c := 0; c < h.cfg.Cores; c++ {
		l1d := h.l1d[c]
		for i := range l1d.lines {
			if l1d.lines[i].st == invalid {
				continue
			}
			tag := l1d.tagAt(i)
			e := want[tag]
			e.data |= uint64(1) << uint(c)
			if l1d.lines[i].st == modified {
				if e.own != dirNoOwner {
					return fmt.Errorf("cache: line %#x modified in two L1Ds (cores %d and %d)", tag, e.ownerCore(), c)
				}
				e.own = uint8(c + 1)
			}
			want[tag] = e
		}
		l1i := h.l1i[c]
		for i := range l1i.lines {
			if l1i.lines[i].st == invalid {
				continue
			}
			tag := l1i.tagAt(i)
			e := want[tag]
			e.inst |= uint64(1) << uint(c)
			want[tag] = e
		}
	}
	seen := map[uint64]bool{}
	for idx := range h.dir.entries {
		e := h.dir.entries[idx]
		if e.empty() && e.own == dirNoOwner {
			continue
		}
		if h.llc.lines[idx].st == invalid {
			return fmt.Errorf("cache: directory entry %v attached to invalid LLC slot %d", e, idx)
		}
		tag := h.llc.tagAt(idx)
		if seen[tag] {
			return fmt.Errorf("cache: line %#x tracked by two directory entries", tag)
		}
		if w := want[tag]; w != e {
			return fmt.Errorf("cache: line %#x directory %v != brute force %v", tag, e, w)
		}
		seen[tag] = true
	}
	for tag, e := range h.dir.side {
		if e.empty() {
			return fmt.Errorf("cache: empty side-table entry for line %#x", tag)
		}
		if seen[tag] {
			return fmt.Errorf("cache: line %#x tracked by directory entry and side table", tag)
		}
		if w := want[tag]; w != *e {
			return fmt.Errorf("cache: line %#x side table %v != brute force %v", tag, *e, w)
		}
		seen[tag] = true
	}
	for tag, e := range want {
		if !seen[tag] {
			return fmt.Errorf("cache: line %#x resident in L1s (%v) but untracked by the directory", tag, e)
		}
	}
	ownWant := make([]int32, len(h.dir.ownedInSet))
	for idx := range h.dir.entries {
		if h.dir.entries[idx].own != dirNoOwner {
			ownWant[idx/h.llc.ways]++
		}
	}
	for s := range ownWant {
		if ownWant[s] != h.dir.ownedInSet[s] {
			return fmt.Errorf("cache: LLC set %d owned-line count %d != recomputed %d", s, h.dir.ownedInSet[s], ownWant[s])
		}
	}
	sideOwned := 0
	for _, e := range h.dir.side {
		if e.own != dirNoOwner {
			sideOwned++
		}
	}
	if sideOwned != h.dir.sideOwned {
		return fmt.Errorf("cache: side-table owned count %d != recomputed %d", h.dir.sideOwned, sideOwned)
	}
	return nil
}
