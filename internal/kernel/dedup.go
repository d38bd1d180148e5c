package kernel

// DedupScan performs one KSM-style same-page-merging pass over every
// process's private anonymous pages: pages with identical contents are
// merged onto a single frame, with all mappings marked copy-on-write.
// It returns the number of pages merged.
//
// This is the memory-saving optimization the paper's introduction motivates:
// it creates cross-process physical sharing — and hence a reuse side
// channel — which TimeCache makes safe to deploy.
func (k *Kernel) DedupScan() int {
	type slot struct {
		as *AddressSpace
		m  *mapping
	}
	// Pages are visited in process order and ascending virtual page, and
	// same-hash groups kept in the order their first page was seen, so the
	// frame each group merges onto — and hence which frames the scan frees
	// and the next Alloc reuses — depends on the process table alone, never
	// on map iteration order.
	var groups [][]slot
	groupOf := map[uint64]int{}
	seen := map[*AddressSpace]bool{}
	for _, p := range k.procs {
		if p.State == Exited || seen[p.AS] {
			continue
		}
		seen[p.AS] = true
		p.AS.anonPages(func(_ uint64, m *mapping) {
			h := k.phys.HashFrame(m.frame)
			g, ok := groupOf[h]
			if !ok {
				g = len(groups)
				groupOf[h] = g
				groups = append(groups, nil)
			}
			groups[g] = append(groups[g], slot{p.AS, m})
		})
	}
	merged := 0
	for _, slots := range groups {
		if len(slots) < 2 {
			continue
		}
		// Merge every matching frame onto the first verified-equal one.
		for i := 1; i < len(slots); i++ {
			a, b := slots[0], slots[i]
			if a.m.frame == b.m.frame {
				continue
			}
			if !k.phys.SameContents(a.m.frame, b.m.frame) {
				continue // hash collision; leave untouched
			}
			k.phys.Ref(a.m.frame)
			k.phys.Unref(b.m.frame)
			b.m.frame = a.m.frame
			b.m.cow = b.m.writable
			a.m.cow = a.m.writable
			a.as.version++
			b.as.version++
			merged++
		}
	}
	k.Stats.DedupMerged += uint64(merged)
	// Invalidate cached translations: the TLBs check the version counter,
	// which the merges bumped.
	return merged
}
