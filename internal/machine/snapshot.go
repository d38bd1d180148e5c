// Machine snapshot/fork: capture the complete warm state of a machine and
// restore it into another machine of the same Config at near-Reset cost.
//
// A Snapshot holds a frozen deep copy of the source machine — its cache
// line arrays and s-bit columns, LLC sharer directory and replacement
// state, kernel process table, scheduler position, saved columns and
// clocks, and physical memory. The frozen machine is never run; it exists
// only to be copied out of. Physical memory is captured copy-on-write:
// Snapshot seals the live machine's frame buffers and the frozen copy
// aliases them, as does every fork — the first store to a shared frame
// copies just that 4 KB page (mem.Physical's write barrier), so forking is
// near-O(1) in memory instead of O(frames).
//
// Determinism contract: running a fork to completion produces exactly the
// cycles and counters the source machine would have produced had it simply
// kept running — and, because Reset-equals-fresh already holds, exactly
// what a cold machine running the whole workload produces. The harness's
// golden forced-on/off tests and -snapshot-check mode enforce this
// end-to-end.
package machine

import "fmt"

// Snapshot is an immutable capture of a machine's complete simulation
// state. Any number of machines may be forked from one snapshot, serially
// or concurrently; forks never write through to the snapshot.
type Snapshot struct {
	cfg Config
	m   *Machine // frozen deep copy; never run

	// Tag carries caller metadata alongside the snapshot (the harness
	// stores the warm-point measurement it subtracts after the fork runs).
	Tag any
}

// Snapshot captures m's current state. The machine must be stopped (not
// inside Run); it remains fully usable afterwards and may keep running —
// continuing is byte-identical to never having snapshotted, since the
// capture only reads simulation state and the sealed frame buffers
// copy-on-write transparently. Snapshot fails if any live process's Proc
// does not implement sim.Forker.
func (m *Machine) Snapshot() (*Snapshot, error) {
	frozen := New(m.cfg)
	if err := frozen.k.CopyFrom(m.k); err != nil {
		return nil, err
	}
	// Hierarchy.CopyFrom also deep-copies runtime defense state (clepsydra
	// deadlines, fase ownership): New installed a same-kind instance on the
	// frozen machine because the Config carries the defense kind, and
	// CopyFrom refuses (panics) on a kind mismatch rather than shelving a
	// machine with silently dropped defense state.
	frozen.hier.CopyFrom(m.hier)
	// Seal before aliasing: from here on, stores on the live machine copy
	// their frame first, so the frozen machine's view never changes.
	m.phys.Seal()
	frozen.phys.CopyFrom(m.phys)
	return &Snapshot{cfg: m.cfg, m: frozen}, nil
}

// copyFrom restores src's complete state into m (same Config required).
// It overwrites everything Reset touches, so restoring into a dirty pooled
// machine needs no prior Reset.
func (m *Machine) copyFrom(src *Machine) error {
	if err := m.k.CopyFrom(src.k); err != nil {
		return err
	}
	m.hier.CopyFrom(src.hier)
	m.phys.CopyFrom(src.phys)
	return nil
}

// ForkInto restores the snapshot into m, which must have the snapshot's
// Config. m may be dirty (no Reset needed — the restore is total) but must
// not be running. Concurrent ForkInto calls from one snapshot are safe.
func (s *Snapshot) ForkInto(m *Machine) error {
	if m.cfg != s.cfg {
		return fmt.Errorf("machine: fork into config %+v, snapshot has %+v", m.cfg, s.cfg)
	}
	return m.copyFrom(s.m)
}

// Fork builds a fresh machine positioned at the snapshot point.
func (s *Snapshot) Fork() *Machine {
	m := New(s.cfg)
	if err := s.ForkInto(m); err != nil {
		// Unreachable: the config matches by construction and the frozen
		// machine's procs are themselves forks, hence forkable.
		panic(err)
	}
	return m
}

// PutSnapshot shelves s under key for later Fork checkouts. The shelf is
// bounded: once full, the oldest key is dropped (FIFO) — snapshots are an
// optimization, never a correctness dependency. Storing an existing key
// replaces its snapshot. Nil pools ignore the call.
func (p *Pool) PutSnapshot(key any, s *Snapshot) {
	if p == nil || s == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.snaps[key]; !ok {
		if len(p.snapOrder) >= defaultSnapCap {
			oldest := p.snapOrder[0]
			p.snapOrder = p.snapOrder[1:]
			delete(p.snaps, oldest)
		}
		p.snapOrder = append(p.snapOrder, key)
	}
	p.snaps[key] = s
}

// Snapshot returns the shelved snapshot for key, or nil. Lookups count into
// Stats().SnapshotHits/SnapshotMisses.
func (p *Pool) Snapshot(key any) *Snapshot {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	s := p.snaps[key]
	p.mu.Unlock()
	if s == nil {
		p.snapMisses.Add(1)
		return nil
	}
	p.snapHits.Add(1)
	return s
}

// Fork checks a machine out of the pool positioned at s: an idle machine of
// s's Config when available (restored without an intermediate Reset — the
// restore overwrites everything Reset would), a fresh build otherwise. The
// caller owns the machine and should Put it back when done, exactly as with
// Get. A nil pool forks a fresh machine.
func (p *Pool) Fork(s *Snapshot) *Machine {
	if p == nil {
		return s.Fork()
	}
	p.mu.Lock()
	if list := p.machines[s.cfg]; len(list) > 0 {
		m := list[len(list)-1]
		list[len(list)-1] = nil
		p.machines[s.cfg] = list[:len(list)-1]
		p.mu.Unlock()
		p.hits.Add(1)
		if err := s.ForkInto(m); err != nil {
			panic(err) // unreachable: config matches by construction
		}
		return m
	}
	p.mu.Unlock()
	p.misses.Add(1)
	return s.Fork()
}
