package kernel

import (
	"fmt"

	"timecache/internal/mem"
	"timecache/internal/sim"
)

// Test-only helpers: setup steps the tests need and no binary does.

// procFunc adapts a function to sim.Proc.
type procFunc func(env sim.Env) bool

func (f procFunc) Step(env sim.Env) bool { return f(env) }

// RunInline executes fn synchronously in the context of process p on its
// CPU, outside the scheduler loop, with the Env the scheduler would hand to
// p's Proc. It may only be used while no process is Running; a context
// switch (with its TimeCache bookkeeping) is performed if p is not the
// CPU's current process, so s-bit state remains correct.
func (k *Kernel) RunInline(p *Process, fn func(env sim.Env)) error {
	if p.State == Exited {
		return fmt.Errorf("kernel: RunInline on exited process %d", p.PID)
	}
	c := k.cores[p.Core]
	if c.cur != nil {
		return fmt.Errorf("kernel: RunInline while CPU %d is running %q", c.id, c.cur.Name)
	}
	if c.prev != p {
		k.contextSwitch(c, c.prev, p)
	}
	c.prev = nil
	prevState := p.State
	p.State = Running
	fn(&procEnv{k: k, cpu: c, proc: p})
	if p.State == Running {
		p.State = prevState
	}
	c.prev = p
	return nil
}

// Fork creates a child address space sharing all of parent's private pages
// copy-on-write (shared-region mappings are shared outright), modeling a
// unix fork.
func (k *Kernel) Fork(parent *AddressSpace) (*AddressSpace, error) {
	child := NewAddressSpace(k.phys)
	for vp, m := range parent.pages {
		k.phys.Ref(m.frame)
		nm := &mapping{frame: m.frame, writable: m.writable, shared: m.shared}
		if !m.shared && m.writable {
			nm.cow = true
			m.cow = true
		}
		child.pages[vp] = nm
	}
	parent.version++
	child.version++
	return child, nil
}

// SavedFrames reports how many frames dedup is currently saving: the sum
// over shared anonymous frames of (refs - 1).
func (k *Kernel) SavedFrames() int {
	counted := map[mem.Frame]bool{}
	saved := 0
	seen := map[*AddressSpace]bool{}
	for _, p := range k.procs {
		if seen[p.AS] {
			continue
		}
		seen[p.AS] = true
		p.AS.anonPages(func(vp uint64, m *mapping) {
			if m.cow && !counted[m.frame] {
				counted[m.frame] = true
				saved += k.phys.Refs(m.frame) - 1
			}
		})
	}
	return saved
}
