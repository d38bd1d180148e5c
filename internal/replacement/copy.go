package replacement

import "fmt"

// Copy restores src's decision state into dst, which must be the same
// concrete policy over the same geometry (both sides of a machine
// snapshot/fork are built from one machine.Config, so they always are).
// After Copy, dst's future Victim/Touch sequence is identical to src's —
// the property machine forking needs so a forked run replays a continued
// run exactly. Implemented as a package function with a type switch rather
// than a Policy method so the Policy interface (and its external
// implementations, if any appear) stays minimal.
func Copy(dst, src Policy) {
	switch d := dst.(type) {
	case *LRUPolicy:
		copy(d.words, src.(*LRUPolicy).words)
	case *treePLRU:
		s := src.(*treePLRU)
		for i := range d.bits {
			copy(d.bits[i], s.bits[i])
		}
	case *random:
		// seed is construction state and already equal; only the PRNG
		// position advances.
		d.state = src.(*random).state
	default:
		panic(fmt.Sprintf("replacement: Copy of unknown policy %T", dst))
	}
}
