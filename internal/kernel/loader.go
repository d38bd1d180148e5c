package kernel

import (
	"encoding/binary"

	"timecache/internal/isa"
	"timecache/internal/mem"
	"timecache/internal/vm"
)

// LoadOptions controls program loading.
type LoadOptions struct {
	// Core is the core affinity for the new process.
	Core int
	// ShareKey, when non-empty, maps the program's text and shared segments
	// to a named shared region: processes loaded with the same key share
	// those physical frames, like processes running the same binary against
	// the same shared library. When empty, all segments are private.
	ShareKey string
	// Name labels the process; defaults to the share key or "prog".
	Name string
}

// Load assembles an address space for prog, installs its segments, and
// spawns a vm.CPU process executing it. It returns both the process and the
// CPU so callers can inspect registers and output after the run.
func (k *Kernel) Load(prog *isa.Program, opts LoadOptions) (*Process, *vm.CPU, error) {
	name := opts.Name
	if name == "" {
		if opts.ShareKey != "" {
			name = opts.ShareKey
		} else {
			name = "prog"
		}
	}
	as := NewAddressSpace(k.phys)

	textImg := EncodeText(prog.Instrs)
	if opts.ShareKey != "" {
		if err := k.mapSharedImage(as, opts.ShareKey+".text", prog.TextBase, textImg, false); err != nil {
			return nil, nil, err
		}
		if len(prog.Shared) > 0 {
			// The .shared segment models shared data (a memory-mapped
			// region), so unlike text it stays writable.
			if err := k.mapSharedImage(as, opts.ShareKey+".lib", prog.SharedBase, prog.Shared, true); err != nil {
				return nil, nil, err
			}
		}
	} else {
		if err := k.mapPrivateImage(as, prog.TextBase, textImg, false); err != nil {
			return nil, nil, err
		}
		if len(prog.Shared) > 0 {
			if err := k.mapPrivateImage(as, prog.SharedBase, prog.Shared, true); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(prog.Data) > 0 {
		if err := k.mapPrivateImage(as, prog.DataBase, prog.Data, true); err != nil {
			return nil, nil, err
		}
	}
	stackBase := (prog.StackTop - prog.StackSize) &^ (mem.PageSize - 1)
	if err := as.MapAnon(stackBase, prog.StackSize+mem.PageSize, true); err != nil {
		return nil, nil, err
	}

	cpu := vm.New(prog)
	p, err := k.Spawn(name, cpu, as, opts.Core)
	if err != nil {
		return nil, nil, err
	}
	return p, cpu, nil
}

// mapSharedImage maps a named shared region at vaddr, initializing its
// contents on first creation. Text images are mapped read-only; shared
// data segments writable.
func (k *Kernel) mapSharedImage(as *AddressSpace, key string, vaddr uint64, img []byte, writable bool) error {
	size := uint64(len(img))
	if size == 0 {
		size = 1
	}
	_, existed := k.regions[key]
	frames, err := k.SharedRegion(key, size)
	if err != nil {
		return err
	}
	if !existed {
		k.writeImage(frames, img)
	}
	return as.MapShared(vaddr, frames, writable)
}

// mapPrivateImage allocates private frames at vaddr holding img.
func (k *Kernel) mapPrivateImage(as *AddressSpace, vaddr uint64, img []byte, writable bool) error {
	size := uint64(len(img))
	if err := as.MapAnon(vaddr, size, writable); err != nil {
		return err
	}
	for off := 0; off < len(img); off += mem.PageSize {
		f, _ := as.FrameAt(vaddr + uint64(off))
		end := off + mem.PageSize
		if end > len(img) {
			end = len(img)
		}
		copy(k.phys.Page(f), img[off:end])
	}
	return nil
}

func (k *Kernel) writeImage(frames []mem.Frame, img []byte) {
	for off := 0; off < len(img); off += mem.PageSize {
		end := off + mem.PageSize
		if end > len(img) {
			end = len(img)
		}
		copy(k.phys.Page(frames[off/mem.PageSize]), img[off:end])
	}
}

// EncodeText serializes instructions into their 8-byte memory encoding:
// opcode, rd, rs, rt, then the low 32 bits of the immediate. The VM decodes
// from the Program directly; the encoded bytes exist so text pages have
// deterministic contents (letting page deduplication merge identical
// binaries) and so fetch addresses are backed by real memory.
func EncodeText(instrs []isa.Instr) []byte {
	out := make([]byte, len(instrs)*isa.InstrBytes)
	for i, in := range instrs {
		b := out[i*isa.InstrBytes:]
		b[0] = byte(in.Op)
		b[1] = in.Rd
		b[2] = in.Rs
		b[3] = in.Rt
		binary.LittleEndian.PutUint32(b[4:], uint32(in.Imm))
	}
	return out
}

// MapSharedRegion maps a named shared region (creating it on first use) at
// vaddr in as, writable. Native attacker/victim pairs use this as their
// shared memory-mapped segment.
func (k *Kernel) MapSharedRegion(as *AddressSpace, key string, vaddr, size uint64) error {
	frames, err := k.SharedRegion(key, size)
	if err != nil {
		return err
	}
	return as.MapShared(vaddr, frames, true)
}
