package mem

// Test-only accessors.

// allocated returns the number of live (refcount > 0) frames.
func (p *Physical) allocated() int {
	n := 0
	for _, fi := range p.frames {
		if fi.refs > 0 {
			n++
		}
	}
	return n
}

// LoadByte reads the byte at physical address pa.
func (p *Physical) LoadByte(pa uint64) byte {
	return p.contents(FrameOf(pa))[pa&(PageSize-1)]
}

// StoreByte writes the byte at physical address pa.
func (p *Physical) StoreByte(pa uint64, v byte) {
	p.writable(FrameOf(pa)).data[pa&(PageSize-1)] = v
}
