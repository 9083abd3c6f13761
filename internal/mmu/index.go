package mmu

// vpnIndex maps a virtual page number to its TLB slot: an
// open-addressing table with linear probing, Fibonacci hashing and
// backward-shift deletion. The table is sized to at least twice the
// TLB's entry count, so it is never more than half full, and deletion
// leaves no tombstones, so probe sequences stay short for the life of
// the TLB. It replaces a Go map on the translation path: no hashing
// runtime call, no allocation after construction.
type vpnIndex struct {
	cells []indexCell
	shift uint // 64 - log2(len(cells))
}

// indexCell holds one mapping; slot is the TLB slot plus one, so the
// zero cell is empty.
type indexCell struct {
	vpn  uint64
	slot int32
}

func newVPNIndex(entries int) vpnIndex {
	size, bits := 2, uint(1)
	for size < 2*entries {
		size <<= 1
		bits++
	}
	return vpnIndex{cells: make([]indexCell, size), shift: 64 - bits}
}

// home is the first cell probed for vpn.
func (x *vpnIndex) home(vpn uint64) int {
	return int((vpn * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns vpn's slot, or noSlot when the page is not resident.
func (x *vpnIndex) find(vpn uint64) int32 {
	mask := len(x.cells) - 1
	for i := x.home(vpn); ; i = (i + 1) & mask {
		c := &x.cells[i]
		if c.slot == 0 {
			return noSlot
		}
		if c.vpn == vpn {
			return c.slot - 1
		}
	}
}

// insert records vpn at slot; vpn must not be present.
func (x *vpnIndex) insert(vpn uint64, slot int32) {
	mask := len(x.cells) - 1
	i := x.home(vpn)
	for x.cells[i].slot != 0 {
		i = (i + 1) & mask
	}
	x.cells[i] = indexCell{vpn: vpn, slot: slot + 1}
}

// remove deletes vpn, which must be present, and shifts later members
// of its probe run back so every lookup still reaches its cell.
func (x *vpnIndex) remove(vpn uint64) {
	mask := len(x.cells) - 1
	i := x.home(vpn)
	for x.cells[i].vpn != vpn || x.cells[i].slot == 0 {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; x.cells[j].slot != 0; j = (j + 1) & mask {
		// The cell at j may move back to the hole at i only if its home
		// does not lie cyclically in (i, j].
		if h := x.home(x.cells[j].vpn); (j-h)&mask >= (j-i)&mask {
			x.cells[i] = x.cells[j]
			i = j
		}
	}
	x.cells[i] = indexCell{}
}

// reset empties the index.
func (x *vpnIndex) reset() { clear(x.cells) }
