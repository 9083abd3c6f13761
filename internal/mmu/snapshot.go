package mmu

import (
	"sort"

	"dstore/internal/snap"
)

// SnapshotTo serialises the page table: frame mappings (sorted by
// virtual page number for a deterministic stream) and the allocation
// cursor.
func (pt *PageTable) SnapshotTo(w *snap.Writer) {
	w.Tag("pagetable")
	w.U64(pt.maxFrames)
	w.U64(pt.nextFrame)
	vpns := make([]uint64, 0, len(pt.frames))
	for vpn := range pt.frames { //dstore:allow-maprange keys sorted below
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	w.U32(uint32(len(vpns)))
	for _, vpn := range vpns {
		w.U64(vpn)
		w.U64(pt.frames[vpn])
	}
}

// RestoreFrom overwrites the page table from a snapshot. The physical
// memory bound must match the configured table, and the stream is
// validated before it sizes anything: the mapping count must fit both
// physical memory and the bytes left in the stream, every frame must
// lie below the allocation cursor, and no page may map twice.
func (pt *PageTable) RestoreFrom(r *snap.Reader) {
	r.Tag("pagetable")
	maxFrames := r.U64()
	nextFrame := r.U64()
	n := r.U32()
	if r.Err() != nil {
		return
	}
	switch {
	case maxFrames != pt.maxFrames:
		r.Failf("mmu: snapshot physical memory %d frames, configured %d", maxFrames, pt.maxFrames)
	case nextFrame > maxFrames:
		r.Failf("mmu: snapshot allocation cursor %d beyond %d frames", nextFrame, maxFrames)
	case uint64(n) > nextFrame:
		r.Failf("mmu: snapshot maps %d pages with only %d frames allocated", n, nextFrame)
	case uint64(n) > uint64(r.Remaining())/16:
		r.Failf("mmu: snapshot claims %d mappings, only %d bytes left", n, r.Remaining())
	}
	if r.Err() != nil {
		return
	}
	frames := make(map[uint64]uint64, n)
	for i := uint32(0); i < n; i++ {
		vpn := r.U64()
		pfn := r.U64()
		if r.Err() != nil {
			return
		}
		if pfn >= nextFrame {
			r.Failf("mmu: snapshot maps page %#x to frame %d at or beyond the cursor %d", vpn, pfn, nextFrame)
			return
		}
		if _, dup := frames[vpn]; dup {
			r.Failf("mmu: snapshot maps page %#x twice", vpn)
			return
		}
		frames[vpn] = pfn
	}
	pt.nextFrame = nextFrame
	pt.frames = frames
}

// SnapshotTo serialises the TLB contents, LRU clock and counters. The
// vpn index is rebuilt on restore.
func (t *TLB) SnapshotTo(w *snap.Writer) {
	w.Tag("tlb")
	w.String(t.cfg.Name)
	w.U64(t.clock)
	w.U32(uint32(len(t.entries)))
	for _, e := range t.entries {
		w.U64(e.vpn)
		w.U64(e.pfn)
		w.U64(e.used)
	}
	t.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the TLB from a snapshot. The snapshot must
// fit the configured entry count, and its entries must be a valid LRU
// state: distinct pages, distinct used stamps, none ahead of the
// clock. The LRU list is rebuilt from the stamps.
func (t *TLB) RestoreFrom(r *snap.Reader) {
	r.Tag("tlb")
	name := r.String()
	clock := r.U64()
	n := r.U32()
	if r.Err() != nil {
		return
	}
	if name != t.cfg.Name {
		r.Failf("mmu %s: snapshot of TLB %q", t.cfg.Name, name)
		return
	}
	if int(n) > t.cfg.Entries {
		r.Failf("mmu %s: snapshot holds %d entries, TLB has %d", t.cfg.Name, n, t.cfg.Entries)
		return
	}
	t.clock = clock
	t.entries = t.entries[:0]
	t.head, t.tail = noSlot, noSlot
	t.index.reset()
	for i := uint32(0); i < n; i++ {
		e := tlbEntry{vpn: r.U64(), pfn: r.U64(), used: r.U64()}
		if r.Err() != nil {
			return
		}
		if t.index.find(e.vpn) != noSlot {
			r.Failf("mmu %s: snapshot holds page %#x twice", t.cfg.Name, e.vpn)
			return
		}
		if e.used > clock {
			r.Failf("mmu %s: snapshot entry stamped %d after the clock %d", t.cfg.Name, e.used, clock)
			return
		}
		t.entries = append(t.entries, e)
		t.index.insert(e.vpn, int32(len(t.entries)-1))
	}
	order := make([]int32, len(t.entries))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return t.entries[order[a]].used < t.entries[order[b]].used })
	for k, i := range order {
		if k > 0 && t.entries[order[k-1]].used == t.entries[i].used {
			r.Failf("mmu %s: snapshot stamps two entries %d", t.cfg.Name, t.entries[i].used)
			return
		}
		t.pushFront(i)
	}
	t.counters.RestoreFrom(r)
}
