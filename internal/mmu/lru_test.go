package mmu

import (
	"strings"
	"testing"

	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/snap"
)

// refTLB is the reference true-LRU model: a linear scan for the page
// and, on a miss with every entry full, a linear scan for the oldest
// stamp — the replacement the O(1) list must reproduce exactly.
type refTLB struct {
	pt           *PageTable
	entries      []tlbEntry
	capacity     int
	clock        uint64
	hits, misses uint64
}

func (r *refTLB) translate(va memsys.Addr) (memsys.Addr, sim.Tick) {
	vpn := uint64(va) >> PageShift
	r.clock++
	for i := range r.entries {
		if r.entries[i].vpn == vpn {
			r.hits++
			r.entries[i].used = r.clock
			return memsys.Addr(r.entries[i].pfn<<PageShift | uint64(va)&(PageSize-1)), 1
		}
	}
	r.misses++
	pa, err := r.pt.EnsureMapped(va)
	if err != nil {
		panic(err)
	}
	e := tlbEntry{vpn: vpn, pfn: uint64(pa) >> PageShift, used: r.clock}
	if len(r.entries) < r.capacity {
		r.entries = append(r.entries, e)
		return pa, 51
	}
	victim := 0
	for i := range r.entries {
		if r.entries[i].used < r.entries[victim].used {
			victim = i
		}
	}
	r.entries[victim] = e
	return pa, 51
}

// vaStream draws a seeded address stream that mixes same-page runs
// (the coalesced-line pattern), reuse of a hot set that fits the TLB,
// and a wide random spread that forces evictions.
func vaStream(seed uint64, n int) []memsys.Addr {
	rng := sim.NewRand(seed)
	out := make([]memsys.Addr, 0, n)
	va := memsys.Addr(0)
	for len(out) < n {
		switch x := rng.Float64(); {
		case x < 0.4:
			va += memsys.LineSize // next line, usually the same page
		case x < 0.75:
			va = memsys.Addr(rng.Uint64n(12)*PageSize + rng.Uint64n(PageSize))
		default:
			va = memsys.Addr(rng.Uint64n(4096)*PageSize + rng.Uint64n(PageSize))
		}
		out = append(out, va)
	}
	return out
}

// TestTLBMatchesReferenceLRU drives the O(1) TLB and the linear-scan
// model over the same seeded stream, and checks every translation,
// latency and counter agree — then snapshots the TLB mid-stream,
// restores it into a fresh TLB and page table, and checks the restored
// pair keeps agreeing with the model to the end.
func TestTLBMatchesReferenceLRU(t *testing.T) {
	const entries = 16
	for _, seed := range []uint64{1, 2, 3} {
		stream := vaStream(seed, 20000)
		pt, tlb := newTLB(entries)
		ref := &refTLB{pt: NewPageTable(1 << 30), capacity: entries}
		check := func(step int, tlb *TLB) {
			va := stream[step]
			pa, lat, _, err := tlb.Translate(va)
			if err != nil {
				t.Fatal(err)
			}
			wantPA, wantLat := ref.translate(va)
			if pa != wantPA || lat != wantLat {
				t.Fatalf("seed %d step %d va %#x: got (%#x, %d), reference (%#x, %d)",
					seed, step, uint64(va), uint64(pa), lat, uint64(wantPA), wantLat)
			}
		}
		half := len(stream) / 2
		for i := 0; i < half; i++ {
			check(i, tlb)
		}

		w := &snap.Writer{}
		pt.SnapshotTo(w)
		tlb.SnapshotTo(w)
		pt2, restored := newTLB(entries)
		r := snap.NewReader(w.Bytes())
		pt2.RestoreFrom(r)
		restored.RestoreFrom(r)
		if err := r.Done(); err != nil {
			t.Fatalf("seed %d: restore: %v", seed, err)
		}
		for i := half; i < len(stream); i++ {
			check(i, restored)
		}
		if h, m := restored.Counters().Get("hits"), restored.Counters().Get("misses"); h != ref.hits || m != ref.misses {
			t.Fatalf("seed %d: hits/misses %d/%d, reference %d/%d", seed, h, m, ref.hits, ref.misses)
		}
		if ref.misses <= entries || ref.hits == 0 {
			t.Fatalf("seed %d: stream did not exercise both hits and evictions (%d hits, %d misses)", seed, ref.hits, ref.misses)
		}
	}
}

// pageTableStream writes a hand-built page-table section.
func pageTableStream(maxFrames, nextFrame uint64, n uint32, pairs ...uint64) []byte {
	w := &snap.Writer{}
	w.Tag("pagetable")
	w.U64(maxFrames)
	w.U64(nextFrame)
	w.U32(n)
	for _, v := range pairs {
		w.U64(v)
	}
	return w.Bytes()
}

// TestPageTableRestoreRejectsCraftedStreams checks the page-table
// decoder rejects, as an error and before sizing anything, every
// stream no page table could have written.
func TestPageTableRestoreRejectsCraftedStreams(t *testing.T) {
	const frames = 256 // NewPageTable(1 << 20)
	cases := []struct {
		name   string
		stream []byte
		want   string // "" = accepted
	}{
		{"valid", pageTableStream(frames, 2, 2, 5, 0, 9, 1), ""},
		{"empty", pageTableStream(frames, 0, 0), ""},
		{"memory-mismatch", pageTableStream(frames+1, 0, 0), "physical memory"},
		{"huge-count", pageTableStream(frames, frames, 0xFFFFFFF0), "maps 4294967280 pages"},
		{"count-past-cursor", pageTableStream(frames, 1, 2, 5, 0, 9, 0), "frames allocated"},
		{"count-past-stream", pageTableStream(frames, 10, 10, 5, 0), "bytes left"},
		{"cursor-past-memory", pageTableStream(frames, frames+1, 0), "cursor"},
		{"frame-past-cursor", pageTableStream(frames, 2, 1, 5, 2), "beyond the cursor"},
		{"duplicate-page", pageTableStream(frames, 2, 2, 5, 0, 5, 1), "twice"},
	}
	for _, tc := range cases {
		pt := NewPageTable(1 << 20)
		r := snap.NewReader(tc.stream)
		pt.RestoreFrom(r)
		err := r.Err()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected a valid stream: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	pt := NewPageTable(1 << 20)
	r := snap.NewReader(pageTableStream(frames, 2, 2, 5, 0, 9, 1))
	pt.RestoreFrom(r)
	if pa, ok := pt.Lookup(9<<PageShift | 0x10); !ok || pa != 1<<PageShift|0x10 {
		t.Errorf("restored mapping: pa %#x ok %v", uint64(pa), ok)
	}
	if pt.MappedPages() != 2 {
		t.Errorf("restored %d pages, want 2", pt.MappedPages())
	}
}

// tlbStream writes a hand-built TLB section: entries are (vpn, pfn,
// used) triples, followed by zeroed counters.
func tlbStream(name string, clock uint64, triples ...uint64) []byte {
	w := &snap.Writer{}
	w.Tag("tlb")
	w.String(name)
	w.U64(clock)
	w.U32(uint32(len(triples) / 3))
	for _, v := range triples {
		w.U64(v)
	}
	_, fresh := newTLB(1)
	fresh.Counters().SnapshotTo(w)
	return w.Bytes()
}

// TestTLBRestoreRejectsCraftedStreams checks the TLB decoder accepts
// only a valid LRU state, and that an accepted state evicts in stamp
// order.
func TestTLBRestoreRejectsCraftedStreams(t *testing.T) {
	cases := []struct {
		name   string
		stream []byte
		want   string
	}{
		{"valid", tlbStream("t", 9, 1, 0, 7, 2, 1, 3, 3, 2, 9), ""},
		{"too-many", tlbStream("t", 9, 1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4, 5, 4, 5), "entries"},
		{"duplicate-page", tlbStream("t", 9, 1, 0, 7, 1, 1, 3), "twice"},
		{"duplicate-stamp", tlbStream("t", 9, 1, 0, 7, 2, 1, 7), "stamps two"},
		{"stamp-after-clock", tlbStream("t", 9, 1, 0, 10), "after the clock"},
		{"wrong-name", tlbStream("u", 0), "snapshot of TLB"},
	}
	for _, tc := range cases {
		_, tlb := newTLB(4)
		r := snap.NewReader(tc.stream)
		tlb.RestoreFrom(r)
		err := r.Err()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: rejected a valid stream: %v", tc.name, err)
		case tc.want != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.want != "" && !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}

	// Pages 1 (stamp 7), 2 (stamp 3), 3 (stamp 9) in a 4-entry TLB:
	// one miss fills the free slot, the next evicts page 2, the oldest.
	_, tlb := newTLB(4)
	r := snap.NewReader(tlbStream("t", 9, 1, 0, 7, 2, 1, 3, 3, 2, 9))
	tlb.RestoreFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	tlb.Translate(4 << PageShift)
	tlb.Translate(5 << PageShift)
	for vpn, resident := range map[uint64]bool{1: true, 2: false, 3: true, 4: true, 5: true} {
		if ok := tlb.index.find(vpn) != noSlot; ok != resident {
			t.Errorf("page %d resident=%v, want %v", vpn, ok, resident)
		}
	}
}
