package mmu

import (
	"testing"

	"dstore/internal/memalloc"
	"dstore/internal/memsys"
)

func benchTLB(b *testing.B, pages int) {
	pt := NewPageTable(1 << 31)
	tlb := NewTLB(pt, Config{Name: "bench", Entries: 256, HitLatency: 1, WalkLatency: 40,
		DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit})
	page := func(i int) memsys.Addr { return memsys.Addr(uint64(i%pages+1) * PageSize) }
	for i := 0; i < pages; i++ {
		tlb.Translate(page(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := tlb.Translate(page(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTLBTranslateHit cycles over half as many pages as the TLB
// holds: every translation hits, none on the most recent page.
func BenchmarkTLBTranslateHit(b *testing.B) { benchTLB(b, 128) }

// BenchmarkTLBTranslateEvict cycles over four times as many pages as
// the TLB holds: every translation walks and evicts.
func BenchmarkTLBTranslateEvict(b *testing.B) { benchTLB(b, 1024) }
