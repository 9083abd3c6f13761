package gpu

import (
	"testing"
	"testing/quick"

	"dstore/internal/cache"
	"dstore/internal/coherence"
	"dstore/internal/cpu"
	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memalloc"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/sim"
)

type rig struct {
	e      *sim.Engine
	g      *GPU
	slices []*coherence.Ctrl
	cpuC   *coherence.Ctrl
	mem    *coherence.MemCtrl
	pt     *mmu.PageTable
	vers   *cpu.VersionSource
}

func newRig(t *testing.T, sms, warpsPerSM, mshrs int) *rig {
	t.Helper()
	e := sim.NewEngine()
	xbar := interconnect.NewCrossbar(e, "xbar", 16, 32)
	d := dram.New(e, dram.DefaultConfig())
	const nSlices = 2
	sliceName := func(i int) string { return []string{"gpu0", "gpu1"}[i] }
	mem := coherence.NewMemCtrl(e, "mem", xbar, d, coherence.Probes{CPU: "cpu", Slices: []string{sliceName(0), sliceName(1)}})
	cpuC := coherence.NewCtrl(e, coherence.CtrlConfig{
		Name: "cpu", L2: cache.Config{Name: "cpu.l2", SizeBytes: 64 * 1024, Ways: 8},
		L2HitLat: 12, MSHRs: 8,
	}, xbar, mem)
	var slices []*coherence.Ctrl
	for i := 0; i < nSlices; i++ {
		slices = append(slices, coherence.NewCtrl(e, coherence.CtrlConfig{
			Name:     sliceName(i),
			L2:       cache.Config{Name: sliceName(i) + ".l2", SizeBytes: 32 * 1024, Ways: 8},
			L2HitLat: 12, MSHRs: 16,
		}, xbar, mem))
	}
	direct := interconnect.NewLink(e, "direct", 20, 16)
	cpuC.AttachDirectStore(direct, func(a memsys.Addr) *coherence.Ctrl {
		return slices[memsys.SliceFor(a, nSlices)]
	})
	pt := mmu.NewPageTable(1 << 30)
	gtlb := mmu.NewTLB(pt, mmu.Config{
		Name: "gpu.tlb", Entries: 256, HitLatency: 1, WalkLatency: 30,
		DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit,
	})
	vers := &cpu.VersionSource{}
	g := New(e, Config{
		Name: "gpu", SMs: sms, MaxWarpsPerSM: warpsPerSM,
		L1:       cache.Config{Name: "l1", SizeBytes: 2 * 1024, Ways: 4},
		L1HitLat: 20, SharedLat: 10, MSHRsPerSM: mshrs,
	}, gtlb, vers, func(a memsys.Addr) *coherence.Ctrl {
		return slices[memsys.SliceFor(a, nSlices)]
	})
	return &rig{e: e, g: g, slices: slices, cpuC: cpuC, mem: mem, pt: pt, vers: vers}
}

// launch runs a kernel to completion and returns the finish tick.
func (r *rig) launch(t *testing.T, k Kernel) sim.Tick {
	t.Helper()
	done := false
	var at sim.Tick
	r.g.Launch(k, func() { done = true; at = r.e.Now() })
	r.e.Run()
	if !done {
		t.Fatalf("kernel %q did not complete", k.Name)
	}
	return at
}

// sliceAccesses sums demand accesses over the slices.
func (r *rig) sliceAccesses() uint64 {
	var n uint64
	for _, s := range r.slices {
		n += s.L2Cache().Counters().Get("accesses")
	}
	return n
}

func loadWarp(addrs ...memsys.Addr) Warp {
	var ops []WarpOp
	for _, a := range addrs {
		ops = append(ops, WarpOp{Kind: OpGlobalLoad, Addr: a, Lines: 1})
	}
	return Warp{Ops: ops}
}

func TestComputeOnlyKernelCompletes(t *testing.T) {
	r := newRig(t, 2, 4, 8)
	at := r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 100}}},
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 200}}},
	}})
	if at < 200 {
		t.Errorf("kernel finished at %d, before its longest warp", at)
	}
	if r.sliceAccesses() != 0 {
		t.Error("compute kernel touched the L2")
	}
}

func TestGlobalLoadMissesThenL1Hits(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	a := memsys.Addr(0x10000)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{loadWarp(a, a)}})
	if got := r.sliceAccesses(); got != 1 {
		t.Errorf("slice accesses = %d, want 1 (second load must hit L1)", got)
	}
	l1 := r.g.L1Caches()[0]
	if l1.Counters().Get("hits") != 1 {
		t.Errorf("L1 hits = %d, want 1", l1.Counters().Get("hits"))
	}
}

func TestFlashInvalidateOnLaunch(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	a := memsys.Addr(0x10000)
	r.launch(t, Kernel{Name: "k1", Warps: []Warp{loadWarp(a)}})
	first := r.sliceAccesses()
	r.launch(t, Kernel{Name: "k2", Warps: []Warp{loadWarp(a)}})
	if got := r.sliceAccesses(); got != first+1 {
		t.Errorf("slice accesses after relaunch = %d, want %d (L1 flash forces refetch)", got, first+1)
	}
	if r.g.Counters().Get("l1_lines_flash_invalidated") == 0 {
		t.Error("no lines flash invalidated")
	}
}

func TestUncoalescedAccessTouchesEachLine(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpGlobalLoad, Addr: 0x10000, Lines: 4}}},
	}})
	if got := r.g.Counters().Get("global_load_lines"); got != 4 {
		t.Errorf("load lines = %d, want 4", got)
	}
	if got := r.sliceAccesses(); got != 4 {
		t.Errorf("slice accesses = %d, want 4", got)
	}
}

func TestStoreWriteThroughReachesSlice(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	a := memsys.Addr(0x10000)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpGlobalStore, Addr: a, Lines: 1}}},
	}})
	pa, _ := r.pt.Lookup(a)
	slice := r.slices[memsys.SliceFor(pa, 2)]
	if st := slice.State(pa); st != coherence.MM {
		t.Errorf("stored line state %s, want MM", coherence.StateName(st))
	}
	if slice.Ver(pa) == 0 {
		t.Error("store version not recorded at slice")
	}
	// Write-no-allocate: the L1 must not hold the line.
	if r.g.L1Caches()[0].Contains(pa) {
		t.Error("store allocated into L1")
	}
}

func TestKernelWaitsForOutstandingStores(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	at := r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpGlobalStore, Addr: 0x10000, Lines: 1}}},
	}})
	// The store's GETX round trip takes well over 50 ticks; a kernel
	// that "finished" earlier ignored the outstanding store.
	if at < 50 {
		t.Errorf("kernel completed at %d, before its store could commit", at)
	}
	if !r.mem.Idle() {
		t.Error("memory controller busy after kernel completion")
	}
}

func TestSharedOpsBypassHierarchy(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	r.launch(t, Kernel{Name: "k", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpShared}, {Kind: OpShared}}},
	}})
	if r.g.Counters().Get("shared_ops") != 2 {
		t.Error("shared ops miscounted")
	}
	if r.sliceAccesses() != 0 {
		t.Error("shared ops generated L2 traffic")
	}
}

func TestPushedDataServedFromSliceWithoutCoherenceTraffic(t *testing.T) {
	r := newRig(t, 1, 1, 8)
	va := memsys.Addr(0x10000)
	pa, err := r.pt.EnsureMapped(va)
	if err != nil {
		t.Fatal(err)
	}
	// CPU pushes the line (direct store).
	pushDone := false
	r.cpuC.Access(&memsys.Request{Type: memsys.RemoteStore, Addr: pa, Ver: 77,
		Done: func(sim.Tick) { pushDone = true }})
	r.e.Run()
	if !pushDone {
		t.Fatal("push did not complete")
	}
	before := r.mem.Counters().Get("requests")
	r.launch(t, Kernel{Name: "k", Warps: []Warp{loadWarp(va)}})
	if got := r.mem.Counters().Get("requests"); got != before {
		t.Errorf("kernel read of pushed line generated %d coherence transactions", got-before)
	}
}

func TestWarpParallelismHidesLatency(t *testing.T) {
	const n = 16
	// One warp doing n dependent cold loads.
	serial := newRig(t, 1, 1, 32)
	var addrs []memsys.Addr
	for i := 0; i < n; i++ {
		addrs = append(addrs, memsys.Addr(0x10000)+memsys.Addr(i)*memsys.LineSize)
	}
	tSerial := serial.launch(t, Kernel{Name: "serial", Warps: []Warp{loadWarp(addrs...)}})

	// n warps doing one load each.
	par := newRig(t, 1, n, 32)
	var warps []Warp
	for i := 0; i < n; i++ {
		warps = append(warps, loadWarp(addrs[i]))
	}
	tPar := par.launch(t, Kernel{Name: "par", Warps: warps})
	if tPar*2 >= tSerial {
		t.Errorf("parallel warps (%d) not at least 2x faster than serial (%d)", tPar, tSerial)
	}
}

func TestMSHRBoundLimitsParallelism(t *testing.T) {
	mkKernel := func() Kernel {
		var warps []Warp
		for i := 0; i < 16; i++ {
			warps = append(warps, loadWarp(memsys.Addr(0x10000)+memsys.Addr(i)*memsys.LineSize))
		}
		return Kernel{Name: "k", Warps: warps}
	}
	narrow := newRig(t, 1, 16, 1)
	tNarrow := narrow.launch(t, mkKernel())
	wide := newRig(t, 1, 16, 16)
	tWide := wide.launch(t, mkKernel())
	if tWide >= tNarrow {
		t.Errorf("wide MSHRs (%d) not faster than single MSHR (%d)", tWide, tNarrow)
	}
	if narrow.g.Counters().Get("l1_mshr_stalls") == 0 {
		t.Error("no MSHR stalls with 1 MSHR and 16 warps")
	}
}

func TestEmptyKernelFiresDone(t *testing.T) {
	r := newRig(t, 1, 1, 4)
	done := false
	r.g.Launch(Kernel{Name: "empty"}, func() { done = true })
	r.e.Run()
	if !done {
		t.Error("empty kernel did not complete")
	}
}

func TestLaunchWhileRunningPanics(t *testing.T) {
	r := newRig(t, 1, 1, 4)
	r.g.Launch(Kernel{Name: "k", Warps: []Warp{{Ops: []WarpOp{{Kind: OpCompute, Gap: 10}}}}}, nil)
	defer func() {
		if recover() == nil {
			t.Error("second launch did not panic")
		}
	}()
	r.g.Launch(Kernel{Name: "k2", Warps: []Warp{{}}}, nil)
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero SMs did not panic")
		}
	}()
	New(sim.NewEngine(), Config{Name: "bad", SMs: 0, MaxWarpsPerSM: 1, MSHRsPerSM: 1}, nil, nil, nil)
}

func TestWarpsDistributedAcrossSMs(t *testing.T) {
	r := newRig(t, 4, 1, 8)
	var warps []Warp
	for i := 0; i < 8; i++ {
		warps = append(warps, Warp{Ops: []WarpOp{{Kind: OpShared}}})
	}
	r.launch(t, Kernel{Name: "k", Warps: warps})
	// All 4 SMs should have seen work: with 1 resident warp per SM and 8
	// warps, every SM runs exactly 2.
	if r.g.Counters().Get("shared_ops") != 8 {
		t.Error("not all warps executed")
	}
}

// Property: any kernel built from random small warps completes, with
// load/store line counts conserved and the memory controller idle.
func TestPropertyKernelsComplete(t *testing.T) {
	f := func(spec []uint16) bool {
		r := newRig(t, 2, 4, 4)
		var warps []Warp
		var wantLoads, wantStores uint64
		for _, s := range spec {
			var ops []WarpOp
			for j := 0; j < int(s%3)+1; j++ {
				a := memsys.Addr(0x10000) + memsys.Addr((int(s)+j)%16)*memsys.LineSize
				switch (int(s) + j) % 4 {
				case 0:
					ops = append(ops, WarpOp{Kind: OpCompute, Gap: sim.Tick(s % 50)})
				case 1:
					ops = append(ops, WarpOp{Kind: OpShared})
				case 2:
					ops = append(ops, WarpOp{Kind: OpGlobalLoad, Addr: a, Lines: 1})
					wantLoads++
				case 3:
					ops = append(ops, WarpOp{Kind: OpGlobalStore, Addr: a, Lines: 1})
					wantStores++
				}
			}
			warps = append(warps, Warp{Ops: ops})
		}
		if len(warps) == 0 {
			return true
		}
		done := false
		r.g.Launch(Kernel{Name: "p", Warps: warps}, func() { done = true })
		r.e.Run()
		return done &&
			r.g.Counters().Get("global_load_lines") == wantLoads &&
			r.g.Counters().Get("global_store_lines") == wantStores &&
			r.mem.Idle()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBarrierSynchronisesWarps(t *testing.T) {
	// Warp A computes briefly then waits at the barrier; warp B
	// computes for a long time. Both must pass the barrier together.
	r := newRig(t, 2, 4, 8)
	var passedAt []sim.Tick
	record := func() WarpOp { return WarpOp{Kind: OpShared} }
	_ = record
	k := Kernel{Name: "bar", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 10}, {Kind: OpBarrier}, {Kind: OpShared}}},
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 500}, {Kind: OpBarrier}, {Kind: OpShared}}},
	}}
	done := false
	r.g.Launch(k, func() { done = true; passedAt = append(passedAt, r.e.Now()) })
	r.e.Run()
	if !done {
		t.Fatal("barrier kernel did not complete")
	}
	// Completion must be after the slow warp's 500-tick compute: the
	// fast warp cannot have finished earlier.
	if r.e.Now() < 500 {
		t.Errorf("kernel completed at %d, before the slow warp reached the barrier", r.e.Now())
	}
	if r.g.Counters().Get("barrier_arrivals") != 2 {
		t.Errorf("barrier arrivals = %d, want 2", r.g.Counters().Get("barrier_arrivals"))
	}
}

func TestBarrierWithFinishedWarps(t *testing.T) {
	// One warp has no barrier and finishes early; the other two wait.
	// The barrier must release once the finished warp is accounted for.
	r := newRig(t, 2, 4, 8)
	k := Kernel{Name: "bar2", Warps: []Warp{
		{Ops: []WarpOp{{Kind: OpShared}}}, // no barrier, finishes
		{Ops: []WarpOp{{Kind: OpBarrier}, {Kind: OpShared}}},
		{Ops: []WarpOp{{Kind: OpCompute, Gap: 100}, {Kind: OpBarrier}, {Kind: OpShared}}},
	}}
	done := false
	r.g.Launch(k, func() { done = true })
	r.e.Run()
	if !done {
		t.Fatal("kernel with mixed barrier/no-barrier warps deadlocked")
	}
}

func TestBarrierOverCapacityPanics(t *testing.T) {
	r := newRig(t, 1, 2, 4) // capacity: 1 SM x 2 warps
	var warps []Warp
	for i := 0; i < 3; i++ {
		warps = append(warps, Warp{Ops: []WarpOp{{Kind: OpBarrier}}})
	}
	defer func() {
		if recover() == nil {
			t.Error("barrier kernel above residency accepted (would deadlock)")
		}
	}()
	r.g.Launch(Kernel{Name: "dead", Warps: warps}, nil)
}
