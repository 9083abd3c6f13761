package core

import (
	"strings"
	"testing"

	"dstore/internal/dram"

	"dstore/internal/cpu"
	"dstore/internal/gpu"
	"dstore/internal/memsys"
	"dstore/internal/sim"
	"dstore/internal/trace"
)

// smallConfig shrinks the machine so capacity effects are cheap to
// exercise: 64KB GPU L2 (16KB/slice), 64KB CPU L2, 4 SMs.
func smallConfig(mode Mode) Config {
	cfg := DefaultConfig(mode)
	cfg.CPUL2Bytes = 64 * 1024
	cfg.GPUL2Bytes = 64 * 1024
	cfg.GPUL2Ways = 8
	cfg.SMs = 4
	cfg.MaxWarpsPerSM = 8
	cfg.GPUL1Bytes = 4 * 1024
	return cfg
}

// produceOps returns CPU stores covering the region.
func produceOps(base memsys.Addr, bytes uint64) []cpu.Op {
	var ops []cpu.Op
	for _, a := range trace.SequentialLines(base, bytes) {
		ops = append(ops, cpu.Op{Type: memsys.Store, Addr: a})
	}
	return ops
}

// consumeKernel builds a kernel whose warps stream-read the region.
func consumeKernel(base memsys.Addr, bytes uint64, warps int) gpu.Kernel {
	lines := trace.SequentialLines(base, bytes)
	var ws []gpu.Warp
	for _, chunk := range trace.Chunk(lines, warps) {
		var ops []gpu.WarpOp
		for _, a := range chunk {
			ops = append(ops, gpu.WarpOp{Kind: gpu.OpGlobalLoad, Addr: a, Lines: 1})
		}
		ws = append(ws, gpu.Warp{Ops: ops})
	}
	return gpu.Kernel{Name: "consume", Warps: ws}
}

// runProduceConsume runs the canonical workload and returns total ticks.
func runProduceConsume(t *testing.T, s *System, bytes uint64) sim.Tick {
	t.Helper()
	base, err := s.AllocShared(bytes, "buf")
	if err != nil {
		t.Fatal(err)
	}
	total := s.RunCPU(produceOps(base, bytes))
	total += s.RunKernel(consumeKernel(base, bytes, 32))
	return total
}

func TestTableIConfigBuilds(t *testing.T) {
	s := NewSystem(DefaultConfig(ModeCCSM))
	if len(s.Slices) != 4 {
		t.Errorf("slices = %d, want 4", len(s.Slices))
	}
	if s.Slices[0].L2Cache().CapacityLines()*4*memsys.LineSize != 2*1024*1024 {
		t.Error("GPU L2 capacity is not 2MB across slices")
	}
	tbl := DefaultConfig(ModeCCSM).Table1().String()
	for _, want := range []string{"64KB", "2MB", "16 - 32 lanes", "2GB", "8 banks", "MOESI"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("Table I output missing %q:\n%s", want, tbl)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if ModeCCSM.String() != "ccsm" || ModeDirectStore.String() != "direct-store" ||
		ModeStandalone.String() != "standalone" {
		t.Error("mode names wrong")
	}
	if Mode(9).String() == "" {
		t.Error("unknown mode empty")
	}
	if ModeCCSM.DirectStoreEnabled() {
		t.Error("CCSM claims direct store")
	}
	if !ModeDirectStore.DirectStoreEnabled() || !ModeStandalone.DirectStoreEnabled() {
		t.Error("DS modes claim no direct store")
	}
}

func TestAllocSharedRespectsMode(t *testing.T) {
	ccsm := NewSystem(smallConfig(ModeCCSM))
	ds := NewSystem(smallConfig(ModeDirectStore))
	a1, _ := ccsm.AllocShared(4096, "x")
	a2, _ := ds.AllocShared(4096, "x")
	if memsysInDirect(a1) {
		t.Error("CCSM shared allocation landed in the direct region")
	}
	if !memsysInDirect(a2) {
		t.Error("DS shared allocation not in the direct region")
	}
	p, _ := ds.AllocPrivate(4096, "y")
	if memsysInDirect(p) {
		t.Error("private allocation landed in the direct region")
	}
}

func memsysInDirect(a memsys.Addr) bool {
	return a >= 0x0000_7f00_0000_0000
}

func TestDirectStoreBeatsCCSMOnStreaming(t *testing.T) {
	const bytes = 16 * 1024 // fits comfortably in the small GPU L2
	ccsm := NewSystem(smallConfig(ModeCCSM))
	ds := NewSystem(smallConfig(ModeDirectStore))
	tC := runProduceConsume(t, ccsm, bytes)
	tD := runProduceConsume(t, ds, bytes)

	if ds.PushesReceived() == 0 {
		t.Fatal("direct-store run pushed nothing")
	}
	if ccsm.PushesReceived() != 0 {
		t.Fatal("CCSM run pushed lines")
	}
	if ds.GPUL2Misses() >= ccsm.GPUL2Misses() {
		t.Errorf("DS misses %d not below CCSM misses %d", ds.GPUL2Misses(), ccsm.GPUL2Misses())
	}
	if tD >= tC {
		t.Errorf("DS runtime %d not below CCSM runtime %d", tD, tC)
	}
}

func TestCapacityDefeatsDirectStore(t *testing.T) {
	// Working set 8x the GPU L2: pushed lines are evicted before the
	// GPU reads them, so the DS miss advantage shrinks to near zero.
	const small = 16 * 1024
	const big = 512 * 1024
	missAdvantage := func(bytes uint64) float64 {
		ccsm := NewSystem(smallConfig(ModeCCSM))
		ds := NewSystem(smallConfig(ModeDirectStore))
		runProduceConsume(t, ccsm, bytes)
		runProduceConsume(t, ds, bytes)
		return ccsm.GPUL2MissRate() - ds.GPUL2MissRate()
	}
	smallAdv := missAdvantage(small)
	bigAdv := missAdvantage(big)
	if smallAdv <= 0 {
		t.Fatalf("no miss-rate advantage on cache-resident input (%v)", smallAdv)
	}
	if bigAdv >= smallAdv/2 {
		t.Errorf("advantage did not collapse beyond capacity: small=%v big=%v", smallAdv, bigAdv)
	}
}

func TestStandaloneModeRunsAndAvoidsCrossProbes(t *testing.T) {
	const bytes = 16 * 1024
	sa := NewSystem(smallConfig(ModeStandalone))
	runProduceConsume(t, sa, bytes)
	if sa.PushesReceived() == 0 {
		t.Error("standalone mode pushed nothing")
	}
	if got := sa.Mem.Counters().Get("probes_sent"); got != 0 {
		t.Errorf("standalone mode sent %d probes, want 0 (§III-H)", got)
	}
}

// gappedConsume interleaves compute with the loads, giving a prefetcher
// time to run ahead of demand.
func gappedConsume(base memsys.Addr, bytes uint64, warps int, gap sim.Tick) gpu.Kernel {
	lines := trace.SequentialLines(base, bytes)
	var ws []gpu.Warp
	for _, chunk := range trace.Chunk(lines, warps) {
		var ops []gpu.WarpOp
		for _, a := range chunk {
			ops = append(ops, gpu.WarpOp{Kind: gpu.OpCompute, Gap: gap})
			ops = append(ops, gpu.WarpOp{Kind: gpu.OpGlobalLoad, Addr: a, Lines: 1})
		}
		ws = append(ws, gpu.Warp{Ops: ops})
	}
	return gpu.Kernel{Name: "gapped", Warps: ws}
}

func TestPrefetcherReducesMissesOnStreaming(t *testing.T) {
	const bytes = 16 * 1024 // well under the 64KB GPU L2: no pollution
	run := func(depth int) *System {
		cfg := smallConfig(ModeCCSM)
		cfg.PrefetchDepth = depth
		s := NewSystem(cfg)
		base, err := s.AllocShared(bytes, "buf")
		if err != nil {
			t.Fatal(err)
		}
		s.RunCPU(produceOps(base, bytes))
		s.RunKernel(gappedConsume(base, bytes, 4, 400))
		return s
	}
	plain := run(0)
	pre := run(4)
	if pre.Counters().Get("l2_prefetches_issued") == 0 {
		t.Fatal("prefetcher idle")
	}
	if pre.GPUL2Misses() >= plain.GPUL2Misses() {
		t.Errorf("prefetching misses %d not below plain %d", pre.GPUL2Misses(), plain.GPUL2Misses())
	}
}

func TestDirectStoreBeatsPrefetchingOnProducerConsumer(t *testing.T) {
	// §IV: "we have also compared direct stores to prefetching and find
	// that direct store's performance improvements there are even
	// higher" — i.e. DS beats the prefetch-augmented baseline too.
	const bytes = 16 * 1024
	pf := smallConfig(ModeCCSM)
	pf.PrefetchDepth = 4
	pre := NewSystem(pf)
	ds := NewSystem(smallConfig(ModeDirectStore))
	tP := runProduceConsume(t, pre, bytes)
	tD := runProduceConsume(t, ds, bytes)
	if tD >= tP {
		t.Errorf("DS runtime %d not below prefetching runtime %d", tD, tP)
	}
}

func TestCPUReadbackOfKernelResults(t *testing.T) {
	// GPU writes a result buffer; CPU reads it back. In DS mode the
	// readback uses uncacheable remote loads.
	cfg := smallConfig(ModeDirectStore)
	s := NewSystem(cfg)
	base, _ := s.AllocShared(4096, "out")
	lines := trace.SequentialLines(base, 4096)
	var ops []gpu.WarpOp
	for _, a := range lines {
		ops = append(ops, gpu.WarpOp{Kind: gpu.OpGlobalStore, Addr: a, Lines: 1})
	}
	s.RunKernel(gpu.Kernel{Name: "write", Warps: []gpu.Warp{{Ops: ops}}})
	var rb []cpu.Op
	for _, a := range lines {
		rb = append(rb, cpu.Op{Type: memsys.Load, Addr: a})
	}
	s.RunCPU(rb)
	if s.Core.Counters().Get("remote_loads") != uint64(len(lines)) {
		t.Errorf("remote loads = %d, want %d", s.Core.Counters().Get("remote_loads"), len(lines))
	}
	if s.CPUCtrl.L2Cache().Counters().Get("accesses") != 0 {
		t.Error("readback went through the CPU cache")
	}
}

func TestOverlappedProduceConsume(t *testing.T) {
	s := NewSystem(smallConfig(ModeDirectStore))
	base, _ := s.AllocShared(8*1024, "buf")
	total := s.RunOverlapped(produceOps(base, 8*1024), consumeKernel(base, 8*1024, 8))
	if total == 0 {
		t.Fatal("overlapped run took no time")
	}
	if !s.Mem.Idle() {
		t.Error("memory controller busy after overlapped run")
	}
}

func TestCoherenceTrafficLowerUnderDirectStore(t *testing.T) {
	const bytes = 16 * 1024
	ccsm := NewSystem(smallConfig(ModeCCSM))
	ds := NewSystem(smallConfig(ModeDirectStore))
	runProduceConsume(t, ccsm, bytes)
	runProduceConsume(t, ds, bytes)
	if ds.CoherenceTrafficBytes() >= ccsm.CoherenceTrafficBytes() {
		t.Errorf("DS crossbar traffic %d not below CCSM %d",
			ds.CoherenceTrafficBytes(), ccsm.CoherenceTrafficBytes())
	}
	if ds.DirectTrafficBytes() == 0 {
		t.Error("DS moved nothing over the dedicated network")
	}
}

func TestSharedMemoryKernelInsensitiveToMode(t *testing.T) {
	// A kernel that stages once and then works out of shared memory
	// barely touches the L2 during compute: DS gains little (the BP/HT
	// effect for small inputs).
	const bytes = 8 * 1024
	mk := func(mode Mode) (sim.Tick, *System) {
		s := NewSystem(smallConfig(mode))
		base, _ := s.AllocShared(bytes, "buf")
		s.RunCPU(produceOps(base, bytes))
		lines := trace.SequentialLines(base, bytes)
		var ws []gpu.Warp
		for _, chunk := range trace.Chunk(lines, 16) {
			var ops []gpu.WarpOp
			for _, a := range chunk {
				ops = append(ops, gpu.WarpOp{Kind: gpu.OpGlobalLoad, Addr: a, Lines: 1})
			}
			// Heavy shared-memory compute after staging.
			for i := 0; i < 20*len(chunk); i++ {
				ops = append(ops, gpu.WarpOp{Kind: gpu.OpShared})
			}
			ws = append(ws, gpu.Warp{Ops: ops})
		}
		return s.RunKernel(gpu.Kernel{Name: "sharedk", Warps: ws}), s
	}
	tC, _ := mk(ModeCCSM)
	tD, _ := mk(ModeDirectStore)
	if tD >= tC {
		t.Errorf("DS kernel %d not faster than CCSM %d", tD, tC)
	}
	gain := float64(tC-tD) / float64(tC)
	if gain > 0.5 {
		t.Errorf("shared-memory kernel gained %.0f%% — staging should dominate", gain*100)
	}
}

func TestRingNoCProducesSameFunctionalResults(t *testing.T) {
	// The ring topology must be functionally equivalent to the
	// crossbar: same pushes, same misses, different (but sane) timing.
	run := func(noc string) (sim.Tick, uint64, uint64) {
		cfg := smallConfig(ModeDirectStore)
		cfg.NoC = noc
		s := NewSystem(cfg)
		ticks := runProduceConsume(t, s, 16*1024)
		return ticks, s.PushesReceived(), s.GPUL2Misses()
	}
	xt, xp, xm := run("xbar")
	rt, rp, rm := run("ring")
	if xp != rp || xm != rm {
		t.Errorf("topologies disagree functionally: pushes %d/%d misses %d/%d", xp, rp, xm, rm)
	}
	if rt == 0 || xt == 0 {
		t.Error("zero runtime")
	}
}

func TestUnknownNoCPanics(t *testing.T) {
	cfg := smallConfig(ModeCCSM)
	cfg.NoC = "torus"
	defer func() {
		if recover() == nil {
			t.Error("unknown NoC accepted")
		}
	}()
	NewSystem(cfg)
}

func TestFRFCFSSchedulerEndToEnd(t *testing.T) {
	cfg := smallConfig(ModeDirectStore)
	cfg.DRAM.Scheduler = dram.SchedFRFCFS
	s := NewSystem(cfg)
	ticks := runProduceConsume(t, s, 32*1024)
	if ticks == 0 {
		t.Fatal("no time elapsed")
	}
	if !s.Mem.Idle() {
		t.Error("memory controller busy after drain")
	}
	if s.GPUL2Misses() > s.GPUL2Accesses() {
		t.Error("impossible miss count")
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(ModeCCSM)
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"slices":  func(c *Config) { c.GPUL2Slices = 3 },
		"sms":     func(c *Config) { c.SMs = 0 },
		"noc":     func(c *Config) { c.NoC = "torus" },
		"mode":    func(c *Config) { c.Mode = Mode(9) },
		"sb":      func(c *Config) { c.StoreBuffer = 0 },
		"tlb":     func(c *Config) { c.CPUTLBSize = 0 },
		"memsize": func(c *Config) { c.MemBytes = 1024 },
	}
	for name, mut := range mutations {
		cfg := DefaultConfig(ModeCCSM)
		mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %s accepted", name)
		}
	}
}

// TestParseModeInvertsString requires ParseMode to resolve exactly the
// names Mode.String produces.
func TestParseModeInvertsString(t *testing.T) {
	for _, m := range []Mode{ModeCCSM, ModeDirectStore, ModeStandalone} {
		if got, ok := ParseMode(m.String()); !ok || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, ok, m)
		}
	}
	for _, bad := range []string{"", "CCSM", " ccsm", "Mode(3)", "direct_store"} {
		if _, ok := ParseMode(bad); ok {
			t.Errorf("ParseMode(%q) accepted a non-canonical name", bad)
		}
	}
}
