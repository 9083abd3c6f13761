package core

import (
	"testing"

	"dstore/internal/memsys"
)

// TestCoherenceMissPathAllocFree pins the steady-state coherence miss
// path at zero allocations: GPU L2 load misses on a warmed CCSM
// system, each one a GETS to the ordering point, a probe to the CPU
// and its ack over the crossbar, a speculative DRAM read, the data
// reply and the unblock. Every message rides a pooled packet and every
// port and probe target is resolved at wiring, so nothing on the path
// may allocate.
func TestCoherenceMissPathAllocFree(t *testing.T) {
	sys := NewSystem(DefaultConfig(ModeCCSM))
	slice := sys.Slices[0]
	l2 := slice.L2Cache()
	// Lines homed in slice 0 that share one set: cycling through twice
	// the associativity makes every load miss under LRU.
	stride := memsys.Addr(sys.Cfg.GPUL2Slices*l2.NumSets()) * memsys.LineSize
	lines := make([]memsys.Addr, 2*sys.Cfg.GPUL2Ways)
	for i := range lines {
		lines[i] = memsys.Addr(i) * stride
	}
	reqs := make([]memsys.Request, len(lines))
	next := 0
	round := func() {
		for i := 0; i < 8; i++ {
			r := &reqs[next]
			*r = memsys.Request{Type: memsys.Load, Addr: lines[next]}
			slice.Access(r)
			next = (next + 1) % len(lines)
		}
		sys.Engine.Run()
	}
	for i := 0; i < 4*len(lines); i++ {
		round()
	}

	probes := sys.CPUCtrl.Counters().Get("probes_received")
	misses := l2.Counters().Get("misses")
	msgs := sys.Net.TotalMessages()
	const runs = 50
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Errorf("coherence miss path allocates %.1f times per round, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to the runs it measures.
	rounds := uint64(runs + 1)
	if got := l2.Counters().Get("misses") - misses; got != 8*rounds {
		t.Errorf("%d L2 misses over %d rounds, want %d: the rounds stopped missing", got, rounds, 8*rounds)
	}
	if got := sys.CPUCtrl.Counters().Get("probes_received") - probes; got != 8*rounds {
		t.Errorf("CPU received %d probes over %d rounds, want %d", got, rounds, 8*rounds)
	}
	if sys.Net.TotalMessages() == msgs {
		t.Error("no crossbar traffic during the measured rounds")
	}
}
