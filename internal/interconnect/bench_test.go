package interconnect

import (
	"testing"

	"dstore/internal/sim"
)

func noopDeliver(any, sim.Tick) {}

// benchCrossbar times one control-message send plus its share of the
// engine drain that delivers it, sending in bursts of 64. wire sets up
// the sender on a fresh crossbar and returns its per-message send.
func benchCrossbar(b *testing.B, wire func(x *Crossbar) func()) {
	e := sim.NewEngine()
	send := wire(NewCrossbar(e, "bench", 16, 32))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		send()
		if i%64 == 63 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkCrossbarSendArg sends by port name, resolving both names on
// every message.
func BenchmarkCrossbarSendArg(b *testing.B) {
	benchCrossbar(b, func(x *Crossbar) func() {
		return func() { x.SendArg("cpu", "mem", CtrlMsgBytes, noopDeliver, nil) }
	})
}

// BenchmarkCrossbarTransmitArg sends between ports resolved once at
// wiring, as the coherence controllers do.
func BenchmarkCrossbarTransmitArg(b *testing.B) {
	benchCrossbar(b, func(x *Crossbar) func() {
		src, dst := x.Port("cpu"), x.Port("mem")
		return func() { x.TransmitArg(src, dst, CtrlMsgBytes, noopDeliver, nil) }
	})
}
