package interconnect

import (
	"bytes"
	"strings"
	"testing"

	"dstore/internal/sim"
	"dstore/internal/snap"
)

// TestCrossbarSnapshotRoundTrip checks the crossbar stream lists, per
// direction, exactly the ports that carried traffic, sorted by name
// whatever the registration order; that it restores into a crossbar
// with no ports wired; and that the restored arbitration state times
// the next message identically.
func TestCrossbarSnapshotRoundTrip(t *testing.T) {
	x := NewCrossbar(sim.NewEngine(), "x", 4, 8)
	for _, name := range []string{"mem", "idle", "gpu", "cpu"} {
		x.Port(name)
	}
	x.Send("cpu", "mem", DataMsgBytes, nil)
	x.Send("gpu", "mem", CtrlMsgBytes, nil)
	x.Send("mem", "cpu", DataMsgBytes, nil)

	w := &snap.Writer{}
	x.SnapshotTo(w)
	r := snap.NewReader(w.Bytes())
	r.Tag("xbar")
	if name := r.String(); name != "x" {
		t.Fatalf("snapshot of crossbar %q", name)
	}
	for _, want := range []string{"cpu gpu mem", "cpu mem"} {
		var got []string
		for n := r.U32(); n > 0; n-- {
			got = append(got, r.String())
			r.I64()
		}
		if strings.Join(got, " ") != want {
			t.Errorf("snapshot ports %q, want %q", got, want)
		}
	}

	y := NewCrossbar(sim.NewEngine(), "x", 4, 8)
	r = snap.NewReader(w.Bytes())
	y.RestoreFrom(r)
	if err := r.Done(); err != nil {
		t.Fatal(err)
	}
	again := &snap.Writer{}
	y.SnapshotTo(again)
	if !bytes.Equal(again.Bytes(), w.Bytes()) {
		t.Error("restored crossbar snapshots differently")
	}
	if a, b := x.Send("gpu", "cpu", DataMsgBytes, nil), y.Send("gpu", "cpu", DataMsgBytes, nil); a != b {
		t.Errorf("restored crossbar delivers at %d, original at %d", b, a)
	}
}
