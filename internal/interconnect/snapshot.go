package interconnect

import (
	"sort"

	"dstore/internal/sim"
	"dstore/internal/snap"
)

// SnapshotTo serialises the link's serialisation cursor and counters.
func (l *Link) SnapshotTo(w *snap.Writer) {
	w.Tag("link")
	w.String(l.name)
	w.I64(int64(l.nextFree))
	l.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the link's state from a snapshot.
func (l *Link) RestoreFrom(r *snap.Reader) {
	r.Tag("link")
	if name := r.String(); r.Err() == nil && name != l.name {
		r.Failf("interconnect %s: snapshot of link %q", l.name, name)
	}
	if r.Err() != nil {
		return
	}
	l.nextFree = sim.Tick(r.I64())
	l.counters.RestoreFrom(r)
}

// snapshotPorts serialises one direction of the crossbar's per-port
// free times: the ports that ever carried a message in that direction,
// sorted by name so the stream is independent of registration order.
func (x *Crossbar) snapshotPorts(w *snap.Writer, eject bool) {
	var used []int
	for i := range x.ports {
		if p := &x.ports[i]; (eject && p.outUsed) || (!eject && p.inUsed) {
			used = append(used, i)
		}
	}
	sort.Slice(used, func(a, b int) bool { return x.ports[used[a]].name < x.ports[used[b]].name })
	w.U32(uint32(len(used)))
	for _, i := range used {
		p := &x.ports[i]
		free := p.inFree
		if eject {
			free = p.outFree
		}
		w.String(p.name)
		w.I64(int64(free))
	}
}

// restorePorts reads one direction written by snapshotPorts,
// registering any port the crossbar has not seen yet. index maps the
// registered names to their ports, so a long stream restores in
// linear time.
func (x *Crossbar) restorePorts(r *snap.Reader, eject bool, index map[string]Port) {
	n := r.U32()
	for i := uint32(0); i < n && r.Err() == nil; i++ {
		name := r.String()
		free := sim.Tick(r.I64())
		if r.Err() != nil {
			return
		}
		pi, ok := index[name]
		if !ok {
			if len(x.ports) == maxPorts {
				r.Failf("interconnect %s: snapshot names more than %d ports", x.name, maxPorts)
				return
			}
			pi = x.addPort(name)
			index[name] = pi
		}
		p := &x.ports[pi]
		if eject {
			p.outFree, p.outUsed = free, true
		} else {
			p.inFree, p.inUsed = free, true
		}
	}
}

// SnapshotTo serialises per-port arbitration state and counters.
func (x *Crossbar) SnapshotTo(w *snap.Writer) {
	w.Tag("xbar")
	w.String(x.name)
	x.snapshotPorts(w, false)
	x.snapshotPorts(w, true)
	x.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the crossbar's state from a snapshot.
func (x *Crossbar) RestoreFrom(r *snap.Reader) {
	r.Tag("xbar")
	if name := r.String(); r.Err() == nil && name != x.name {
		r.Failf("interconnect %s: snapshot of crossbar %q", x.name, name)
	}
	if r.Err() != nil {
		return
	}
	index := make(map[string]Port, len(x.ports))
	for i := range x.ports {
		x.ports[i] = xbarPort{name: x.ports[i].name}
		index[x.ports[i].name] = Port(i)
	}
	x.restorePorts(r, false, index)
	x.restorePorts(r, true, index)
	x.counters.RestoreFrom(r)
}

// SnapshotTo serialises per-directed-link arbitration state and
// counters.
func (g *Ring) SnapshotTo(w *snap.Writer) {
	w.Tag("ring")
	w.String(g.name)
	w.U32(uint32(len(g.nodes)))
	for i := range g.nodes {
		w.I64(int64(g.cwFree[i]))
		w.I64(int64(g.ccwFree[i]))
	}
	g.counters.SnapshotTo(w)
}

// RestoreFrom overwrites the ring's state from a snapshot taken on a
// ring with the same node count.
func (g *Ring) RestoreFrom(r *snap.Reader) {
	r.Tag("ring")
	if name := r.String(); r.Err() == nil && name != g.name {
		r.Failf("interconnect %s: snapshot of ring %q", g.name, name)
	}
	if n := r.U32(); r.Err() == nil && int(n) != len(g.nodes) {
		r.Failf("interconnect %s: snapshot has %d nodes, ring has %d", g.name, n, len(g.nodes))
	}
	if r.Err() != nil {
		return
	}
	for i := range g.nodes {
		g.cwFree[i] = sim.Tick(r.I64())
		g.ccwFree[i] = sim.Tick(r.I64())
	}
	g.counters.RestoreFrom(r)
}
