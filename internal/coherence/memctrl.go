package coherence

import (
	"fmt"

	"strings"

	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memsys"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// MemCtrl is the memory controller and coherence ordering point. It
// serialises transactions per line, broadcasts probes to the peer
// caches that could hold a copy (Hammer has no directory), collects
// acknowledgements, sources data from the owning cache or DRAM, and
// applies writebacks.
type MemCtrl struct {
	engine *sim.Engine
	name   string
	xbar   interconnect.Network
	port   interconnect.Port
	dram   *dram.DRAM

	// peers holds the registered cache controllers, indexed by their
	// network port (nil where a port is not a peer).
	peers []*Ctrl
	// probeRows is the broadcast table precomputed from Probes: row s
	// holds the CPU's port and GPU L2 slice s's port. Empty means no
	// cross-probes.
	probeRows [][2]interconnect.Port

	// proto is the registered protocol flavour whose invariant set
	// CheckInvariants evaluates (see registry.go); nil defaults to heap.
	proto *Protocol

	// busy and dramVer are dense per-line tables (see lineTab); queued
	// stays a map — it only holds lines with a transaction collision.
	busy      lineTab[*txn]
	busyCount int
	queued    map[memsys.Addr][]ReqMsg
	dramVer   lineTab[uint64]

	// pkts is the shared coherence packet pool (see pkt.go); txnPool
	// recycles transactions.
	pkts    []*pkt
	txnPool []*txn

	// regions, when non-nil, filters probes HSC-style (see
	// RegionDirectory).
	regions *RegionDirectory

	// Per-transaction watchdog (EnableWatchdog). wdInterval zero means
	// disabled: no scan events are ever scheduled, so the event
	// sequence is untouched.
	wdInterval sim.Tick
	wdLimit    sim.Tick
	wdOnStuck  func(error)
	wdArmed    bool
	wdTripped  bool

	// Observability (AttachObserver): nil in normal operation.
	obs   *obs.Observer
	obsID obs.CompID

	counters  *stats.Set
	requests  *stats.Counter
	reqGETS   *stats.Counter
	reqGETX   *stats.Counter
	reqWB     *stats.Counter
	reqRemote *stats.Counter
	probes    *stats.Counter
	wbs       *stats.Counter
	fromPeer  *stats.Counter
	fromDRAM  *stats.Counter
}

type txn struct {
	req        ReqMsg
	started    sim.Tick
	acksWanted int
	acks       []AckMsg
	// gen is bumped when the transaction is recycled, so a speculative
	// DRAM read that outlives its transaction (pkDramDone) can detect
	// that its txn pointer is stale and fizzle.
	gen uint64
	// Speculative-fetch bookkeeping: Hammer launches the DRAM read in
	// parallel with the probes and discards it if an owner responds.
	probesClean bool // all acks in, no owner
	dramDone    bool
	dataSent    bool
	// unblocked records the requester's completion notice. The
	// transaction closes only once BOTH the unblock and every expected
	// probe ack have arrived: on a fault-free fabric acks always beat
	// the unblock (the requester's data leaves the owner before its
	// ack), but injected delivery jitter can invert the race, and a
	// straggling ack must not leak into the next transaction on the
	// line.
	unblocked bool
}

// Probes names the agents the ordering point broadcasts probes to.
// Hammer has no directory: a request probes the CPU cache complex and
// the GPU L2 slice homing the line (lines interleave over Slices as
// memsys.SliceFor assigns them), minus the requester itself. The zero
// value probes nobody — §III-H standalone, where shared data lives
// only in the GPU L2.
type Probes struct {
	CPU    string
	Slices []string
}

// NewMemCtrl builds the controller on port name of xbar, resolving the
// broadcast set once into a per-slice port table.
func NewMemCtrl(engine *sim.Engine, name string, xbar interconnect.Network, d *dram.DRAM, probes Probes) *MemCtrl {
	m := &MemCtrl{
		engine:   engine,
		name:     name,
		xbar:     xbar,
		port:     xbar.Port(name),
		dram:     d,
		queued:   make(map[memsys.Addr][]ReqMsg),
		counters: stats.NewSet(),
	}
	if len(probes.Slices) > 0 {
		cpu := xbar.Port(probes.CPU)
		for _, sl := range probes.Slices {
			m.probeRows = append(m.probeRows, [2]interconnect.Port{cpu, xbar.Port(sl)})
		}
	}
	m.requests = m.counters.Counter("requests")
	m.reqGETS = m.counters.Counter("requests_gets")
	m.reqGETX = m.counters.Counter("requests_getx")
	m.reqWB = m.counters.Counter("requests_wb")
	m.reqRemote = m.counters.Counter("requests_remote_load")
	m.probes = m.counters.Counter("probes_sent")
	m.wbs = m.counters.Counter("writebacks")
	m.fromPeer = m.counters.Counter("data_from_peer")
	m.fromDRAM = m.counters.Counter("data_from_dram")
	return m
}

// Name returns the controller's crossbar port name.
func (m *MemCtrl) Name() string { return m.name }

// Counters exposes the controller's statistics.
func (m *MemCtrl) Counters() *stats.Set { return m.counters }

// AddPeer registers a cache controller so probes and data can be
// delivered to it.
func (m *MemCtrl) AddPeer(c *Ctrl) {
	for int(c.port) >= len(m.peers) {
		m.peers = append(m.peers, nil)
	}
	m.peers[c.port] = c
}

// portName resolves an agent's port for traces, dumps and error text.
func (m *MemCtrl) portName(p interconnect.Port) string { return m.xbar.PortName(p) }

// probeTargets returns the ports to probe for a line, excluding the
// requester: a window onto the precomputed row, so it never allocates.
func (m *MemCtrl) probeTargets(line memsys.Addr, requester interconnect.Port) []interconnect.Port {
	if len(m.probeRows) == 0 {
		return nil
	}
	row := m.probeRows[memsys.SliceFor(line, len(m.probeRows))][:]
	switch requester {
	case row[0]:
		return row[1:]
	case row[1]:
		return row[:1]
	}
	return row
}

// AttachRegionDirectory enables HSC-style probe filtering.
func (m *MemCtrl) AttachRegionDirectory(r *RegionDirectory) { m.regions = r }

// AttachObserver connects the ordering point to the observability
// layer: probe, grant and data sends record against its component.
func (m *MemCtrl) AttachObserver(o *obs.Observer) {
	if o == nil {
		return
	}
	m.obs = o
	m.obsID = o.Component(m.name)
}

// MemVer returns the version memory holds for a line (the oracle's view
// of DRAM contents).
func (m *MemCtrl) MemVer(a memsys.Addr) uint64 { return *m.dramVer.at(memsys.LineAlign(a)) }

// ReceiveRequest is invoked when a request message arrives (the caller
// has already paid the network delay).
func (m *MemCtrl) ReceiveRequest(req ReqMsg) {
	m.requests.Inc()
	switch req.Type {
	case GETS:
		m.reqGETS.Inc()
	case GETX:
		m.reqGETX.Inc()
	case WB:
		m.reqWB.Inc()
	case RemoteLoad:
		m.reqRemote.Inc()
	}
	line := memsys.LineAlign(req.Addr)
	req.Addr = line
	if *m.busy.at(line) != nil {
		m.queued[line] = append(m.queued[line], req)
		return
	}
	m.start(req)
}

// newTxn draws a transaction from the pool; the generation survives
// recycling (see txn.gen).
func (m *MemCtrl) newTxn(req ReqMsg) *txn {
	var t *txn
	if n := len(m.txnPool); n > 0 {
		t = m.txnPool[n-1]
		m.txnPool = m.txnPool[:n-1]
		t.req = req
		t.started = m.engine.Now()
		t.acksWanted = 0
		t.acks = t.acks[:0]
		t.probesClean, t.dramDone, t.dataSent, t.unblocked = false, false, false, false
	} else {
		t = &txn{req: req, started: m.engine.Now()}
	}
	return t
}

// specFetch launches the DRAM read racing the probes; the completion
// packet pins the transaction generation so a read outliving its
// transaction fizzles instead of corrupting the txn's successor.
func (m *MemCtrl) specFetch(line memsys.Addr, t *txn) {
	pk := m.pkt(pkDramDone)
	pk.t, pk.gen = t, t.gen
	m.dram.AccessArg(line, false, runPkt, pk)
}

func (m *MemCtrl) start(req ReqMsg) {
	line := req.Addr
	t := m.newTxn(req)
	*m.busy.at(line) = t
	m.busyCount++
	m.armWatchdog()

	if req.Type == WB {
		m.wbs.Inc()
		*m.dramVer.at(line) = req.Ver
		pk := m.pkt(pkWBDone)
		pk.rmsg = req
		m.dram.AccessArg(line, true, runPkt, pk)
		return
	}

	targets := m.probeTargets(line, req.From)
	if m.regions != nil && len(targets) > 0 && m.regions.Filter(line, m.portName(req.From), req.Type) {
		targets = nil
	}
	if len(targets) == 0 {
		t.probesClean = true
		if req.Type == GETX {
			m.sendGrant(t, *m.dramVer.at(line))
			return
		}
		m.specFetch(line, t)
		return
	}
	t.acksWanted = len(targets)
	kind, ok := ProbeFor(req.Type)
	if !ok {
		panic(fmt.Sprintf("coherence: no probe kind for %v", req.Type))
	}
	if req.Type != GETX {
		// Speculative memory fetch (the Opteron/Hammer hallmark): the
		// DRAM read races the probes; an owner response wins and the
		// memory data is dropped — bandwidth spent either way.
		m.specFetch(line, t)
	}
	for _, tgt := range targets {
		m.probes.Inc()
		if m.obs != nil {
			m.obs.Msg(m.engine.Now(), m.obsID, obs.MsgProbe, line, m.obs.Component(m.portName(tgt)))
		}
		pk := m.pkt(pkRecvProbe)
		pk.c = m.peers[tgt]
		pk.probe = ProbeMsg{Kind: kind, Addr: line, Requester: req.From}
		m.xbar.TransmitArg(m.port, tgt, interconnect.CtrlMsgBytes, runPkt, pk)
	}
}

// writebackCommitted fires when DRAM has committed a writeback: it
// notifies the writer (so its writeback buffer entry clears) and closes
// the transaction.
func (m *MemCtrl) writebackCommitted(req ReqMsg) {
	pk := m.pkt(pkWBCommit)
	pk.rmsg = req
	m.xbar.TransmitArg(m.port, req.From, interconnect.CtrlMsgBytes, runPkt, pk)
	m.finish(req.Addr)
}

// maybeSendFromMemory forwards DRAM data once both the probes have come
// back clean and the speculative read has completed.
func (m *MemCtrl) maybeSendFromMemory(t *txn) {
	if t.dataSent || !t.probesClean || !t.dramDone {
		return
	}
	t.dataSent = true
	m.fromDRAM.Inc()
	m.sendData(t, *m.dramVer.at(t.req.Addr))
}

// ReceiveAck collects a probe acknowledgement. Hammer is 3-hop: an
// owner has already sent the data straight to the requester, so the
// controller only sources DRAM when nobody owned the line.
func (m *MemCtrl) ReceiveAck(a AckMsg) {
	line := memsys.LineAlign(a.Addr)
	t := *m.busy.at(line)
	if t == nil {
		panic(fmt.Sprintf("coherence: ack for idle line %#x", uint64(line)))
	}
	t.acks = append(t.acks, a)
	if len(t.acks) < t.acksWanted {
		return
	}
	defer m.maybeFinish(line, t)
	for i := range t.acks {
		if t.acks[i].HadData {
			// Owner-to-requester transfer already in flight; the
			// speculative DRAM read (if any) is discarded.
			m.fromPeer.Inc()
			return
		}
	}
	t.probesClean = true
	if t.req.Type == GETX {
		// No owner: the simulator's stores are line-granular, so the
		// write fully overwrites the line and a fetch-on-write would
		// be wasted bandwidth (write-combining / WriteInvalidate
		// semantics); the grant travels as a control message.
		m.sendGrant(t, *m.dramVer.at(t.req.Addr))
		return
	}
	m.maybeSendFromMemory(t)
}

// sendGrant delivers write permission without data (full-line write).
func (m *MemCtrl) sendGrant(t *txn, ver uint64) {
	d := DataMsg{Addr: t.req.Addr, Ver: ver, Grant: GrantState(GETX, false, false)}
	requester := t.req.From
	if m.obs != nil {
		m.obs.Msg(m.engine.Now(), m.obsID, obs.MsgGrant, d.Addr, m.obs.Component(m.portName(requester)))
	}
	pk := m.pkt(pkRecvData)
	pk.c, pk.data = m.peers[requester], d
	m.xbar.TransmitArg(m.port, requester, interconnect.CtrlMsgBytes, runPkt, pk)
}

// anySharer reports whether a probe ack showed a surviving shared copy
// (possible only for GETS; GETX probes invalidate).
func (m *MemCtrl) anySharer(t *txn) bool {
	if t.req.Type != GETS {
		return false
	}
	for _, a := range t.acks {
		if a.Present || a.HadData {
			return true
		}
	}
	return false
}

// sendData delivers memory-sourced data to the requester with the
// right grant.
func (m *MemCtrl) sendData(t *txn, ver uint64) {
	// GETX → MM; GETS → S if a copy survived, else exclusive-clean M
	// (the Hammer grant); RemoteLoad → I (uncacheable, no install).
	grant := GrantState(t.req.Type, false, m.anySharer(t))
	d := DataMsg{Addr: t.req.Addr, Ver: ver, Grant: grant}
	requester := t.req.From
	if m.obs != nil {
		m.obs.Msg(m.engine.Now(), m.obsID, obs.MsgData, d.Addr, m.obs.Component(m.portName(requester)))
	}
	pk := m.pkt(pkRecvData)
	pk.c, pk.data = m.peers[requester], d
	m.xbar.TransmitArg(m.port, requester, interconnect.DataMsgBytes, runPkt, pk)
}

// ReceiveUnblock records the requester's completion notice and closes
// the transaction once every expected ack has also arrived.
func (m *MemCtrl) ReceiveUnblock(a memsys.Addr) {
	line := memsys.LineAlign(a)
	t := *m.busy.at(line)
	if t == nil {
		panic(fmt.Sprintf("coherence: unblock for idle line %#x", uint64(line)))
	}
	t.unblocked = true
	m.maybeFinish(line, t)
}

func (m *MemCtrl) maybeFinish(line memsys.Addr, t *txn) {
	if t.unblocked && len(t.acks) >= t.acksWanted {
		m.finish(line)
	}
}

func (m *MemCtrl) finish(line memsys.Addr) {
	tp := m.busy.at(line)
	t := *tp
	if t == nil {
		panic(fmt.Sprintf("coherence: finish on idle line %#x", uint64(line)))
	}
	*tp = nil
	m.busyCount--
	// Invalidate any speculative-fetch packet still in flight for this
	// transaction, then recycle it.
	t.gen++
	m.txnPool = append(m.txnPool, t)
	if q := m.queued[line]; len(q) > 0 {
		next := q[0]
		if len(q) == 1 {
			delete(m.queued, line)
		} else {
			m.queued[line] = q[1:]
		}
		// Start in a fresh event so completion cascades settle first.
		pk := m.pkt(pkStart)
		pk.rmsg = next
		m.engine.ScheduleArg(0, runPkt, pk)
	}
}

// Idle reports whether no transaction is in flight (test hook).
func (m *MemCtrl) Idle() bool { return m.busyCount == 0 }

// EnableWatchdog arms the per-transaction watchdog: every interval
// ticks (while transactions are in flight) the controller scans its
// busy set, and a transaction older than limit fails the run through
// onStuck with a full transaction dump — turning a would-be hang into a
// diagnosis. A nil onStuck panics instead. The scan is self-limiting:
// it only reschedules while transactions remain in flight, so a
// drained system still drains and the watchdog never keeps the event
// queue alive on its own.
func (m *MemCtrl) EnableWatchdog(interval, limit sim.Tick, onStuck func(error)) {
	if interval <= 0 || limit <= 0 {
		panic(fmt.Sprintf("coherence: non-positive watchdog interval %d / limit %d", interval, limit))
	}
	m.wdInterval = interval
	m.wdLimit = limit
	m.wdOnStuck = onStuck
	m.armWatchdog()
}

func (m *MemCtrl) armWatchdog() {
	if m.wdInterval == 0 || m.wdArmed || m.wdTripped || m.busyCount == 0 {
		return
	}
	m.wdArmed = true
	m.engine.Schedule(m.wdInterval, m.watchdogScan)
}

func (m *MemCtrl) watchdogScan() {
	m.wdArmed = false
	if m.wdTripped || m.busyCount == 0 {
		return
	}
	now := m.engine.Now()
	for _, line := range m.busyLines() {
		t := *m.busy.at(line)
		if age := now - t.started; age > m.wdLimit {
			m.wdTripped = true
			err := fmt.Errorf(
				"coherence: transaction for line %#x (%s from %s) stuck for %d ticks (limit %d)\n%s",
				uint64(line), t.req.Type, m.portName(t.req.From), age, m.wdLimit, m.TransactionDump())
			if m.wdOnStuck == nil {
				panic(err)
			}
			m.wdOnStuck(err)
			return
		}
	}
	m.armWatchdog()
}

// busyLines returns the in-flight lines in address order, so every dump
// and scan is deterministic. The dense table scans in ascending line
// number, which IS address order — no sort needed.
func (m *MemCtrl) busyLines() []memsys.Addr {
	lines := make([]memsys.Addr, 0, m.busyCount)
	for i, t := range m.busy.v {
		if t != nil {
			lines = append(lines, memsys.Addr(uint64(i)<<memsys.LineShift))
		}
	}
	return lines
}

// TransactionDump renders every in-flight transaction and its queue in
// address order: the diagnosis attached to watchdog trips and push
// retry exhaustion.
func (m *MemCtrl) TransactionDump() string {
	var b strings.Builder
	now := m.engine.Now()
	fmt.Fprintf(&b, "transaction dump at tick %d: %d in flight\n", now, m.busyCount)
	for _, line := range m.busyLines() {
		t := *m.busy.at(line)
		fmt.Fprintf(&b,
			"  line %#x: %s from %s, age %d, acks %d/%d, probesClean=%v dramDone=%v dataSent=%v, %d queued\n",
			uint64(line), t.req.Type, m.portName(t.req.From), now-t.started, len(t.acks), t.acksWanted,
			t.probesClean, t.dramDone, t.dataSent, len(m.queued[line]))
	}
	return b.String()
}
