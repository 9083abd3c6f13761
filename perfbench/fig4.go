package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"dstore/internal/bench"
	"dstore/internal/core"
	"dstore/internal/serve"
)

// The paper's §IV geomean speedups over the benchmarks with a non-zero
// gain, in percent, for small and big inputs.
const (
	paperGeomeanSmallPct = 7.8
	paperGeomeanBigPct   = 5.7
)

// simJob is one simulation of the Fig. 4 sweep.
type simJob struct {
	code string
	in   bench.Input
	mode core.Mode
}

func (j simJob) key() string { return fmt.Sprintf("%s %s %s", j.code, j.in, j.mode) }

// fig4Jobs is the full sweep: every Table II benchmark, both inputs,
// CCSM and direct store — 88 simulations.
func fig4Jobs() []simJob {
	var jobs []simJob
	for _, in := range []bench.Input{bench.Small, bench.Big} {
		for _, code := range bench.Codes() {
			for _, mode := range []core.Mode{core.ModeCCSM, core.ModeDirectStore} {
				jobs = append(jobs, simJob{code, in, mode})
			}
		}
	}
	return jobs
}

// simCounts are exact counters read from one finished system.
type simCounts struct {
	events, coherenceReqs, globalLoads, mshrStalls uint64
	l2Accesses, l2Misses                           uint64
	xbarMsgs, xbarBytes, directBytes               uint64
	dramAccesses, rowHits                          uint64
}

func (c *simCounts) add(o simCounts) {
	c.events += o.events
	c.coherenceReqs += o.coherenceReqs
	c.globalLoads += o.globalLoads
	c.mshrStalls += o.mshrStalls
	c.l2Accesses += o.l2Accesses
	c.l2Misses += o.l2Misses
	c.xbarMsgs += o.xbarMsgs
	c.xbarBytes += o.xbarBytes
	c.directBytes += o.directBytes
	c.dramAccesses += o.dramAccesses
	c.rowHits += o.rowHits
}

// simRun is one simulation's result and host-side timings.
type simRun struct {
	res    bench.Result
	enc    []byte
	setup  time.Duration // core.NewSystem + bench.Build
	total  time.Duration // setup through result encoding
	counts simCounts
}

// runSim builds a fresh system (modelled caches start empty, as in the
// paper), runs every phase, checks coherence and encodes the result —
// the same steps as bench.RunWithConfigContext, timed from outside.
func runSim(ctx context.Context, j simJob, spans *spanLog, parent int) (simRun, error) {
	var out simRun
	cfg := core.DefaultConfig(j.mode)
	root := spans.begin("sim "+j.key(), parent)
	defer spans.end(root)

	t0 := time.Now()
	sp := spans.begin("core.NewSystem", root)
	sys := core.NewSystem(cfg)
	spans.end(sp)
	sp = spans.begin("bench.Build", root)
	w, err := bench.Build(sys, j.code, j.in)
	spans.end(sp)
	out.setup = time.Since(t0)
	if err != nil {
		return out, err
	}
	start := sys.Now()
	sp = spans.begin("bench.produce", root)
	produce, err := w.RunPhaseRangeContext(ctx, sys, 0, 1)
	spans.end(sp)
	if err != nil {
		return out, err
	}
	sp = spans.begin("bench.kernels", root)
	rest, err := w.RunPhaseRangeContext(ctx, sys, 1, w.Phases())
	spans.end(sp)
	if err != nil {
		return out, err
	}
	sp = spans.begin("core.CheckCoherence", root)
	err = sys.CheckCoherence()
	spans.end(sp)
	if err != nil {
		return out, fmt.Errorf("coherence: %w", err)
	}
	out.res = bench.Result{
		Code: j.code, Mode: j.mode, In: j.in,
		Ticks:       sys.Now() - start,
		PhaseTicks:  append(produce, rest...),
		L2Accesses:  sys.GPUL2Accesses(),
		L2Misses:    sys.GPUL2Misses(),
		MissRate:    sys.GPUL2MissRate(),
		Pushes:      sys.PushesReceived(),
		XbarBytes:   sys.CoherenceTrafficBytes(),
		DirectBytes: sys.DirectTrafficBytes(),
	}
	sp = spans.begin("serve.EncodeResult", root)
	out.enc, err = serve.EncodeResult(out.res)
	spans.end(sp)
	if err != nil {
		return out, err
	}
	out.total = time.Since(t0)

	dc := sys.DRAM.Counters()
	out.counts = simCounts{
		events:        sys.Engine.Executed(),
		coherenceReqs: sys.Mem.Counters().Get("requests"),
		globalLoads:   sys.GPU.Counters().Get("global_load_lines"),
		mshrStalls:    sys.GPU.Counters().Get("l1_mshr_stalls"),
		l2Accesses:    sys.GPUL2Accesses(),
		l2Misses:      sys.GPUL2Misses(),
		xbarMsgs:      sys.Net.TotalMessages(),
		xbarBytes:     sys.CoherenceTrafficBytes(),
		directBytes:   sys.DirectTrafficBytes(),
		dramAccesses:  dc.Get("reads") + dc.Get("writes"),
		rowHits:       dc.Get("row_hits"),
	}
	return out, nil
}

// fig4Sweep is one pass over the sweep's simulations.
type fig4Sweep struct {
	wall   time.Duration
	setup  time.Duration
	perSim map[string]float64 // host µs per simulation, by simJob.key
	counts simCounts
	// geomean speedups (fractions), per input
	geoSmall, geoBig float64
}

// sweepFig4 runs jobs in order on the calling goroutine and checks
// every output: its encoding against the pinned digest and, for small
// inputs, byte for byte against the serve package's golden file; and
// the two geomeans against their pinned values.
func sweepFig4(ctx context.Context, r *runner, jobs []simJob, pins *fig4Pins, golden map[string][]byte) (fig4Sweep, error) {
	sw := fig4Sweep{perSim: map[string]float64{}}
	root := r.spans.begin("fig4 sweep", 0)
	defer r.spans.end(root)
	results := map[string]bench.Result{}
	t0 := time.Now()
	for _, j := range jobs {
		r.attempted++
		// Each simulation starts from a collected heap, as it would in
		// a process of its own, so the previous one's garbage is not
		// charged to it. The collection stays inside the sweep's wall.
		runtime.GC()
		run, err := runSim(ctx, j, r.spans, root)
		if ctx.Err() != nil {
			return sw, ctx.Err()
		}
		if err != nil {
			r.fail("%s: %v", j.key(), err)
			continue
		}
		sw.setup += run.setup
		sw.perSim[j.key()] = float64(run.total) / 1e3
		sw.counts.add(run.counts)
		results[j.key()] = run.res
		sum := sha256.Sum256(run.enc)
		if want, ok := pins.digests[j.key()]; !ok || want != hex.EncodeToString(sum[:]) {
			r.fail("%s: result digest %x differs from the pinned one", j.key(), sum[:8])
			continue
		}
		if j.in == bench.Small {
			if g, ok := golden[j.code+" "+j.mode.String()]; !ok || string(g) != string(run.enc) {
				r.fail("%s: result differs from internal/serve/testdata/golden_small.jsonl", j.key())
			}
		}
	}
	sw.wall = time.Since(t0)
	sw.geoSmall, sw.geoBig = fig4Geomeans(results)
	if pins.complete(jobs) && (sw.geoSmall != pins.geoSmall || sw.geoBig != pins.geoBig) {
		r.fail("geomean speedups %.17g/%.17g differ from the pinned %.17g/%.17g",
			sw.geoSmall, sw.geoBig, pins.geoSmall, pins.geoBig)
	}
	return sw, nil
}

// fig4Geomeans computes Fig. 4's rightmost bars from a full set of
// results; a missing pair leaves that input's geomean at 0.
func fig4Geomeans(results map[string]bench.Result) (small, big float64) {
	geo := func(in bench.Input) float64 {
		var cs []bench.Comparison
		for _, code := range bench.Codes() {
			c := bench.Comparison{Code: code, In: in}
			var ok1, ok2 bool
			c.CCSM, ok1 = results[simJob{code, in, core.ModeCCSM}.key()]
			c.DS, ok2 = results[simJob{code, in, core.ModeDirectStore}.key()]
			if !ok1 || !ok2 {
				return 0
			}
			cs = append(cs, c)
		}
		return bench.GeomeanSpeedup(cs)
	}
	return geo(bench.Small), geo(bench.Big)
}

// geomeanErrPP is the accuracy metric: how far the reproduction's
// geomeans sit from the paper's, in percentage points.
func geomeanErrPP(small, big float64) float64 {
	return math.Abs(100*small-paperGeomeanSmallPct) + math.Abs(100*big-paperGeomeanBigPct)
}

// shuffled returns the sweep in a seed-chosen order; the set of
// simulations, and so the work, is the same for every seed.
func shuffled(jobs []simJob, seed int64) []simJob {
	out := append([]simJob(nil), jobs...)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// fig4MinSweeps is the fewest whole sweeps a fig4-seq run makes, so
// that each simulation's time is a median over more than one run.
const fig4MinSweeps = 2

// runFig4 is the fig4-seq workload: whole sweeps, one after another,
// while the time budget lasts (at least fig4MinSweeps), each in its
// own seed-chosen order.
func runFig4(ctx context.Context, r *runner) error {
	return fig4Workload(ctx, r, fig4Jobs())
}

func fig4Workload(ctx context.Context, r *runner, all []simJob) error {
	pins, err := loadFig4Pins()
	if err != nil {
		return err
	}
	golden, err := loadGolden(r.root)
	if err != nil {
		return err
	}
	var sweeps []fig4Sweep
	var walls, setups []float64
	start := time.Now()
	r.timedStart()
	defer r.timedStop(ctx)
	for i := 0; ; i++ {
		sw, err := sweepFig4(ctx, r, shuffled(all, r.seed+int64(i)*7919), pins, golden)
		if err != nil {
			return err
		}
		r.unitDone()
		sweeps = append(sweeps, sw)
		walls = append(walls, sw.wall.Seconds())
		setups = append(setups, sw.setup.Seconds())
		if len(sweeps) >= fig4MinSweeps && r.deadline(start, sw.wall) {
			break
		}
	}
	// A simulation's latency is its median over the sweeps; the
	// percentiles run over those medians.
	var perSim []float64
	for _, j := range all {
		var xs []float64
		for _, sw := range sweeps {
			if v, ok := sw.perSim[j.key()]; ok {
				xs = append(xs, v)
			}
		}
		if len(xs) > 0 {
			perSim = append(perSim, median(xs))
		}
	}
	wall := median(walls)
	r.set("jobs_per_s", float64(len(all))/wall)
	r.set("p50_us", percentile(perSim, 0.50))
	r.set("p99_us", percentile(perSim, 0.99))
	r.set("setup_s", median(setups))
	last := sweeps[len(sweeps)-1]
	r.note("sweeps", len(sweeps))
	r.note("simulations_per_sweep", len(all))
	r.note("latency_samples", len(perSim))
	r.note("latency_definition", "host time of one simulation, including system construction; median over the sweeps")
	r.note("fig4_wall_s", wall)
	r.note("fig4_geomean_small", last.geoSmall)
	r.note("fig4_geomean_big", last.geoBig)
	if last.geoSmall != 0 && last.geoBig != 0 {
		r.note("fig4_geomean_err_pp", geomeanErrPP(last.geoSmall, last.geoBig))
	}
	if r.trace {
		fig4Layers(r, last, len(sweeps))
	}
	return nil
}

// fig4Layers fills the traced run's simulator breakdown from the last
// sweep's counters and the per-sweep average of the benchmark's spans.
func fig4Layers(r *runner, sw fig4Sweep, sweeps int) {
	c := sw.counts
	perSweep := func(name string) float64 { return r.spans.total(name).Seconds() / float64(sweeps) }
	r.set("sim.events", float64(c.events))
	r.set("sim.host_ns_per_event", float64(sw.wall.Nanoseconds())/float64(c.events))
	r.set("coherence.requests", float64(c.coherenceReqs))
	r.set("coherence.check_s", perSweep("core.CheckCoherence"))
	r.set("gpu.global_load_lines", float64(c.globalLoads))
	r.set("gpu.l1_mshr_stalls", float64(c.mshrStalls))
	r.set("cache.gpu_l2_accesses", float64(c.l2Accesses))
	r.set("cache.gpu_l2_miss_rate", ratio(float64(c.l2Misses), float64(c.l2Accesses)))
	r.set("interconnect.xbar_msgs", float64(c.xbarMsgs))
	r.set("interconnect.xbar_bytes", float64(c.xbarBytes))
	r.set("interconnect.direct_bytes", float64(c.directBytes))
	r.set("dram.accesses", float64(c.dramAccesses))
	r.set("dram.row_hit_rate", ratio(float64(c.rowHits), float64(c.dramAccesses)))
	r.set("core.new_system_s", perSweep("core.NewSystem"))
	r.set("bench.build_s", perSweep("bench.Build"))
	r.set("bench.produce_s", perSweep("bench.produce"))
	r.set("bench.kernel_s", perSweep("bench.kernels"))
}
