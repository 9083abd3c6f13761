package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"dstore/internal/bench"
	"dstore/internal/cache"
	"dstore/internal/core"
	"dstore/internal/dram"
	"dstore/internal/interconnect"
	"dstore/internal/memalloc"
	"dstore/internal/memsys"
	"dstore/internal/mmu"
	"dstore/internal/serve"
	"dstore/internal/sim"
	"dstore/internal/store"
)

// runTraced is the --trace 1 run. It never produces the timed numbers:
// it runs the workload once untraced (half the budget) as the
// reference for the tracing overhead, then again with the CPU profile,
// the benchmark's spans and (for the fleet) the programs' own span
// clocks on, and finally the layer microbenchmarks.
func runTraced(ctx context.Context, w workload, r *runner) error {
	half := r.seconds / 2
	if half < time.Second {
		half = time.Second
	}
	ref := &runner{
		name: r.name, seed: r.seed, seconds: half, root: r.root, out: r.out,
		work:    filepath.Join(r.work, "reference"),
		metrics: map[string]float64{}, notes: map[string]any{},
	}
	if err := w.run(ctx, ref); err != nil {
		return err
	}
	r.seconds = half
	if err := os.MkdirAll(r.out, 0o755); err != nil {
		return err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := w.run(ctx, r)
	runtime.ReadMemStats(&after)
	r.timedStop(ctx)
	if err != nil {
		return err
	}
	if r.profErr != nil {
		return r.profErr
	}
	if r.pkgs == nil {
		return fmt.Errorf("the workload never started its CPU profile")
	}
	for name, v := range bucketShares(r.pkgs) {
		r.set(name, v)
	}
	r.set("runtime.alloc_mb", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	r.set("dtrace.trace_overhead", ref.metrics["jobs_per_s"]/r.metrics["jobs_per_s"])
	r.note("package_shares", r.pkgs)
	r.note("cpu_profile", r.artifact("cpu.pprof"))

	r.attempted += ref.attempted
	r.failed += ref.failed
	r.failures = append(ref.failures, r.failures...)

	if err := runMicro(ctx, r); err != nil {
		return err
	}
	if n := r.spans.open(); n != 0 {
		return fmt.Errorf("%d benchmark spans never ended", n)
	}
	r.note("spans", r.artifact("spans.json"))
	r.note("spans_not_recorded", r.spans.dropped)
	return r.spans.write(r.artifact("spans.json"))
}

// nsPerOp times fn(n) in batches and returns the median ns per call.
func nsPerOp(n int, fn func(n int)) float64 {
	const batches = 7
	xs := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		fn(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(xs)
}

// eachMs times every call of fn(i) for i in [0, n) and returns the
// median in milliseconds.
func eachMs(n int, fn func(i int) error) (float64, error) {
	xs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(xs), nil
}

func noop(any, sim.Tick) {}

// runMicro runs each layer's microbenchmark through its exported API.
func runMicro(ctx context.Context, r *runner) error {
	cfg := core.DefaultConfig(core.ModeDirectStore)

	// sim: one ScheduleArg + Step on an otherwise idle engine.
	eng := sim.NewEngine()
	r.set("sim.schedule_step_ns", nsPerOp(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			eng.ScheduleArg(1, noop, nil)
			eng.Step()
		}
	}))

	// cache: Lookup on a resident line and on an absent one, in one
	// GPU L2 slice.
	c := cache.New(cache.Config{Name: "bench.l2", SizeBytes: cfg.GPUL2Bytes / cfg.GPUL2Slices, Ways: cfg.GPUL2Ways})
	const resident = 1024
	for i := 0; i < resident; i++ {
		c.Insert(memsys.Addr(i*memsys.LineSize), 1, false)
	}
	r.set("cache.lookup_hit_ns", nsPerOp(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			c.Lookup(memsys.Addr((i % resident) * memsys.LineSize))
		}
	}))
	r.set("cache.lookup_miss_ns", nsPerOp(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			c.Lookup(memsys.Addr((resident + i%resident) * memsys.LineSize))
		}
	}))

	// mmu: Translate on a TLB hit, and on a walk (cycling over four
	// times as many pages as the LRU TLB holds, so every access walks).
	pt := mmu.NewPageTable(cfg.MemBytes)
	tlb := mmu.NewTLB(pt, mmu.Config{Name: "bench.tlb", Entries: cfg.GPUTLBSize, HitLatency: 1,
		WalkLatency: cfg.TLBWalkLat, DirectBase: memalloc.DirectStoreBase, DirectLimit: memalloc.DirectStoreLimit})
	page := func(i int) memsys.Addr { return memsys.Addr(uint64(i+1) * mmu.PageSize) }
	hitPages, walkPages := cfg.GPUTLBSize/2, 4*cfg.GPUTLBSize
	var tlbErr error
	translate := func(pages, n int) {
		for i := 0; i < n; i++ {
			if _, _, _, err := tlb.Translate(page(i % pages)); err != nil {
				tlbErr = err
			}
		}
	}
	translate(hitPages, hitPages)
	r.set("mmu.translate_hit_ns", nsPerOp(1<<20, func(n int) { translate(hitPages, n) }))
	r.set("mmu.translate_walk_ns", nsPerOp(1<<18, func(n int) { translate(walkPages, n) }))
	if tlbErr != nil {
		return tlbErr
	}

	// interconnect: Crossbar.SendArg plus the engine drain that
	// delivers it.
	xeng := sim.NewEngine()
	x := interconnect.NewCrossbar(xeng, "bench.xbar", cfg.XbarLat, cfg.XbarBW)
	r.set("interconnect.xbar_send_ns", nsPerOp(1<<18, func(n int) {
		for i := 0; i < n; i++ {
			x.SendArg("cpu", "mem", 72, noop, nil)
			if i%64 == 63 {
				xeng.Run()
			}
		}
		xeng.Run()
	}))

	// dram: AccessArg plus its completion event, on an open row and on
	// a row conflict in the same bank.
	deng := sim.NewEngine()
	dc := dram.DefaultConfig()
	d := dram.New(deng, dc)
	rowStride := memsys.Addr(dc.Channels * dc.Ranks * dc.Banks * dc.RowBytes)
	access := func(n int, addr func(i int) memsys.Addr) {
		for i := 0; i < n; i++ {
			d.AccessArg(addr(i), false, noop, nil)
			deng.Run()
		}
	}
	r.set("dram.row_hit_ns", nsPerOp(1<<18, func(n int) { access(n, func(int) memsys.Addr { return 0 }) }))
	r.set("dram.row_miss_ns", nsPerOp(1<<18, func(n int) {
		access(n, func(i int) memsys.Addr { return memsys.Addr(i%2) * rowStride })
	}))

	// serve: a spec's content address, and a result's canonical encoding.
	p, w, s := 2, 8, 16
	spec, err := serve.JobSpec{Bench: "MT", Config: &serve.ConfigOverride{PrefetchDepth: &p, MaxWarpsPerSM: &w, SMs: &s}}.Normalize()
	if err != nil {
		return err
	}
	var idErr error
	r.set("serve.spec_id_ns", nsPerOp(1<<15, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := spec.ID(); err != nil {
				idErr = err
			}
		}
	}))
	if idErr != nil {
		return idErr
	}
	res, err := bench.Run("MT", core.ModeDirectStore, bench.Small)
	if err != nil {
		return err
	}
	body, err := serve.EncodeResult(res)
	if err != nil {
		return err
	}
	r.set("serve.encode_result_ns", nsPerOp(1<<14, func(n int) {
		for i := 0; i < n; i++ {
			if _, err := serve.EncodeResult(res); err != nil {
				idErr = err
			}
		}
	}))
	if idErr != nil {
		return idErr
	}

	if err := microStore(r, body); err != nil {
		return err
	}
	return microSnap(ctx, r)
}

// microStore times store.Put (fsync + rename of a result-sized body),
// store.Get on a reopened store, and WAL.Append (fsync per record).
func microStore(r *runner, body []byte) error {
	dir := filepath.Join(r.work, "micro-store")
	const n = 20
	key := func(i int) string { return fmt.Sprintf("%064x", i+1) }
	st, err := store.Open(store.Options{Dir: dir})
	if err != nil {
		return err
	}
	put, err := eachMs(n, func(i int) error { return st.Put("result", key(i), body) })
	if err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	r.set("store.put_ms", put)

	if st, err = store.Open(store.Options{Dir: dir}); err != nil {
		return err
	}
	defer st.Close()
	var missing int
	r.set("store.get_us", nsPerOp(2000, func(m int) {
		for i := 0; i < m; i++ {
			if _, ok := st.Get("result", key(i%n)); !ok {
				missing++
			}
		}
	})/1e3)
	if missing > 0 {
		return fmt.Errorf("store micro: %d reads missed", missing)
	}

	wal, _, err := store.OpenWAL(filepath.Join(dir, "bench.wal"))
	if err != nil {
		return err
	}
	defer wal.Close()
	rec := make([]byte, 200)
	app, err := eachMs(n, func(int) error { return wal.Append(rec) })
	if err != nil {
		return err
	}
	r.set("store.wal_append_ms", app)
	return nil
}

// microSnap times System.Snapshot and RestoreSnapshot on each fleet
// benchmark's post-produce state (small input, default direct-store
// configuration) and reports the medians and the mean snapshot size.
func microSnap(ctx context.Context, r *runner) error {
	cfg := core.DefaultConfig(core.ModeDirectStore)
	var snapMs, restoreMs []float64
	var bytes int
	for _, code := range fleetBenches {
		sys := core.NewSystem(cfg)
		w, err := bench.Build(sys, code, bench.Small)
		if err != nil {
			return err
		}
		if _, err := w.RunPhaseRangeContext(ctx, sys, 0, 1); err != nil {
			return err
		}
		var blob []byte
		ms, err := eachMs(3, func(int) error {
			var err error
			blob, err = sys.Snapshot()
			return err
		})
		if err != nil {
			return err
		}
		snapMs = append(snapMs, ms)
		bytes += len(blob)
		fresh := make([]*core.System, 3)
		for i := range fresh {
			fresh[i] = core.NewSystem(cfg)
			if _, err := bench.Build(fresh[i], code, bench.Small); err != nil {
				return err
			}
		}
		ms, err = eachMs(3, func(i int) error { return fresh[i].RestoreSnapshot(blob) })
		if err != nil {
			return err
		}
		restoreMs = append(restoreMs, ms)
	}
	r.set("snap.snapshot_ms", median(snapMs))
	r.set("snap.restore_ms", median(restoreMs))
	r.set("snap.bytes", float64(bytes)/float64(len(fleetBenches)))
	return nil
}
