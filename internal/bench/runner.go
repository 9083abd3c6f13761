package bench

import (
	"context"
	"fmt"

	"dstore/internal/core"
	"dstore/internal/obs"
	"dstore/internal/sim"
	"dstore/internal/stats"
)

// Result captures one benchmark run.
type Result struct {
	Code string
	Mode core.Mode
	In   Input
	// Ticks is total execution time (produce + kernels + readback).
	Ticks sim.Tick
	// GPU L2 aggregate demand behaviour (Fig. 5's metric).
	L2Accesses uint64
	L2Misses   uint64
	MissRate   float64
	// Pushes received by the GPU L2 (direct-store installs).
	Pushes uint64
	// Network traffic split.
	XbarBytes   uint64
	DirectBytes uint64
	// PhaseTicks breaks Ticks down: produce, each kernel, readback.
	PhaseTicks []sim.Tick
}

// Run executes one benchmark under the default Table I configuration
// for the given mode.
func Run(code string, mode core.Mode, in Input) (Result, error) {
	return RunWithConfig(code, core.DefaultConfig(mode), in)
}

// RunWithConfig executes one benchmark under an explicit configuration.
func RunWithConfig(code string, cfg core.Config, in Input) (Result, error) {
	return RunWithConfigContext(context.Background(), code, cfg, in)
}

// RunWithConfigContext is RunWithConfig under a context: cancellation
// abandons the simulation mid-flight and returns ctx's error. Each run
// builds a private system, so an abandoned run leaks nothing into later
// ones, and an uncancelled run is event-for-event identical to
// RunWithConfig.
func RunWithConfigContext(ctx context.Context, code string, cfg core.Config, in Input) (Result, error) {
	r, _, err := RunWithConfigTimedContext(ctx, code, cfg, in, nil)
	return r, err
}

// HostPhases breaks one run's host-side wall time into the phases a
// -timing report shows: building the system and workload, driving the
// simulation, and assembling the result. Units are whatever the clock
// counts — nanoseconds for the time.Now-backed clock cmd/dstore-bench
// injects. Host timing never feeds back into the simulation, so the
// Result is identical whatever the clock reads.
type HostPhases struct {
	SetupNS  uint64
	RunNS    uint64
	ReportNS uint64
}

// Total returns the summed phase time.
func (h HostPhases) Total() uint64 { return h.SetupNS + h.RunNS + h.ReportNS }

// Add accumulates other into h (for summing a comparison's two runs).
func (h HostPhases) Add(other HostPhases) HostPhases {
	return HostPhases{
		SetupNS:  h.SetupNS + other.SetupNS,
		RunNS:    h.RunNS + other.RunNS,
		ReportNS: h.ReportNS + other.ReportNS,
	}
}

// RunWithConfigTimedContext is RunWithConfigContext with a host-side
// phase breakdown measured by clock (nil clock reports zeros). The
// simulated Result is byte-identical to RunWithConfigContext's.
func RunWithConfigTimedContext(ctx context.Context, code string, cfg core.Config, in Input, clock obs.Clock) (Result, HostPhases, error) {
	if clock == nil {
		clock = func() uint64 { return 0 }
	}
	var hp HostPhases
	t0 := clock()
	sys := core.NewSystem(cfg)
	w, err := Build(sys, code, in)
	hp.SetupNS = clock() - t0
	if err != nil {
		return Result{}, hp, err
	}
	t1 := clock()
	_, phases, err := w.RunPhasesContext(ctx, sys)
	hp.RunNS = clock() - t1
	if err != nil {
		return Result{}, hp, fmt.Errorf("bench %s (%s, %s): %w", code, cfg.Mode, in, err)
	}
	t2 := clock()
	res, err := sealResult(sys, code, cfg, in, phases)
	hp.ReportNS = clock() - t2
	return res, hp, err
}

// sealResult finishes a run that started at tick 0, so the final clock
// is the total tick count: coherence check, observer seal (so
// time-series exports cover the whole run; a nil observer ignores it),
// result assembly.
func sealResult(sys *core.System, code string, cfg core.Config, in Input, phases []sim.Tick) (Result, error) {
	if err := sys.CheckCoherence(); err != nil {
		return Result{}, fmt.Errorf("bench %s (%s, %s): %w", code, cfg.Mode, in, err)
	}
	cfg.Obs.FinishRun(sys.Now())
	return Result{
		Code: code, Mode: cfg.Mode, In: in,
		Ticks:       sys.Now(),
		PhaseTicks:  phases,
		L2Accesses:  sys.GPUL2Accesses(),
		L2Misses:    sys.GPUL2Misses(),
		MissRate:    sys.GPUL2MissRate(),
		Pushes:      sys.PushesReceived(),
		XbarBytes:   sys.CoherenceTrafficBytes(),
		DirectBytes: sys.DirectTrafficBytes(),
	}, nil
}

// Comparison holds a CCSM-vs-direct-store pair for one benchmark and
// input.
type Comparison struct {
	Code string
	In   Input
	CCSM Result
	DS   Result
}

// Speedup returns direct store's speedup over CCSM: the paper
// normalises direct store's total ticks to CCSM's (Fig. 4), so 0.05
// means 5% faster.
func (c Comparison) Speedup() float64 {
	if c.DS.Ticks == 0 {
		return 0
	}
	return float64(c.CCSM.Ticks)/float64(c.DS.Ticks) - 1
}

// MissRateDelta returns CCSM miss rate minus DS miss rate (positive =
// reduction under direct store).
func (c Comparison) MissRateDelta() float64 {
	return c.CCSM.MissRate - c.DS.MissRate
}

// Compare runs one benchmark under both modes.
func Compare(code string, in Input) (Comparison, error) {
	return CompareWithConfigs(code, in, core.DefaultConfig(core.ModeCCSM), core.DefaultConfig(core.ModeDirectStore))
}

// CompareWithConfigs runs one benchmark under two explicit
// configurations (baseline first).
func CompareWithConfigs(code string, in Input, base, ds core.Config) (Comparison, error) {
	c, _, err := CompareWithConfigsTimedContext(context.Background(), code, in, base, ds, nil)
	return c, err
}

// CompareWithConfigsTimedContext is CompareWithConfigs under a context,
// with a host phase breakdown summed over the pair's two runs.
func CompareWithConfigsTimedContext(ctx context.Context, code string, in Input, base, ds core.Config, clock obs.Clock) (Comparison, HostPhases, error) {
	c := Comparison{Code: code, In: in}
	var hp, h HostPhases
	var err error
	if c.CCSM, h, err = RunWithConfigTimedContext(ctx, code, base, in, clock); err != nil {
		return c, hp.Add(h), err
	}
	hp = hp.Add(h)
	if c.DS, h, err = RunWithConfigTimedContext(ctx, code, ds, in, clock); err != nil {
		return c, hp.Add(h), err
	}
	return c, hp.Add(h), nil
}

// RunAll compares every Table II benchmark for one input size,
// sequentially. Every benchmark is attempted even if one fails; failures
// are aggregated into a *SweepError so one broken profile cannot hide
// the other results. Use RunAllParallel to spread the sweep across
// cores.
func RunAll(in Input) ([]Comparison, error) {
	return RunAllParallel(in, SweepOptions{Workers: 1})
}

// speedupThreshold is the rounding floor below which the paper plots a
// benchmark as "zero percent speedup".
const speedupThreshold = 0.005

// GeomeanSpeedup returns the geometric mean of the non-zero speedups
// (the rightmost bar of Fig. 4): benchmarks whose speedup rounds to
// zero are excluded, matching the paper's method.
func GeomeanSpeedup(cs []Comparison) float64 {
	var ratios []float64
	for _, c := range cs {
		if s := c.Speedup(); s >= speedupThreshold {
			ratios = append(ratios, 1+s)
		}
	}
	m, ok := stats.GeoMeanNonZero(ratios)
	if !ok {
		return 0
	}
	return m - 1
}

// GeomeanMissRates returns the geometric means of the non-zero GPU L2
// miss rates under CCSM and direct store (the rightmost bars of
// Fig. 5).
func GeomeanMissRates(cs []Comparison) (ccsm, ds float64) {
	var a, b []float64
	for _, c := range cs {
		a = append(a, c.CCSM.MissRate)
		b = append(b, c.DS.MissRate)
	}
	ccsm, _ = stats.GeoMeanNonZero(a)
	ds, _ = stats.GeoMeanNonZero(b)
	return ccsm, ds
}

// Fig4Table renders the Fig. 4 speedup series for one input size.
func Fig4Table(in Input, cs []Comparison) *stats.Table {
	t := stats.NewTable("Benchmark", "CCSM ticks", "DS ticks", "Speedup")
	for _, c := range cs {
		t.AddRow(c.Code,
			fmt.Sprintf("%d", c.CCSM.Ticks),
			fmt.Sprintf("%d", c.DS.Ticks),
			stats.Percent(c.Speedup()))
	}
	t.AddRow("GEOMEAN(nonzero)", "", "", stats.Percent(GeomeanSpeedup(cs)))
	return t
}

// Fig5Table renders the Fig. 5 GPU L2 miss-rate series for one input
// size.
func Fig5Table(in Input, cs []Comparison) *stats.Table {
	t := stats.NewTable("Benchmark", "CCSM accesses", "CCSM miss rate", "DS accesses", "DS miss rate")
	for _, c := range cs {
		t.AddRow(c.Code,
			fmt.Sprintf("%d", c.CCSM.L2Accesses),
			stats.Percent(c.CCSM.MissRate),
			fmt.Sprintf("%d", c.DS.L2Accesses),
			stats.Percent(c.DS.MissRate))
	}
	gm1, gm2 := GeomeanMissRates(cs)
	t.AddRow("GEOMEAN", "", stats.Percent(gm1), "", stats.Percent(gm2))
	return t
}

// Table2 renders the paper's benchmark table.
func Table2() *stats.Table {
	t := stats.NewTable("Name", "Small input", "Big input", "Suite", "Shared")
	for _, p := range profiles {
		sh := "No"
		if p.shared {
			sh = "Yes"
		}
		t.AddRow(p.code, p.small, p.big, p.suite, sh)
	}
	return t
}
