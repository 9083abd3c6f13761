package dstore

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"dstore/internal/bench"
)

func TestPublicQuickstartFlow(t *testing.T) {
	sys := NewSystem(DefaultConfig(DirectStore))
	base, err := sys.AllocShared(16*1024, "data")
	if err != nil {
		t.Fatal(err)
	}
	var ops []CPUOp
	for a := base; a < base+16*1024; a += 128 {
		ops = append(ops, CPUOp{Type: StoreOp, Addr: a})
	}
	sys.RunCPU(ops)
	if sys.PushesReceived() != 128 {
		t.Errorf("pushes = %d, want 128", sys.PushesReceived())
	}
	var warp Warp
	for a := base; a < base+16*1024; a += 128 {
		warp.Ops = append(warp.Ops, WarpOp{Kind: OpGlobalLoad, Addr: a, Lines: 1})
	}
	sys.RunKernel(Kernel{Name: "consume", Warps: []Warp{warp}})
	if sys.GPUL2MissRate() > 0.01 {
		t.Errorf("pushed data missed: rate %.2f", sys.GPUL2MissRate())
	}
}

func TestPublicModesDistinct(t *testing.T) {
	if CCSM == DirectStore || DirectStore == Standalone {
		t.Fatal("mode constants collide")
	}
	if CCSM.DirectStoreEnabled() {
		t.Error("CCSM claims pushes")
	}
}

func TestPublicBenchmarkAPI(t *testing.T) {
	if len(BenchmarkCodes()) != 22 {
		t.Fatal("not 22 benchmarks")
	}
	cmp, err := CompareBenchmark("HT", Small)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Speedup() <= 0 {
		t.Errorf("HT small speedup %.2f, want positive", cmp.Speedup())
	}
	if _, err := RunBenchmark("nope", CCSM, Small); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestRunAllBenchmarksParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table II sweep in -short mode")
	}
	seq, err := RunAllBenchmarks(Small)
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunAllBenchmarksParallel(Small, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("RunAllBenchmarksParallel diverged from RunAllBenchmarks")
	}
}

// TestPublicSweepErrorTypes checks that an importer can name a sweep's
// failure report: errors.As reaches both the *SweepError and the
// JobError of the unknown benchmark through the exported aliases.
func TestPublicSweepErrorTypes(t *testing.T) {
	jobs := bench.StandardJobs(Small)[:2]
	jobs = append(jobs, bench.SweepJob{Code: "XX", In: Small, Base: jobs[0].Base, DS: jobs[0].DS})
	_, _, err := bench.Sweep(context.Background(), jobs, SweepOptions{Workers: 1})
	var se *SweepError
	if !errors.As(err, &se) {
		t.Fatalf("err = %T %v, want *SweepError", err, err)
	}
	if len(se.Failures) != 1 || se.Failures[0].Index != 2 {
		t.Fatalf("failures = %+v, want job 2 only", se.Failures)
	}
	var je JobError
	if !errors.As(err, &je) || je.Code != "XX" {
		t.Fatalf("errors.As(JobError) = %+v, want the XX job", je)
	}
	if _, err := CompareBenchmark("XX", Small); err == nil || errors.As(err, &se) {
		t.Errorf("CompareBenchmark(XX) err = %v, want the run's own error", err)
	}
}

func TestPublicTables(t *testing.T) {
	if !strings.Contains(Table1().String(), "MOESI") {
		t.Error("Table1 missing protocol")
	}
	if !strings.Contains(Table2().String(), "Rodinia") {
		t.Error("Table2 missing suite")
	}
}

func TestPublicTranslate(t *testing.T) {
	tr, err := Translate(map[string]string{"m.cu": `
int main() {
    float *a = (float *)malloc(1024);
    k<<<1, 32>>>(a);
}
`}, TranslateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Allocs) != 1 {
		t.Fatalf("allocs %+v", tr.Allocs)
	}
	if !strings.Contains(tr.Files["m.cu"], "MAP_FIXED") {
		t.Error("rewrite missing")
	}
}

func TestPublicGeomeans(t *testing.T) {
	cs := []BenchComparison{
		{CCSM: BenchResult{Ticks: 120, MissRate: 0.2}, DS: BenchResult{Ticks: 100, MissRate: 0.1}},
	}
	if g := GeomeanSpeedup(cs); g < 0.19 || g > 0.21 {
		t.Errorf("geomean %v", g)
	}
	a, b := GeomeanMissRates(cs)
	if a < 0.199 || a > 0.201 || b < 0.099 || b > 0.101 {
		t.Errorf("miss geomeans %v %v", a, b)
	}
	if Fig4Table(Small, cs).NumRows() == 0 || Fig5Table(Small, cs).NumRows() == 0 {
		t.Error("figure tables empty")
	}
}
