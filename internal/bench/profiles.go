// Package bench models the paper's 22 benchmarks (Table II) as
// parameterised workloads over the simulated system, and provides the
// experiment runner that regenerates the evaluation figures.
//
// Each benchmark is reduced to the characteristics that drive the
// paper's results: how many bytes the CPU produces for the GPU, how the
// GPU walks that data (streaming, tiled, strided, irregular graph), how
// much scratchpad ("shared memory") staging and arithmetic hides
// memory latency, how many kernel launches and reuse passes occur, and
// whether results are updated in place or written to a separate output
// the CPU reads back. Footprints use the paper's real input sizes, so
// capacity effects against the 2MB GPU L2 appear where the paper says
// they do. Arithmetic-intensity knobs (compute per line, scratchpad ops
// per line) are calibration parameters; EXPERIMENTS.md documents them.
package bench

import (
	"dstore/internal/sim"
)

// Input selects the paper's small or big input size.
type Input int

// Input sizes (Table II columns).
const (
	Small Input = iota
	Big
)

// String names the input size.
func (in Input) String() string {
	if in == Big {
		return "big"
	}
	return "small"
}

// ParseInput is the inverse of Input.String: it resolves "small" or
// "big", and ok is false for any other string.
func ParseInput(name string) (in Input, ok bool) {
	switch name {
	case Small.String():
		return Small, true
	case Big.String():
		return Big, true
	}
	return 0, false
}

// patternKind selects the GPU's walk over the shared data.
type patternKind uint8

const (
	patSequential patternKind = iota
	patStrided
	patTiled
	patGraph
)

// profile captures one benchmark's model parameters.
type profile struct {
	code   string
	name   string
	suite  string
	small  string // Table II input label
	big    string
	shared bool // Table II "Shared" column (uses GPU shared memory)

	// inBytes is the CPU-produced, GPU-consumed footprint.
	inBytes [2]uint64
	// outBytes is a separate GPU-written output (0 = in-place updates).
	outBytes [2]uint64
	// cpuProduces is false when the CPU does not store data the GPU
	// later uses (the paper's PT).
	cpuProduces bool
	// kernels is the number of sequential kernel launches.
	kernels int
	// passes is the number of full read passes over the input per
	// kernel (data reuse visible at the L2).
	passes [2]int
	// pattern is the read walk.
	pattern patternKind
	// strideLines for patStrided.
	strideLines int
	// graphNodes/graphDeg for patGraph (input bytes then derive from
	// the graph, inBytes is ignored as a footprint but used for the
	// produce phase sizing of node+edge arrays).
	graphNodes [2]int
	graphDeg   int
	// stage models shared-memory staging: each loaded line is followed
	// by scratchpad traffic instead of L2 re-reads.
	stage bool
	// sharedOpsPerLine is scratchpad work per staged line.
	sharedOpsPerLine [2]int
	// computePerLine is the arithmetic gap per loaded line, in ticks —
	// the latency-hiding knob.
	computePerLine [2]sim.Tick
	// produceGap is CPU compute per produced line (ticks): the host
	// work generating each line of input data.
	produceGap [2]sim.Tick
	// writeFrac is the fraction (per 256) of input lines the GPU
	// writes per kernel when in-place; for separate outputs the whole
	// output is written each kernel.
	writeFrac int
	// readback: the CPU reads the results after the kernels.
	readback bool
	// warps caps the number of warps per kernel (0 = auto).
	warps int
}

const kb = 1024
const mb = 1024 * 1024

// profiles is the Table II benchmark set. Footprints derive from the
// paper's input sizes; behavioural knobs are calibrated so the paper's
// qualitative outcomes emerge (see EXPERIMENTS.md for the mapping).
var profiles = []profile{
	{
		code: "BP", name: "backprop", suite: "Rodinia", small: "1536", big: "10000", shared: true,
		inBytes: [2]uint64{104 * kb, 680 * kb}, outBytes: [2]uint64{24 * kb, 160 * kb},
		cpuProduces: true, kernels: 2, passes: [2]int{1, 1}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{6, 6}, computePerLine: [2]sim.Tick{1835, 1280},
		warps: 384, readback: true,
		produceGap: [2]sim.Tick{1, 140},
	},
	{
		code: "BF", name: "bfs", suite: "Rodinia", small: "4096", big: "6000", shared: false,
		graphNodes: [2]int{4096, 6000}, graphDeg: 8, outBytes: [2]uint64{16 * kb, 24 * kb},
		cpuProduces: true, kernels: 2, passes: [2]int{1, 1}, pattern: patGraph,
		computePerLine: [2]sim.Tick{60, 60}, warps: 192, readback: true,
		produceGap: [2]sim.Tick{48, 80},
	},
	{
		code: "GA", name: "gaussian", suite: "Rodinia", small: "256x256", big: "700x700", shared: true,
		inBytes:     [2]uint64{256 * kb, 1916 * kb},
		cpuProduces: true, kernels: 4, passes: [2]int{2, 2}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{8, 8}, computePerLine: [2]sim.Tick{5000, 5000},
		writeFrac: 64, warps: 384, readback: true,
		produceGap: [2]sim.Tick{0, 200},
	},
	{
		code: "HT", name: "hotspot", suite: "Rodinia", small: "64x64", big: "512x512", shared: true,
		inBytes:     [2]uint64{32 * kb, 2 * mb},
		cpuProduces: true, kernels: 4, passes: [2]int{1, 1}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{8, 8}, computePerLine: [2]sim.Tick{1480, 1370},
		writeFrac: 128, warps: 384, readback: true,
		produceGap: [2]sim.Tick{19, 180},
	},
	{
		code: "KM", name: "kmeans", suite: "Rodinia", small: "2000, 34 feat", big: "5000, 34 feat.", shared: true,
		inBytes: [2]uint64{272 * kb, 680 * kb}, outBytes: [2]uint64{8 * kb, 20 * kb},
		cpuProduces: true, kernels: 3, passes: [2]int{2, 2}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{12, 12}, computePerLine: [2]sim.Tick{5000, 5000},
		warps: 384, readback: true,
	},
	{
		code: "LV", name: "lavaMD", suite: "Rodinia", small: "2", big: "4", shared: true,
		inBytes:     [2]uint64{32 * kb, 256 * kb},
		cpuProduces: true, kernels: 1, passes: [2]int{6, 6}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{16, 16}, computePerLine: [2]sim.Tick{5000, 5000},
		writeFrac: 64, warps: 384, readback: true,
	},
	{
		code: "LU", name: "lud", suite: "Rodinia", small: "256x256", big: "512x512", shared: true,
		inBytes:     [2]uint64{256 * kb, 1 * mb},
		cpuProduces: true, kernels: 4, passes: [2]int{1, 1}, pattern: patTiled,
		stage: true, sharedOpsPerLine: [2]int{6, 6}, computePerLine: [2]sim.Tick{1605, 1500},
		writeFrac: 128, warps: 384, readback: true,
		produceGap: [2]sim.Tick{185, 127},
	},
	{
		code: "NN", name: "nn", suite: "Rodinia", small: "10691", big: "42764", shared: false,
		inBytes: [2]uint64{10691 * 64, 42764 * 64}, outBytes: [2]uint64{4 * kb, 16 * kb},
		cpuProduces: true, kernels: 1, passes: [2]int{1, 1}, pattern: patSequential,
		computePerLine: [2]sim.Tick{4, 4},
		warps:          96, readback: true,
		produceGap: [2]sim.Tick{27, 51},
	},
	{
		code: "NW", name: "needle", suite: "Rodinia", small: "160x160", big: "320x320", shared: true,
		inBytes:     [2]uint64{205 * kb, 820 * kb},
		cpuProduces: true, kernels: 2, passes: [2]int{1, 1}, pattern: patTiled,
		stage: true, sharedOpsPerLine: [2]int{6, 6}, computePerLine: [2]sim.Tick{1597, 1450},
		writeFrac: 128, warps: 384, readback: true,
		produceGap: [2]sim.Tick{64, 58},
	},
	{
		code: "PT", name: "pathfinder", suite: "Rodinia", small: "2500", big: "5000", shared: true,
		inBytes:     [2]uint64{80 * kb, 160 * kb},
		cpuProduces: false, kernels: 3, passes: [2]int{2, 2}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{8, 8}, computePerLine: [2]sim.Tick{400, 400},
		writeFrac: 128, warps: 384,
	},
	{
		code: "SR", name: "srad", suite: "Rodinia", small: "256x256", big: "512x512", shared: true,
		inBytes:     [2]uint64{256 * kb, 1 * mb},
		cpuProduces: true, kernels: 3, passes: [2]int{2, 2}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{10, 10}, computePerLine: [2]sim.Tick{5000, 5000},
		writeFrac: 128, warps: 384, readback: true,
		produceGap: [2]sim.Tick{200, 200},
	},
	{
		code: "ST", name: "stencil", suite: "Parboil", small: "128x128x32", big: "164x164x32", shared: true,
		inBytes:     [2]uint64{2 * mb, 3444 * kb},
		cpuProduces: true, kernels: 2, passes: [2]int{3, 3}, pattern: patSequential,
		stage: true, sharedOpsPerLine: [2]int{10, 10}, computePerLine: [2]sim.Tick{3000, 3000},
		writeFrac: 64, warps: 384, readback: true,
		produceGap: [2]sim.Tick{99, 200},
	},
	{
		code: "GC", name: "graph coloring", suite: "Pannotia", small: "power", big: "delaunay-n15", shared: false,
		graphNodes: [2]int{4096, 32768}, graphDeg: 6, outBytes: [2]uint64{16 * kb, 128 * kb},
		cpuProduces: true, kernels: 3, passes: [2]int{1, 1}, pattern: patGraph,
		computePerLine: [2]sim.Tick{50, 80}, warps: 192, readback: true,
		produceGap: [2]sim.Tick{16, 5},
	},
	{
		code: "FW", name: "floyd-warshall", suite: "Pannotia", small: "256_16384", big: "512_65536", shared: false,
		inBytes:     [2]uint64{256 * kb, 1 * mb},
		cpuProduces: true, kernels: 6, passes: [2]int{1, 2}, pattern: patStrided, strideLines: 16,
		computePerLine: [2]sim.Tick{1265, 1100}, writeFrac: 128, warps: 384, readback: true,
		produceGap: [2]sim.Tick{200, 89},
	},
	{
		code: "MS", name: "maximal independent set", suite: "Pannotia", small: "power", big: "delaunay-n13", shared: false,
		graphNodes: [2]int{4096, 8192}, graphDeg: 6, outBytes: [2]uint64{16 * kb, 32 * kb},
		cpuProduces: true, kernels: 3, passes: [2]int{1, 1}, pattern: patGraph,
		computePerLine: [2]sim.Tick{600, 600}, warps: 384, readback: true,
	},
	{
		code: "SP", name: "sssp", suite: "Pannotia", small: "power", big: "delaunay-n13", shared: false,
		graphNodes: [2]int{4096, 8192}, graphDeg: 6, outBytes: [2]uint64{16 * kb, 32 * kb},
		cpuProduces: true, kernels: 3, passes: [2]int{1, 1}, pattern: patGraph,
		computePerLine: [2]sim.Tick{70, 90}, warps: 192, readback: true,
		produceGap: [2]sim.Tick{3, 0},
	},
	{
		code: "BL", name: "blackscholes", suite: "NVIDIA SDK", small: "5000", big: "10000", shared: false,
		inBytes: [2]uint64{5000 * 28, 10000 * 28}, outBytes: [2]uint64{5000 * 8, 10000 * 8},
		cpuProduces: true, kernels: 1, passes: [2]int{1, 1}, pattern: patSequential,
		computePerLine: [2]sim.Tick{8, 10},
		warps:          96, readback: true,
		produceGap: [2]sim.Tick{37, 106},
	},
	{
		code: "VA", name: "vectoradd", suite: "NVIDIA SDK", small: "50000", big: "200000", shared: false,
		inBytes: [2]uint64{50000 * 8, 200000 * 8}, outBytes: [2]uint64{50000 * 4, 200000 * 4},
		cpuProduces: true, kernels: 1, passes: [2]int{1, 1}, pattern: patSequential,
		computePerLine: [2]sim.Tick{2, 2},
		warps:          96, readback: true,
		produceGap: [2]sim.Tick{35, 118},
	},
	{
		code: "BS", name: "bitonic sort", suite: "[24]", small: "262144", big: "524288", shared: false,
		inBytes:     [2]uint64{1 * mb, 2 * mb},
		cpuProduces: true, kernels: 8, passes: [2]int{2, 2}, pattern: patStrided, strideLines: 8,
		computePerLine: [2]sim.Tick{1392, 1392}, writeFrac: 64, warps: 384,
		produceGap: [2]sim.Tick{200, 200},
	},
	{
		code: "MM", name: "matrix multiplication", suite: "[25]", small: "256x256", big: "900x900", shared: false,
		inBytes: [2]uint64{2 * 256 * kb, 2 * 3165 * kb}, outBytes: [2]uint64{256 * kb, 3165 * kb},
		cpuProduces: true, kernels: 1, passes: [2]int{3, 3}, pattern: patTiled,
		computePerLine: [2]sim.Tick{8, 8},
		warps:          96, readback: true,
		produceGap: [2]sim.Tick{115, 200},
	},
	{
		code: "MT", name: "matrix transpose", suite: "[25]", small: "32x32", big: "1600x1600", shared: false,
		inBytes: [2]uint64{4 * kb, 10000 * kb}, outBytes: [2]uint64{4 * kb, 10000 * kb},
		cpuProduces: true, kernels: 1, passes: [2]int{1, 1}, pattern: patStrided, strideLines: 32,
		computePerLine: [2]sim.Tick{2, 2}, warps: 96, readback: true,
		produceGap: [2]sim.Tick{0, 200},
	},
	{
		code: "CH", name: "cholesky", suite: "[26]", small: "150x150", big: "600x600", shared: false,
		inBytes:     [2]uint64{88 * kb, 1407 * kb},
		cpuProduces: true, kernels: 5, passes: [2]int{1, 1}, pattern: patTiled,
		computePerLine: [2]sim.Tick{914, 850}, writeFrac: 128, warps: 256, readback: true,
		produceGap: [2]sim.Tick{11, 138},
	},
}

// Codes returns the benchmark codes in Table II order.
func Codes() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.code
	}
	return out
}

// find returns the profile for a code.
func find(code string) (profile, bool) {
	for _, p := range profiles {
		if p.code == code {
			return p, true
		}
	}
	return profile{}, false
}
