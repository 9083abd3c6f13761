package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// fingerprint identifies the machine and the code a result came from.
// Two results are comparable only when the machine fields agree.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is the VCS revision the binary was built from, or
	// "unknown" outside a git checkout; Source is a digest of every Go
	// source and module file, which identifies the code either way.
	Commit string `json:"commit"`
	Source string `json:"source_sha256"`
}

// machine returns the fields that must match for two results to be
// compared.
func (f fingerprint) machine() string {
	return fmt.Sprintf("%s | nproc %d | GOMAXPROCS %d | %s", f.CPUModel, f.NProc, f.GOMAXPROCS, f.GoVersion)
}

func takeFingerprint(root string) fingerprint {
	f := fingerprint{
		CPUModel:   cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Source:     sourceDigest(root),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				f.Commit = s.Value
			}
		}
	}
	return f
}

func cpuModel() string {
	file, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer file.Close()
	sc := bufio.NewScanner(file)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes every .go, go.mod and testdata file under root
// (skipping build output and VCS metadata) in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries simply do not contribute
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if n := d.Name(); strings.HasSuffix(n, ".go") || n == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compareMain implements `perfbench compare A B`: A and B hold the
// saved standard output of two runs of the same workload. It prints
// every metric side by side and warns loudly when the runs came from
// different machines, since then the numbers say nothing about the
// code.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare BASE.out NEW.out")
		return 2
	}
	a, err := readReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	b, err := readReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench compare:", err)
		return 1
	}
	writeComparison(os.Stdout, a, b)
	return 0
}

func writeComparison(w io.Writer, a, b *report) {
	ra, rb := &a.Report, &b.Report
	if ra.Fingerprint.machine() != rb.Fingerprint.machine() {
		banner := strings.Repeat("!", 72)
		fmt.Fprintf(w, "%s\nWARNING: THESE RESULTS COME FROM DIFFERENT MACHINES; THE DELTAS BELOW\nMEASURE THE MACHINES AS MUCH AS THE CODE.\n  base: %s\n  new:  %s\n%s\n",
			banner, ra.Fingerprint.machine(), rb.Fingerprint.machine(), banner)
	}
	if ra.Workload != rb.Workload || ra.Trace != rb.Trace {
		fmt.Fprintf(w, "WARNING: comparing workload %s (trace %v) with %s (trace %v)\n", ra.Workload, ra.Trace, rb.Workload, rb.Trace)
	}
	fmt.Fprintf(w, "workload %s: base commit %.12s seed %d, new commit %.12s seed %d\n",
		ra.Workload, ra.Fingerprint.Commit, ra.Seed, rb.Fingerprint.Commit, rb.Seed)
	names := make([]string, 0, len(ra.Metrics))
	for n := range ra.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		ma := ra.Metrics[n]
		mb, ok := rb.Metrics[n]
		if !ok {
			fmt.Fprintf(w, "  %-30s %14.6g %-8s (missing in new)\n", n, ma.Value, ma.Unit)
			continue
		}
		delta := "      n/a"
		if ma.Value != 0 {
			delta = fmt.Sprintf("%+8.2f%%", 100*(mb.Value-ma.Value)/ma.Value)
		}
		fmt.Fprintf(w, "  %-30s %14.6g %14.6g %-8s %s\n", n, ma.Value, mb.Value, ma.Unit, delta)
	}
}

// readReport finds the report line in a run's saved standard output.
func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, `{"report"`) {
			continue
		}
		var r report
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &r, nil
	}
	return nil, fmt.Errorf("%s: no report line", path)
}
