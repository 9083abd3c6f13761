package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"
)

// cpuProfile captures the traced run's CPU profile into a file.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

// stop ends the capture and folds it by package.
func (p *cpuProfile) stop(ctx context.Context) (map[string]float64, error) {
	pprof.StopCPUProfile()
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-raw", p.path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -raw: %v: %s", err, stderr.String())
	}
	return foldRaw(bytes.NewReader(out))
}

// foldRaw reads `go tool pprof -raw` output and returns each package's
// share of self time: a sample is charged to the function at its leaf
// frame (the innermost inlined function of its first location), and
// weighted by its CPU-time value. Shares sum to 1.
func foldRaw(r io.Reader) (map[string]float64, error) {
	type sample struct {
		weight int64
		leaf   int
	}
	var samples []sample
	leafFunc := map[int]string{}
	valueCol := -1
	section := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == "Samples:":
			section = "header"
			continue
		case trimmed == "Locations":
			section = "locations"
			continue
		case trimmed == "Mappings":
			section = "mappings"
			continue
		}
		switch section {
		case "header":
			// e.g. "samples/count cpu/nanoseconds": weigh by CPU time.
			cols := strings.Fields(trimmed)
			valueCol = len(cols) - 1
			for i, c := range cols {
				if strings.HasPrefix(c, "cpu/") {
					valueCol = i
				}
			}
			section = "samples"
		case "samples":
			vals, stack, ok := strings.Cut(trimmed, ":")
			if !ok || strings.HasPrefix(trimmed, "labels") || strings.HasPrefix(trimmed, "{") {
				continue // label lines
			}
			fields := strings.Fields(vals)
			ids := strings.Fields(stack)
			if valueCol < 0 || valueCol >= len(fields) || len(ids) == 0 {
				continue
			}
			w, err1 := strconv.ParseInt(fields[valueCol], 10, 64)
			leaf, err2 := strconv.Atoi(ids[0])
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("pprof -raw: bad sample line %q", line)
			}
			samples = append(samples, sample{w, leaf})
		case "locations":
			// "     7: 0x4a3b2c M=1 pkg.Func /file.go:12 s=0" opens a
			// location with its innermost function; indented lines
			// after it name the callers it was inlined into.
			head, rest, ok := strings.Cut(trimmed, ": ")
			id, err := strconv.Atoi(head)
			if ok && err == nil && strings.HasPrefix(rest, "0x") {
				f := strings.Fields(rest)
				if len(f) >= 3 && strings.HasPrefix(f[1], "M=") {
					leafFunc[id] = f[2]
				} else {
					leafFunc[id] = "?"
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	var total int64
	byPkg := map[string]int64{}
	for _, s := range samples {
		fn, ok := leafFunc[s.leaf]
		if !ok {
			fn = "?"
		}
		byPkg[packageOf(fn)] += s.weight
		total += s.weight
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof -raw: profile holds no samples")
	}
	shares := make(map[string]float64, len(byPkg))
	for p, w := range byPkg {
		shares[p] = float64(w) / float64(total)
	}
	return shares, nil
}

// packageOf returns the import path of a symbolized function name:
// "dstore/internal/cache.(*Cache).Lookup" -> "dstore/internal/cache".
// Type arguments may themselves contain slashes, so they are cut off
// first. Unsymbolized frames map to "?".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketShares maps package shares onto the per-layer share metrics.
// Whatever no bucket claims is other.self_share.
func bucketShares(pkgs map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, b := range shareBuckets {
		out[b.metric] = 0
	}
	var other float64
	for pkg, share := range pkgs {
		claimed := false
		for _, b := range shareBuckets {
			for _, p := range b.prefixes {
				if pkg == p || strings.HasPrefix(pkg, p+"/") {
					claimed = true
					break
				}
			}
			if claimed {
				out[b.metric] += share
				break
			}
		}
		if !claimed {
			other += share
		}
	}
	out["other.self_share"] = other
	return out
}
