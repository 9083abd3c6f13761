package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"dstore/internal/bench"
	"dstore/internal/serve"
)

// The pinned outputs every workload checks against. `perfbench pin`
// regenerates both files from the program's own entry points
// (bench.Run and bench.RunWithConfigContext), not from the paths the
// benchmark times, so each timed path is checked against an
// independent run.
var (
	//go:embed testdata/fig4.txt
	fig4PinText string
	//go:embed testdata/fleet.txt
	fleetPinText string
)

const (
	fig4PinFile  = "perfbench/testdata/fig4.txt"
	fleetPinFile = "perfbench/testdata/fleet.txt"
)

// fig4Pins holds each Fig. 4 simulation's result digest (SHA-256 of
// its serve.EncodeResult bytes) and the two unrounded geomeans.
type fig4Pins struct {
	digests          map[string]string
	geoSmall, geoBig float64
}

// complete reports whether jobs is the whole pinned sweep, so its
// geomeans are comparable with the pinned ones.
func (p *fig4Pins) complete(jobs []simJob) bool { return len(jobs) == len(p.digests) }

func loadFig4Pins() (*fig4Pins, error) {
	p := &fig4Pins{digests: map[string]string{}}
	for _, line := range pinLines(fig4PinText) {
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && f[0] == "geomean":
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: %q: %v", fig4PinFile, line, err)
			}
			if f[1] == bench.Small.String() {
				p.geoSmall = v
			} else {
				p.geoBig = v
			}
		case len(f) == 4:
			p.digests[strings.Join(f[:3], " ")] = f[3]
		default:
			return nil, fmt.Errorf("%s: bad line %q", fig4PinFile, line)
		}
	}
	if len(p.digests) != len(fig4Jobs()) || p.geoSmall == 0 || p.geoBig == 0 {
		return nil, fmt.Errorf("%s: incomplete (%d digests); run `perfbench pin`", fig4PinFile, len(p.digests))
	}
	return p, nil
}

// loadFleetPins maps each fleet job ID prefix to its result digest
// prefix (16 hex digits each).
func loadFleetPins() (map[string]string, error) {
	pins := map[string]string{}
	for _, line := range pinLines(fleetPinText) {
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("%s: bad line %q", fleetPinFile, line)
		}
		pins[f[0]] = f[1]
	}
	if len(pins) != len(fleetJobs()) {
		return nil, fmt.Errorf("%s: %d jobs pinned, want %d; run `perfbench pin`", fleetPinFile, len(pins), len(fleetJobs()))
	}
	return pins, nil
}

func pinLines(text string) []string {
	var out []string
	for _, l := range strings.Split(text, "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			out = append(out, l)
		}
	}
	return out
}

func digest16(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// loadGolden reads the serve package's pinned small-input results,
// keyed "CODE mode". The benchmark only reads the file.
func loadGolden(root string) (map[string][]byte, error) {
	path := filepath.Join(root, "internal", "serve", "testdata", "golden_small.jsonl")
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string][]byte{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := append([]byte(nil), sc.Bytes()...)
		if len(line) == 0 {
			continue
		}
		var doc struct{ Bench, Mode string }
		if err := json.Unmarshal(line, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out[doc.Bench+" "+doc.Mode] = line
	}
	return out, sc.Err()
}

// parallel runs fn(i) for i in [0, n) on two goroutines.
func parallel(n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// pinMain regenerates testdata/fig4.txt and testdata/fleet.txt. Run it
// from the repository root after a change that is meant to alter
// simulated results, and review the diff.
func pinMain() error {
	jobs := fig4Jobs()
	lines := make([]string, len(jobs))
	results := map[string]bench.Result{}
	var mu sync.Mutex
	var firstErr error
	parallel(len(jobs), func(i int) {
		j := jobs[i]
		res, err := bench.Run(j.code, j.mode, j.in)
		var enc []byte
		if err == nil {
			enc, err = serve.EncodeResult(res)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", j.key(), err)
			}
			return
		}
		sum := sha256.Sum256(enc)
		lines[i] = j.key() + " " + hex.EncodeToString(sum[:])
		results[j.key()] = res
	})
	if firstErr != nil {
		return firstErr
	}
	small, big := fig4Geomeans(results)
	var b strings.Builder
	b.WriteString("# Fig. 4 sweep: CODE input mode sha256(serve.EncodeResult), then the\n# unrounded geomean speedups. Regenerate with `perfbench pin`.\n")
	for _, l := range lines {
		b.WriteString(l + "\n")
	}
	fmt.Fprintf(&b, "geomean %s %s\ngeomean %s %s\n", bench.Small, strconv.FormatFloat(small, 'g', -1, 64),
		bench.Big, strconv.FormatFloat(big, 'g', -1, 64))
	if err := os.WriteFile(fig4PinFile, []byte(b.String()), 0o644); err != nil {
		return err
	}

	fj := fleetJobs()
	flines := make([]string, len(fj))
	parallel(len(fj), func(i int) {
		id, enc, err := simulateSpec(fj[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			return
		}
		flines[i] = id[:16] + " " + digest16(enc)
	})
	if firstErr != nil {
		return firstErr
	}
	b.Reset()
	b.WriteString("# Fleet sweep jobs: job-ID prefix, sha256 prefix of the result document.\n# Regenerate with `perfbench pin`.\n")
	for _, l := range flines {
		b.WriteString(l + "\n")
	}
	return os.WriteFile(fleetPinFile, []byte(b.String()), 0o644)
}

// simulateSpec runs one job spec the way a worker's cold path would,
// without the service: normalize, build the config, simulate, encode.
func simulateSpec(spec serve.JobSpec) (id string, enc []byte, err error) {
	norm, err := spec.Normalize()
	if err != nil {
		return "", nil, err
	}
	cfg, err := norm.BuildConfig()
	if err != nil {
		return "", nil, err
	}
	if id, err = norm.ID(); err != nil {
		return "", nil, err
	}
	in := bench.Small
	if norm.Input == bench.Big.String() {
		in = bench.Big
	}
	res, err := bench.RunWithConfigContext(context.Background(), norm.Bench, cfg, in)
	if err != nil {
		return "", nil, fmt.Errorf("%s: %w", norm.Bench, err)
	}
	enc, err = serve.EncodeResult(res)
	return id, enc, err
}
