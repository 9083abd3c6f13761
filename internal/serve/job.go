// Package serve turns the simulator into a long-running service: an
// HTTP JSON API over a bounded job queue with backpressure, a worker
// pool that reuses the bench layer's per-run system isolation, and a
// content-addressed result cache.
//
// A job is a pure function of its specification — each run builds a
// private core.System, so two jobs with the same canonical spec must
// produce byte-identical results. The service exploits that three
// ways: the job ID is the SHA-256 of the canonical spec, duplicate
// in-flight submissions coalesce onto the running job
// (singleflight), and completed results are served from an LRU cache
// keyed by the same hash.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"

	"dstore/internal/bench"
	"dstore/internal/cache"
	"dstore/internal/core"
)

// JobSpec is one simulation request: a Table II benchmark, a coherence
// mode, an input size, and optional configuration overrides on top of
// the Table I defaults. Mode and Input default to "direct-store" and
// "small" when empty.
type JobSpec struct {
	Bench  string          `json:"bench"`
	Mode   string          `json:"mode,omitempty"`
	Input  string          `json:"input,omitempty"`
	Config *ConfigOverride `json:"config,omitempty"`
	// Trace additionally records a Chrome trace-event capture of the
	// run, retrievable from GET /v1/runs/{id}/trace. Tracing never
	// changes the simulated result, but a traced job hashes to a
	// different ID than its untraced twin because the artifact set
	// differs.
	Trace bool `json:"trace,omitempty"`
}

// ConfigOverride selects the configuration knobs the API exposes on
// top of core.DefaultConfig. Pointer fields distinguish "absent" from
// a zero value; absent fields keep the Table I default.
type ConfigOverride struct {
	SMs              *int    `json:"sms,omitempty"`
	MaxWarpsPerSM    *int    `json:"max_warps_per_sm,omitempty"`
	GPUL2Bytes       *int    `json:"gpu_l2_bytes,omitempty"`
	GPUL2Ways        *int    `json:"gpu_l2_ways,omitempty"`
	GPUL2Slices      *int    `json:"gpu_l2_slices,omitempty"`
	GPUL2Policy      *string `json:"gpu_l2_policy,omitempty"`
	NoC              *string `json:"noc,omitempty"`
	PrefetchDepth    *int    `json:"prefetch_depth,omitempty"`
	DirectGetx       *bool   `json:"direct_getx,omitempty"`
	DirectOverXbar   *bool   `json:"direct_over_xbar,omitempty"`
	PushWriteThrough *bool   `json:"push_write_through,omitempty"`
	RegionDirectory  *bool   `json:"region_directory,omitempty"`
}

// apply lays the overrides over cfg.
func (o *ConfigOverride) apply(cfg core.Config) core.Config {
	if o == nil {
		return cfg
	}
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setBool := func(dst *bool, src *bool) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&cfg.SMs, o.SMs)
	setInt(&cfg.MaxWarpsPerSM, o.MaxWarpsPerSM)
	setInt(&cfg.GPUL2Bytes, o.GPUL2Bytes)
	setInt(&cfg.GPUL2Ways, o.GPUL2Ways)
	setInt(&cfg.GPUL2Slices, o.GPUL2Slices)
	if o.GPUL2Policy != nil {
		cfg.GPUL2Policy = cache.PolicyKind(*o.GPUL2Policy)
	}
	if o.NoC != nil {
		cfg.NoC = *o.NoC
	}
	setInt(&cfg.PrefetchDepth, o.PrefetchDepth)
	setBool(&cfg.DirectGetx, o.DirectGetx)
	setBool(&cfg.DirectOverXbar, o.DirectOverXbar)
	setBool(&cfg.PushWriteThrough, o.PushWriteThrough)
	setBool(&cfg.RegionDirectory, o.RegionDirectory)
	return cfg
}

// Normalize returns the canonical form of the spec: benchmark code
// upper-cased and verified against Table II, mode and input resolved
// to their canonical names (applying the defaults), and an all-absent
// Config collapsed to nil so it hashes identically to an omitted one.
func (s JobSpec) Normalize() (JobSpec, error) {
	n := s
	n.Bench = strings.ToUpper(strings.TrimSpace(s.Bench))
	known := false
	for _, c := range bench.Codes() {
		if c == n.Bench {
			known = true
			break
		}
	}
	if !known {
		return n, fmt.Errorf("serve: unknown benchmark %q (see /v1/benchmarks)", s.Bench)
	}

	mode := canonicalName(s.Mode, core.ModeDirectStore.String())
	if _, ok := core.ParseMode(mode); !ok {
		return n, fmt.Errorf("serve: unknown mode %q (want ccsm, direct-store or standalone)", s.Mode)
	}
	n.Mode = mode
	in := canonicalName(s.Input, bench.Small.String())
	if _, ok := bench.ParseInput(in); !ok {
		return n, fmt.Errorf("serve: unknown input %q (want small or big)", s.Input)
	}
	n.Input = in

	if n.Config != nil && reflect.DeepEqual(n.Config, &ConfigOverride{}) {
		n.Config = nil
	}
	return n, nil
}

// canonicalName trims and lower-cases a mode or input name; empty
// means def.
func canonicalName(name, def string) string {
	if name = strings.ToLower(strings.TrimSpace(name)); name == "" {
		return def
	}
	return name
}

// BuildConfig resolves the normalized spec to a validated full-system
// configuration: Table I defaults for the spec's mode with the
// overrides applied.
func (s JobSpec) BuildConfig() (core.Config, error) {
	mode, ok := core.ParseMode(s.Mode)
	if !ok {
		mode = core.ModeDirectStore // the default of an unnormalized spec
	}
	cfg := s.Config.apply(core.DefaultConfig(mode))
	if s.Config != nil && s.Config.GPUL2Policy != nil {
		switch cache.PolicyKind(*s.Config.GPUL2Policy) {
		case cache.PolicyLRU, cache.PolicyTreePLRU, cache.PolicyRandom, cache.PolicySRRIP:
		default:
			return cfg, fmt.Errorf("serve: unknown gpu_l2_policy %q", *s.Config.GPUL2Policy)
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// Canonical returns the canonical serialization of the normalized
// spec: the deterministic JSON encoding the job hash is computed over.
func (s JobSpec) Canonical() ([]byte, error) {
	return json.Marshal(s)
}

// ID returns the content address of the normalized spec: the SHA-256
// of its canonical serialization, hex-encoded. Two specs that
// normalize identically always share an ID, which is what makes the
// result cache and singleflight coalescing sound.
func (s JobSpec) ID() (string, error) {
	b, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}
