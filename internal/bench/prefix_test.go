package bench

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dstore/internal/core"
	"dstore/internal/obs"
)

// mapStore is a trivial SnapshotStore for tests.
type mapStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
	gets int
}

func newMapStore() *mapStore { return &mapStore{m: make(map[string][]byte)} }

func (s *mapStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[key]
	if ok {
		s.gets++
	}
	return b, ok
}

func (s *mapStore) Put(key string, snapshot []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), snapshot...)
	s.puts++
}

// TestSnapshotRoundTripGolden is the golden round-trip guarantee: a
// run resumed from a post-produce snapshot produces a byte-identical
// Result to the uninterrupted run, across benchmarks, modes and
// configurations. Each case runs the one run body down every branch,
// with and without a host clock: cold, store miss (produce, then
// store the snapshot) and store hit (restore, then resume), all
// pinned against one plain run.
func TestSnapshotRoundTripGolden(t *testing.T) {
	cases := []struct {
		code string
		mode core.Mode
		tune func(*core.Config)
	}{
		{"MM", core.ModeDirectStore, nil},
		{"MM", core.ModeCCSM, nil},
		{"BF", core.ModeDirectStore, nil},
		{"NW", core.ModeCCSM, func(c *core.Config) { c.GPUL2Policy = "srrip" }},
		{"MM", core.ModeDirectStore, func(c *core.Config) { c.NoC = "ring" }},
		{"MM", core.ModeDirectStore, func(c *core.Config) { c.RegionDirectory = true }},
	}
	var fake uint64
	counting := func() uint64 { fake += 7; return fake }
	ctx := context.Background()
	for _, tc := range cases {
		cfg := core.DefaultConfig(tc.mode)
		if tc.tune != nil {
			tc.tune(&cfg)
		}
		want, err := RunWithConfigContext(ctx, tc.code, cfg, Small)
		if err != nil {
			t.Fatalf("%s/%s: plain run: %v", tc.code, tc.mode, err)
		}
		for _, clock := range []obs.Clock{nil, counting} {
			name := fmt.Sprintf("%s/%s/clock=%v", tc.code, tc.mode, clock != nil)
			check := func(branch string, got Result, hp HostPhases, hit, wantHit bool, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %s: %v", name, branch, err)
				}
				if hit != wantHit {
					t.Fatalf("%s: %s: restored=%v, want %v", name, branch, hit, wantHit)
				}
				if clock != nil && (hp.SetupNS == 0 || hp.RunNS == 0 || hp.ReportNS == 0) {
					t.Fatalf("%s: %s: host clock not read in every phase: %+v", name, branch, hp)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s: %s result diverged from the plain run:\nwant: %+v\n got: %+v", name, branch, want, got)
				}
			}

			cold, hp, hit, err := run(ctx, tc.code, cfg, Small, nil, clock)
			check("cold", cold, hp, hit, false, err)

			store := newMapStore()
			first, hp, hit, err := run(ctx, tc.code, cfg, Small, store, clock)
			check("store miss", first, hp, hit, false, err)
			if store.puts != 1 {
				t.Fatalf("%s: store miss stored %d snapshots, want 1", name, store.puts)
			}

			warm, hp, hit, err := run(ctx, tc.code, cfg, Small, store, clock)
			check("store hit", warm, hp, hit, true, err)
		}
	}
}

// TestSnapshotPrefixSharedAcrossGPUConfigs checks the point of the
// scheme: jobs differing only in GPU-pipeline knobs share one
// produce-prefix snapshot, and the restored runs still match their
// own uninterrupted twins exactly.
func TestSnapshotPrefixSharedAcrossGPUConfigs(t *testing.T) {
	base := core.DefaultConfig(core.ModeDirectStore)
	varied := base
	varied.SMs = 8
	varied.MaxWarpsPerSM = base.MaxWarpsPerSM / 2
	varied.GPUL1Bytes = base.GPUL1Bytes * 2

	kb, okb := PrefixKey("MM", base, Small)
	kv, okv := PrefixKey("MM", varied, Small)
	if !okb || !okv {
		t.Fatal("MM/small should be memoizable")
	}
	if kb != kv {
		t.Fatalf("GPU-pipeline-only config change altered the prefix key:\n%s\n%s", kb, kv)
	}
	if kd, _ := PrefixKey("MM", base, Big); kd == kb {
		t.Fatal("input change did not alter the prefix key")
	}
	slice := base
	slice.GPUL2Bytes = base.GPUL2Bytes / 2
	if ks, _ := PrefixKey("MM", slice, Small); ks == kb {
		t.Fatal("L2 slice geometry change did not alter the prefix key (slices participate in produce)")
	}

	store := newMapStore()
	if _, hit, err := RunWithSnapshotContext(context.Background(), "MM", base, Small, store); err != nil || hit {
		t.Fatalf("seed run: hit=%v err=%v", hit, err)
	}

	coldVaried, err := RunWithConfigContext(context.Background(), "MM", varied, Small)
	if err != nil {
		t.Fatalf("cold varied run: %v", err)
	}
	warmVaried, hit, err := RunWithSnapshotContext(context.Background(), "MM", varied, Small, store)
	if err != nil {
		t.Fatalf("warm varied run: %v", err)
	}
	if !hit {
		t.Fatal("varied-GPU job did not reuse the shared produce prefix")
	}
	if !reflect.DeepEqual(coldVaried, warmVaried) {
		t.Fatalf("cross-config resume diverged:\ncold: %+v\nwarm: %+v", coldVaried, warmVaried)
	}
}

// TestSnapshotIneligible pins the bypass conditions: unknown phase
// structure (GPU-initialised benchmarks) and chaos runs never
// memoize.
func TestSnapshotIneligible(t *testing.T) {
	cfg := core.DefaultConfig(core.ModeDirectStore)
	for _, code := range Codes() {
		p, ok := find(code)
		if !ok {
			t.Fatalf("unknown code %s", code)
		}
		_, eligible := PrefixKey(code, cfg, Small)
		if eligible != p.cpuProduces {
			t.Errorf("%s: eligible=%v, cpuProduces=%v", code, eligible, p.cpuProduces)
		}
	}
	chaotic := cfg
	chaotic.Chaos = &core.ChaosConfig{}
	if _, ok := PrefixKey("MM", chaotic, Small); ok {
		t.Error("chaos run reported memoizable")
	}
}
