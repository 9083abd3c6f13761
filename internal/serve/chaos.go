package serve

import (
	"encoding/json"
	"net/http"

	"dstore/internal/chaos"
	"dstore/internal/core"
)

// chaosRequest is the body of POST /v1/chaos: a seeded fault profile
// and the stress-harness shape. Zero fields take the harness defaults.
type chaosRequest struct {
	Seed    uint64 `json:"seed"`
	Profile string `json:"profile"`
	Mode    string `json:"mode,omitempty"`
	Ops     int    `json:"ops,omitempty"`
	Rounds  int    `json:"rounds,omitempty"`
	Agents  int    `json:"agents,omitempty"`
	Lines   int    `json:"lines,omitempty"`
	Kernels bool   `json:"kernels,omitempty"`
	// Instances runs a sweep of independent stress runs (seeds Seed,
	// Seed+1, ...) across Workers goroutines. Default 1.
	Instances int `json:"instances,omitempty"`
	Workers   int `json:"workers,omitempty"`
}

// chaosInstance is one stress run's outcome in the response.
type chaosInstance struct {
	Seed       uint64   `json:"seed"`
	OK         bool     `json:"ok"`
	Ops        int      `json:"ops"`
	Ticks      uint64   `json:"ticks"`
	Faults     uint64   `json:"faults_injected"`
	Nacks      uint64   `json:"nacks"`
	Retries    uint64   `json:"retries"`
	Violations []string `json:"violations,omitempty"`
	Transcript string   `json:"transcript"`
}

// maxChaosInstances bounds one soak request; larger campaigns should
// issue multiple requests.
const maxChaosInstances = 256

// handleChaos implements POST /v1/chaos: run the fault-injection
// stress harness synchronously and report every instance's transcript
// and violations. Gated behind Options.EnableChaos — soak testing is
// an operator action, not part of the public result API.
func (s *Server) handleChaos(w http.ResponseWriter, r *http.Request) {
	if !s.opt.EnableChaos {
		writeError(w, http.StatusForbidden, "chaos endpoint disabled (start the server with chaos enabled)")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	var req chaosRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad chaos request: %v", err)
		return
	}
	prof, err := chaos.ProfileByName(req.Profile)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The mode resolves like a job spec's, minus the case folding.
	mode, ok := core.ModeDirectStore, true
	if req.Mode != "" {
		mode, ok = core.ParseMode(req.Mode)
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "serve: unknown mode %q (want ccsm, direct-store or standalone)", req.Mode)
		return
	}
	if req.Instances < 1 {
		req.Instances = 1
	}
	if req.Instances > maxChaosInstances {
		writeError(w, http.StatusBadRequest, "instances %d exceeds limit %d", req.Instances, maxChaosInstances)
		return
	}
	workers := req.Workers
	if workers < 1 {
		workers = s.opt.Workers
	}
	cfg := chaos.StressConfig{
		Seed: req.Seed, Ops: req.Ops, Rounds: req.Rounds,
		Agents: req.Agents, Lines: req.Lines,
		Mode: mode, Profile: prof, Kernels: req.Kernels,
	}
	results, sweepErr := chaos.RunSweep(cfg, req.Instances, workers)

	instances := make([]chaosInstance, 0, len(results))
	failed := 0
	for _, res := range results {
		if res == nil {
			continue
		}
		s.chaosFaults.Add(res.FaultsInjected)
		s.chaosNacks.Add(res.Nacks)
		s.chaosRetries.Add(res.Retries)
		if res.Failed() {
			failed++
		}
		instances = append(instances, chaosInstance{
			Seed: res.Seed, OK: !res.Failed(), Ops: res.Ops,
			Ticks: uint64(res.Ticks), Faults: res.FaultsInjected,
			Nacks: res.Nacks, Retries: res.Retries,
			Violations: res.Violations, Transcript: res.Transcript,
		})
	}
	resp := map[string]any{
		"profile":   prof.Name,
		"mode":      mode.String(),
		"instances": instances,
		"failed":    failed,
		"ok":        sweepErr == nil,
	}
	if sweepErr != nil {
		resp["error"] = sweepErr.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}
