package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"

	"dbpsim/internal/serve"
	"dbpsim/internal/tenant"
)

// SweepRequest is the POST /v1/sweeps body: the cross product of workloads
// (mixes and/or inline scenario documents) × schedulers × partitions, all
// sharing one budget/seed/config override. The coordinator expands it into
// one run request per cell and streams results as NDJSON lines (SweepResult)
// as they land, ending with a SweepSummary line.
type SweepRequest struct {
	// Mixes names predefined workload mixes; Scenarios carries inline
	// scenario/v1 timeline documents. At least one of the two must be
	// non-empty; both may be set (the grid is their union).
	Mixes     []string          `json:"mixes,omitempty"`
	Scenarios []json.RawMessage `json:"scenarios,omitempty"`
	// Schedulers and Partitions default to ["frfcfs"] and ["none"].
	Schedulers []string `json:"schedulers,omitempty"`
	Partitions []string `json:"partitions,omitempty"`
	// Warmup/Measure/Seed/Config apply to every cell, with the same
	// semantics as the single-run request body.
	Warmup  *uint64         `json:"warmup,omitempty"`
	Measure uint64          `json:"measure,omitempty"`
	Seed    *int64          `json:"seed,omitempty"`
	Config  json.RawMessage `json:"config,omitempty"`
}

// SweepResult is one NDJSON line of a sweep stream: the cell's grid
// coordinates, where and how it was served, and its ledger (status "done")
// or structured error (status "failed").
type SweepResult struct {
	Mix       string `json:"mix,omitempty"`
	Scenario  string `json:"scenario,omitempty"`
	Scheduler string `json:"scheduler"`
	Partition string `json:"partition"`
	Status    string `json:"status"` // done | failed
	// Worker is the id of the worker that answered; Cache is its X-Cache
	// verdict (hit/miss/coalesced) when one was reported.
	Worker    string  `json:"worker,omitempty"`
	Cache     string  `json:"cache,omitempty"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Ledger carries the cell's run ledger (status "done"). NDJSON framing
	// compacts the embedded document, so LedgerSHA256 additionally names the
	// canonical indented bytes exactly as the worker served them — the hash a
	// single-node GET of the same run returns, which is how fleet-smoke
	// proves byte-identity without re-indenting anything.
	Ledger       json.RawMessage `json:"ledger,omitempty"`
	LedgerSHA256 string          `json:"ledger_sha256,omitempty"`
	Error        *serve.APIError `json:"error,omitempty"`
}

// SweepSummary is the final NDJSON line of a sweep stream.
type SweepSummary struct {
	Summary   bool    `json:"summary"` // always true: distinguishes the line
	Cells     int     `json:"cells"`
	Done      int     `json:"done"`
	Failed    int     `json:"failed"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// sweepCell is one expanded grid point: its labels, its single-run body,
// the placement key the body resolves to, and its admission cost
// (charged per cell at dispatch time, so a long sweep spends quota as it
// progresses rather than all up front).
type sweepCell struct {
	mix       string
	scenario  string
	scheduler string
	partition string
	body      []byte
	key       string
	est       tenant.Estimate
}

// expandSweep validates a sweep and expands the grid. Every cell is
// resolved up front — the placement key doubles as validation, so a sweep
// with any invalid cell is rejected whole before anything dispatches.
func expandSweep(req SweepRequest, maxInstructions uint64) ([]sweepCell, *serve.APIError) {
	if len(req.Mixes) == 0 && len(req.Scenarios) == 0 {
		return nil, &serve.APIError{Code: serve.CodeBadRequest, Message: "sweep needs mixes and/or scenarios"}
	}
	schedulers := req.Schedulers
	if len(schedulers) == 0 {
		schedulers = []string{"frfcfs"}
	}
	partitions := req.Partitions
	if len(partitions) == 0 {
		partitions = []string{"none"}
	}

	type workloadSpec struct {
		mix      string
		scenario json.RawMessage
		scenName string
	}
	var workloads []workloadSpec
	for _, m := range req.Mixes {
		workloads = append(workloads, workloadSpec{mix: m})
	}
	for i, sc := range req.Scenarios {
		// The label is the scenario's own name field; the run identity is its
		// content hash (inside the run key), so a duplicated name cannot
		// alias two different timelines.
		var hdr struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(sc, &hdr); err != nil || hdr.Name == "" {
			hdr.Name = fmt.Sprintf("scenario[%d]", i)
		}
		workloads = append(workloads, workloadSpec{scenario: sc, scenName: hdr.Name})
	}

	cells := make([]sweepCell, 0, len(workloads)*len(schedulers)*len(partitions))
	for _, wl := range workloads {
		for _, sched := range schedulers {
			for _, part := range partitions {
				rr := serve.RunRequest{
					Mix:       wl.mix,
					Scenario:  wl.scenario,
					Scheduler: sched,
					Partition: part,
					Warmup:    req.Warmup,
					Measure:   req.Measure,
					Seed:      req.Seed,
					Config:    req.Config,
				}
				body, err := json.Marshal(rr)
				if err != nil {
					return nil, &serve.APIError{Code: serve.CodeBadRequest, Message: err.Error()}
				}
				key, est, apiErr := serve.ResolveCost(body, maxInstructions)
				if apiErr != nil {
					apiErr.Message = fmt.Sprintf("cell %s/%s/%s: %s",
						cellLabel(wl.mix, wl.scenName), sched, part, apiErr.Message)
					return nil, apiErr
				}
				cells = append(cells, sweepCell{
					mix:       wl.mix,
					scenario:  wl.scenName,
					scheduler: sched,
					partition: part,
					body:      body,
					key:       key,
					est:       est,
				})
			}
		}
	}
	return cells, nil
}

func cellLabel(mix, scenario string) string {
	if scenario != "" {
		return scenario
	}
	return mix
}

// encodeNDJSON marshals one stream line with a trailing newline. Ledger
// bytes pass through as json.RawMessage, so the embedded document stays
// byte-identical to what the worker served.
func encodeNDJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
