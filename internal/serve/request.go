package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"

	"dbpsim/internal/obs"
	"dbpsim/internal/scenario"
	"dbpsim/internal/sim"
	"dbpsim/internal/tenant"
	"dbpsim/internal/workload"
)

// Default per-core instruction budgets for requests that omit them — the
// same defaults as the dbpsim CLI, so a bare {"mix": "W8-M1"} request and a
// bare `dbpsim -mix W8-M1 -json` invocation describe the identical run.
const (
	DefaultWarmup  = 200_000
	DefaultMeasure = 400_000
)

// RunRequest is the POST /v1/runs body: everything that identifies one
// simulation run. Omitted fields take the CLI defaults, so the minimal
// request is {"mix": "W8-M1"}.
type RunRequest struct {
	// Mix names a predefined workload mix (see dbpsim -list). Ignored when
	// Benchmarks is set.
	Mix string `json:"mix,omitempty"`
	// Benchmarks is an explicit benchmark list (one per core), overriding
	// Mix — the service's equivalent of dbpsim -benchmarks.
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Scenario is an inline phase-shifting scenario document (the same
	// scenario/v1 JSON the CLI loads with -scenario). It overrides both Mix
	// and Benchmarks: the timeline decides the thread count, and the run is
	// cached under the scenario's content hash.
	Scenario json.RawMessage `json:"scenario,omitempty"`
	// Scheduler and Partition name the policy point (defaults: frfcfs/none).
	Scheduler string `json:"scheduler,omitempty"`
	Partition string `json:"partition,omitempty"`
	// Warmup and Measure are per-core instruction budgets. Measure 0 means
	// DefaultMeasure; Warmup nil means DefaultWarmup (0 is an explicit
	// no-warmup request).
	Warmup  *uint64 `json:"warmup,omitempty"`
	Measure uint64  `json:"measure,omitempty"`
	// Seed overrides the config seed when set.
	Seed *int64 `json:"seed,omitempty"`
	// Config is a partial sim.Config override (same schema as the CLI's
	// -config file), applied on top of the defaults for the mix's core
	// count. Unknown fields are rejected.
	Config json.RawMessage `json:"config,omitempty"`
}

// resolvedRun is a validated request bound to concrete simulator inputs,
// plus key, the content address of the run (config hash, mix membership,
// budgets) that the result cache uses. The alone-run baseline identity is
// derived only when a run executes (see experimentKey).
type resolvedRun struct {
	scen    *scenario.Scenario // non-nil for scenario runs
	mix     workload.Mix
	sched   sim.SchedulerKind
	part    sim.PartitionKind
	base    sim.Config // experiment template; per-run fields reapplied by RunMix
	cfgHash string     // sha256 of the effective config the ledger records
	warmup  uint64
	measure uint64
	key     string
}

// resolve validates a request against the sim/workload layer and binds it
// to concrete inputs. maxInstructions, when non-zero, caps warmup+measure
// (the service's guard against a single request monopolising a worker).
func resolve(req RunRequest, maxInstructions uint64) (resolvedRun, error) {
	var rr resolvedRun

	// Workload: a scenario timeline wins, then an explicit benchmark list,
	// else a named mix. Scenario mixes are synthetic labels ("scenario:<name>"
	// with thread names as members) and must not be suite-validated.
	if len(req.Scenario) > 0 {
		sc, err := scenario.Decode(req.Scenario)
		if err != nil {
			return rr, err
		}
		rr.scen = sc
		rr.mix = sim.ScenarioMix(sc)
	} else if len(req.Benchmarks) > 0 {
		members := make([]string, len(req.Benchmarks))
		for i, name := range req.Benchmarks {
			members[i] = strings.TrimSpace(name)
		}
		rr.mix = workload.Mix{Name: "custom", Category: "?", Members: members}
		if err := rr.mix.Validate(); err != nil {
			return rr, err
		}
	} else {
		if req.Mix == "" {
			return rr, fmt.Errorf("serve: request needs a mix name or a benchmarks list")
		}
		mix, ok := workload.MixByName(req.Mix)
		if !ok {
			return rr, fmt.Errorf("serve: unknown mix %q", req.Mix)
		}
		rr.mix = mix
	}

	// Budgets.
	rr.warmup = DefaultWarmup
	if req.Warmup != nil {
		rr.warmup = *req.Warmup
	}
	rr.measure = req.Measure
	if rr.measure == 0 {
		rr.measure = DefaultMeasure
	}
	if rr.warmup > math.MaxUint64-rr.measure {
		return rr, fmt.Errorf("serve: warmup %d + measure %d overflows", rr.warmup, rr.measure)
	}
	if maxInstructions > 0 && rr.warmup+rr.measure > maxInstructions {
		return rr, fmt.Errorf("serve: warmup+measure %d exceeds the server's per-run cap %d",
			rr.warmup+rr.measure, maxInstructions)
	}

	// Configuration: defaults for the core count, then the partial override
	// (validated with unknown fields rejected), then the per-run fields.
	base := sim.DefaultConfig(rr.mix.Cores())
	if req.Seed != nil {
		base.Seed = *req.Seed
	}
	if len(req.Config) > 0 {
		loaded, err := sim.UnmarshalConfig(req.Config, base)
		if err != nil {
			return rr, err
		}
		base = loaded
	}
	base.Cores = rr.mix.Cores() // the mix decides the core count

	rr.sched = sim.SchedFRFCFS
	if req.Scheduler != "" {
		rr.sched = sim.SchedulerKind(req.Scheduler)
	}
	rr.part = sim.PartNone
	if req.Partition != "" {
		rr.part = sim.PartitionKind(req.Partition)
	}

	// The effective config is exactly what sim.BuildLedger will record;
	// validating it here front-loads every config error to the 400 path.
	cfg := base
	cfg.Scheduler = rr.sched
	cfg.Partition = rr.part
	if rr.scen != nil {
		// The scenario hash joins the config identity, so the run key (and
		// with it the result cache and the job journal) distinguishes runs
		// by timeline content, not just by the "scenario:<name>" label.
		cfg.ScenarioHash = rr.scen.Hash()
	}
	if err := cfg.Validate(); err != nil {
		return rr, err
	}
	cfgJSON, err := sim.MarshalConfig(cfg)
	if err != nil {
		return rr, err
	}
	rr.base = base
	rr.cfgHash = obs.HashConfig(cfgJSON)
	rr.key = sim.RunKey(rr.cfgHash, rr.mix, rr.warmup, rr.measure)
	return rr, nil
}

// decodeRunRequest parses a POST /v1/runs body with unknown fields
// rejected. Split out (and fuzzed) so every malformed body maps to a
// structured bad_request error, never a panic.
func decodeRunRequest(body []byte) (RunRequest, *APIError) {
	var req RunRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return RunRequest{}, &APIError{Code: CodeBadRequest, Message: fmt.Sprintf("decode request: %v", err)}
	}
	// A second JSON document in the body is a client bug; reject rather
	// than silently ignoring it.
	if dec.More() {
		return RunRequest{}, &APIError{Code: CodeBadRequest, Message: "decode request: trailing data after JSON body"}
	}
	return req, nil
}

// resolveBody decodes a raw POST /v1/runs body and resolves it: the one
// path from request bytes to a bound run. Every failure is a structured
// bad_request.
func resolveBody(body []byte, maxInstructions uint64) (resolvedRun, *APIError) {
	req, apiErr := decodeRunRequest(body)
	if apiErr != nil {
		return resolvedRun{}, apiErr
	}
	rr, err := resolve(req, maxInstructions)
	if err != nil {
		return resolvedRun{}, &APIError{Code: CodeBadRequest, Message: err.Error()}
	}
	return rr, nil
}

// The resolve memo's bounds: at most maxMemoRuns entries, and only runs
// whose key is at most maxMemoKeyBytes long (a scenario's name and thread
// names are part of its key). Every entry is therefore small and bounded;
// docs/SERVICE.md gives the memo's resident bytes at the bound.
const (
	maxMemoRuns     = 1024
	maxMemoKeyBytes = 512
)

// memoRun is what the memo keeps of a resolved body: enough for a cache
// hit, a coalesced join and quota admission. A run that must execute is
// resolved afresh, so no resolvedRun is shared between requests.
type memoRun struct {
	key string // run key (see sim.RunKey)
	est tenant.Estimate
}

// resolveMemo maps the sha256 of recently seen request bodies to their run
// keys and cost estimates, so a repeated body skips decoding and resolving.
// With maxInstructions fixed for the memo's life, resolveBody is a pure
// function of the body, so a memoised entry is exactly what a fresh resolve
// would yield. Errors are never stored; when full, an arbitrary entry makes
// room.
type resolveMemo struct {
	maxInstructions uint64

	mu   sync.Mutex
	runs map[[sha256.Size]byte]memoRun
}

// resolve returns the memoised entry for body, or resolves it and stores
// the entry when it succeeds. fresh is the full run when this call resolved
// it, nil on a memo hit.
func (m *resolveMemo) resolve(body []byte) (mr memoRun, fresh *resolvedRun, apiErr *APIError) {
	sum := sha256.Sum256(body)
	m.mu.Lock()
	mr, ok := m.runs[sum]
	m.mu.Unlock()
	if ok {
		return mr, nil, nil
	}
	rr, apiErr := resolveBody(body, m.maxInstructions)
	if apiErr != nil {
		return memoRun{}, nil, apiErr
	}
	mr = memoRun{key: rr.key, est: tenant.EstimateRun(rr.warmup + rr.measure)}
	if len(mr.key) > maxMemoKeyBytes {
		return mr, &rr, nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.runs == nil {
		m.runs = make(map[[sha256.Size]byte]memoRun)
	}
	for evict := range m.runs {
		if len(m.runs) < maxMemoRuns {
			break
		}
		delete(m.runs, evict)
	}
	m.runs[sum] = mr
	return mr, &rr, nil
}

// ResolveRequest validates a raw POST /v1/runs body exactly as handleSubmit
// would and returns the two cache identities it resolves to. It exists for
// the fleet coordinator, which must compute a request's run key — the
// consistent-hash placement key — without owning a worker pool. The
// returned *APIError (nil on success) carries the same structured document
// a worker would answer with, so the coordinator can reject bad sweep cells
// before dispatching anything.
func ResolveRequest(body []byte, maxInstructions uint64) (runKey, expKey string, apiErr *APIError) {
	rr, apiErr := resolveBody(body, maxInstructions)
	if apiErr != nil {
		return "", "", apiErr
	}
	expKey, err := rr.experimentKey()
	if err != nil {
		return "", "", &APIError{Code: CodeBadRequest, Message: err.Error()}
	}
	return rr.key, expKey, nil
}

// ResolveCost validates a raw POST /v1/runs body like ResolveRequest and
// returns its run key and admission cost. The fleet coordinator charges
// entry-node quotas with this, so a run costs the same wherever it enters
// the fleet.
func ResolveCost(body []byte, maxInstructions uint64) (runKey string, est tenant.Estimate, apiErr *APIError) {
	rr, apiErr := resolveBody(body, maxInstructions)
	if apiErr != nil {
		return "", tenant.Estimate{}, apiErr
	}
	return rr.key, tenant.EstimateRun(rr.warmup + rr.measure), nil
}

// experimentKey identifies the alone-run baseline pool the run draws from
// (see sim.ExperimentKey).
func (rr resolvedRun) experimentKey() (string, error) {
	return sim.ExperimentKey(rr.base, rr.warmup, rr.measure)
}
