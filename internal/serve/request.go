package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"

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
	cfgJSON []byte     // canonical effective config (what the ledger records)
	cfgHash string
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
	rr.cfgJSON = cfgJSON
	rr.cfgHash = obs.HashConfig(cfgJSON)
	rr.key = runKey(rr.cfgHash, rr.mix, rr.warmup, rr.measure)
	return rr, nil
}

// ResolveRequest validates a raw POST /v1/runs body exactly as handleSubmit
// would and returns the two cache identities it resolves to. It exists for
// the fleet coordinator, which must compute a request's run key — the
// consistent-hash placement key — without owning a worker pool. The
// returned *APIError (nil on success) carries the same structured document
// a worker would answer with, so the coordinator can reject bad sweep cells
// before dispatching anything.
func ResolveRequest(body []byte, maxInstructions uint64) (runKey, expKey string, apiErr *APIError) {
	req, derr := decodeRunRequest(body)
	if derr != nil {
		return "", "", derr
	}
	rr, err := resolve(req, maxInstructions)
	if err != nil {
		return "", "", &APIError{Code: CodeBadRequest, Message: err.Error()}
	}
	expKey, err = rr.experimentKey()
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
	req, derr := decodeRunRequest(body)
	if derr != nil {
		return "", tenant.Estimate{}, derr
	}
	rr, err := resolve(req, maxInstructions)
	if err != nil {
		return "", tenant.Estimate{}, &APIError{Code: CodeBadRequest, Message: err.Error()}
	}
	return rr.key, tenant.EstimateRun(rr.warmup + rr.measure), nil
}

// runKey is the content address of one run: the ledger's config sha256
// extended with the mix membership and the instruction budgets (the parts
// of the run identity the config JSON does not carry).
func runKey(cfgHash string, mix workload.Mix, warmup, measure uint64) string {
	return fmt.Sprintf("%s|%s:%s|w=%d|m=%d",
		cfgHash, mix.Name, strings.Join(mix.Members, ","), warmup, measure)
}

// experimentKey identifies the alone-run baseline pool the run draws from.
// Baselines are measured on the neutral system (1 core, FR-FCFS, no
// partitioning), so the per-run fields are neutralised before hashing:
// requests that differ only in mix or policy share one sim.Experiment and
// therefore one baseline cache.
func (rr resolvedRun) experimentKey() (string, error) {
	neutral := rr.base
	neutral.Cores = 1
	neutral.Scheduler = sim.SchedFRFCFS
	neutral.Partition = sim.PartNone
	neutral.ScenarioHash = ""
	data, err := sim.MarshalConfig(neutral)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|w=%d|m=%d", obs.HashConfig(data), rr.warmup, rr.measure), nil
}
