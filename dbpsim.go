// Package dbpsim is the public API of the Dynamic Bank Partitioning
// simulator — a reproduction of Xie et al., "Improving system throughput
// and fairness simultaneously in shared memory CMP systems via Dynamic Bank
// Partitioning" (HPCA 2014).
//
// The package re-exports the simulation kernel's entry points. A typical
// session builds a Config, picks a workload Mix, and evaluates one or more
// (scheduler, partition) policy points against alone-run baselines:
//
//	cfg := dbpsim.DefaultConfig(8)
//	exp := dbpsim.NewExperiment(cfg, 200_000, 400_000)
//	mix, _ := dbpsim.MixByName("W8-M1")
//	run, err := exp.RunMix(mix, dbpsim.SchedTCM, dbpsim.PartDBP)
//	fmt.Println(run.Metrics) // WS=… HS=… MS=…
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record of every table and figure.
package dbpsim

import (
	"fmt"
	"sort"
	"strings"

	"dbpsim/internal/fleet"
	"dbpsim/internal/obs"
	"dbpsim/internal/scenario"
	"dbpsim/internal/serve"
	"dbpsim/internal/sim"
	"dbpsim/internal/stats"
	"dbpsim/internal/tenant"
	"dbpsim/internal/workload"
)

// Core configuration and simulation types (see internal/sim).
type (
	// Config describes a complete simulated system.
	Config = sim.Config
	// Bench pairs a benchmark name with its trace generator.
	Bench = sim.Bench
	// System is one assembled simulated machine.
	System = sim.System
	// Result summarises one simulation run.
	Result = sim.Result
	// ThreadResult is one thread's measured behaviour.
	ThreadResult = sim.ThreadResult
	// Experiment evaluates mixes against cached alone-run baselines.
	Experiment = sim.Experiment
	// MixRun is the outcome of one policy on one mix.
	MixRun = sim.MixRun
	// PolicyPoint names one (scheduler, partition) combination.
	PolicyPoint = sim.PolicyPoint
	// SchedulerKind selects the memory request scheduler.
	SchedulerKind = sim.SchedulerKind
	// PartitionKind selects the bank-partitioning policy.
	PartitionKind = sim.PartitionKind
	// Checkpointer configures periodic snapshot emission during a run
	// and/or resume from an earlier snapshot blob.
	Checkpointer = sim.Checkpointer
	// RestoreError is the structured failure a corrupt, truncated, or
	// incompatible checkpoint blob produces on restore.
	RestoreError = sim.RestoreError
)

// Workload types (see internal/workload).
type (
	// Spec describes one synthetic benchmark.
	Spec = workload.Spec
	// Mix is one multi-programmed workload.
	Mix = workload.Mix
)

// Scenario types (see internal/scenario): declarative phase-shifting
// workload timelines for stressing the dynamic policies.
type (
	// Scenario is a versioned, seeded timeline of per-thread phases.
	Scenario = scenario.Scenario
	// ScenarioThread is one tenant's phase sequence.
	ScenarioThread = scenario.Thread
	// ScenarioPhase is one segment of a thread's timeline.
	ScenarioPhase = scenario.Phase
)

// LoadScenario reads and validates a scenario JSON file.
func LoadScenario(path string) (*Scenario, error) { return scenario.Load(path) }

// DecodeScenario parses and validates scenario JSON.
func DecodeScenario(data []byte) (*Scenario, error) { return scenario.Decode(data) }

// ScenarioMix builds the synthetic mix identity a scenario run reports
// under ("scenario:<name>"). It is a label, not a runnable suite mix.
func ScenarioMix(sc *Scenario) Mix { return sim.ScenarioMix(sc) }

// Observability types (see internal/obs).
type (
	// Recorder collects request-lifecycle events and per-epoch series.
	Recorder = obs.Recorder
	// RecorderOptions configures a Recorder.
	RecorderOptions = obs.Options
	// Ledger is the versioned machine-readable record of one run.
	Ledger = obs.Ledger
	// LedgerDiff compares one run ("new") against another ("base").
	LedgerDiff = obs.LedgerDiff
)

// Serving types (see internal/serve): the simulation-as-a-service layer
// behind cmd/dbpserved.
type (
	// Server is the HTTP simulation service: a worker pool with a bounded
	// queue and a content-addressed result cache, answering run ledgers.
	Server = serve.Server
	// ServerOptions configures a Server.
	ServerOptions = serve.Options
	// RunRequest is the POST /v1/runs body.
	RunRequest = serve.RunRequest
	// APIError is the service's structured error schema: every non-2xx
	// response body carries {"error": {code, message, retryable}}.
	APIError = serve.APIError
)

// Tenancy types (see internal/tenant): the multi-tenant layer behind
// dbpserved's -tenants flag — per-tenant API keys, token-bucket quotas,
// priority lanes, and the simcycle price admission control charges.
type (
	// TenantRegistry authenticates API keys against a reloadable tenant
	// config file and hands out per-tenant quota state.
	TenantRegistry = tenant.Registry
	// TenantSpec is one tenant's configuration record (key, weight, lane,
	// quotas).
	TenantSpec = tenant.Spec
	// CostEstimate is a run's admission cost in simcycles, (warmup +
	// measure) × 2: what quota buckets are charged and the weighted-fair
	// queue schedules by.
	CostEstimate = tenant.Estimate
)

// NewTenantRegistry loads a tenant config file and watches it for changes
// (reloads are lazy, throttled, and keep the last good config on error).
func NewTenantRegistry(path string) (*TenantRegistry, error) { return tenant.NewRegistry(path) }

// Fleet types (see internal/fleet): the sharded-cluster layer behind
// dbpserved's -coordinator and -join modes.
type (
	// Coordinator owns fleet placement: the worker registry, the
	// consistent-hash ring over run keys, and the checkpoint mirror that
	// makes in-flight runs migratable.
	Coordinator = fleet.Coordinator
	// CoordinatorOptions configures a Coordinator.
	CoordinatorOptions = fleet.CoordinatorOptions
	// FleetWorker wraps a Server with the fleet surface: owner-forwarding
	// and checkpoint staging.
	FleetWorker = fleet.Worker
	// FleetWorkerOptions configures a FleetWorker.
	FleetWorkerOptions = fleet.WorkerOptions
	// SweepRequest is the POST /v1/sweeps body: a workload × scheduler ×
	// partition grid evaluated as one streamed batch.
	SweepRequest = fleet.SweepRequest
	// SweepResult is one NDJSON line of a sweep stream (one grid cell).
	SweepResult = fleet.SweepResult
	// SweepSummary is the final NDJSON line of a sweep stream.
	SweepSummary = fleet.SweepSummary
)

// NewCoordinator builds a fleet coordinator with an empty worker registry.
// With CoordinatorOptions.JournalDir set, it first replays the coordinator
// journal; call Coordinator.Resume once the listener is up to reconcile
// with live workers and restart unfinished sweeps.
func NewCoordinator(opt CoordinatorOptions) (*Coordinator, error) { return fleet.NewCoordinator(opt) }

// NewServer builds a simulation server and starts its worker pool (and, if
// ServerOptions.JournalDir is set, replays the on-disk job journal). It is
// an http.Handler; shut it down with Close to drain in-flight runs.
func NewServer(opt ServerOptions) (*Server, error) { return serve.New(opt) }

// Metric types (see internal/stats).
type (
	// SystemMetrics holds weighted speedup, harmonic speedup and maximum
	// slowdown.
	SystemMetrics = stats.SystemMetrics
	// ThreadPerf pairs shared and alone IPC for one thread.
	ThreadPerf = stats.ThreadPerf
)

// Scheduler kinds.
const (
	SchedFCFS   = sim.SchedFCFS
	SchedFRFCFS = sim.SchedFRFCFS
	SchedTCM    = sim.SchedTCM
	SchedATLAS  = sim.SchedATLAS
	SchedPARBS  = sim.SchedPARBS
	// SchedFRFCFSCap and SchedBLISS are lightweight fairness baselines.
	SchedFRFCFSCap = sim.SchedFRFCFSCap
	SchedBLISS     = sim.SchedBLISS
)

// Partition kinds.
const (
	PartNone  = sim.PartNone
	PartEqual = sim.PartEqual
	PartDBP   = sim.PartDBP
	PartMCP   = sim.PartMCP
	PartFixed = sim.PartFixed
)

// DefaultConfig returns the paper-style baseline system for the given core
// count.
func DefaultConfig(cores int) Config { return sim.DefaultConfig(cores) }

// NewSystem assembles a system running the given benchmarks (one per core).
func NewSystem(cfg Config, benches []Bench) (*System, error) {
	return sim.NewSystem(cfg, benches)
}

// NewExperiment builds an experiment harness with per-core warmup and
// measurement instruction budgets.
func NewExperiment(cfg Config, warmup, measure uint64) *Experiment {
	return sim.NewExperiment(cfg, warmup, measure)
}

// StandardPolicies returns the paper's six comparison points.
func StandardPolicies() []PolicyPoint { return sim.StandardPolicies() }

// LoadConfig reads a JSON configuration file as a partial override of base.
func LoadConfig(path string, base Config) (Config, error) { return sim.LoadConfig(path, base) }

// SaveConfig writes a configuration file as indented JSON.
func SaveConfig(path string, c Config) error { return sim.SaveConfig(path, c) }

// NewRecorder builds an observability recorder; pass it to
// Experiment.RunMixCheckpointedContext or RunScenarioCheckpointedContext
// (shared runs only), or to System.AttachRecorder.
func NewRecorder(opt RecorderOptions) (*Recorder, error) { return obs.NewRecorder(opt) }

// BuildLedger assembles the machine-readable run ledger for one mix run.
func BuildLedger(tool string, base Config, warmup, measure uint64, run MixRun, rec *Recorder) (Ledger, error) {
	return sim.BuildLedger(tool, base, warmup, measure, run, rec)
}

// SaveLedger writes a run-ledger JSON file.
func SaveLedger(path string, l Ledger) error { return obs.SaveLedger(path, l) }

// LoadLedger reads and validates a run-ledger JSON file.
func LoadLedger(path string) (Ledger, error) { return obs.LoadLedger(path) }

// LoadLedgerBytes parses and validates an in-memory run-ledger document
// (e.g. a dbpserved response body).
func LoadLedgerBytes(data []byte) (Ledger, error) { return obs.UnmarshalLedger(data) }

// DiffLedgers compares two ledgers: how does new improve on base?
func DiffLedgers(base, new Ledger) LedgerDiff { return obs.Diff(base, new) }

// Suite returns the 18-benchmark evaluation suite.
func Suite() []Spec { return workload.Suite() }

// BenchByName finds a benchmark spec by name.
func BenchByName(name string) (Spec, bool) { return workload.ByName(name) }

// Mixes8 returns the default twelve 8-core evaluation mixes.
func Mixes8() []Mix { return workload.Mixes8() }

// Mixes4 returns the 4-core sensitivity mixes.
func Mixes4() []Mix { return workload.Mixes4() }

// Mixes16 returns the 16-core sensitivity mixes.
func Mixes16() []Mix { return workload.Mixes16() }

// MixByName looks a mix up across all defined mix sets.
func MixByName(name string) (Mix, bool) { return workload.MixByName(name) }

// RandomMix builds a reproducible mix of the given core count and category
// (L/M/H heavy share) from a seed.
func RandomMix(name string, cores int, category string, seed int64) (Mix, error) {
	return workload.RandomMix(name, cores, category, seed)
}

// Comparison is the outcome of evaluating several policies on one mix.
type Comparison struct {
	// Mix is the workload evaluated.
	Mix Mix
	// Runs holds one entry per policy, in the order given.
	Runs []MixRun
}

// ComparePolicies evaluates every policy point on the mix, sharing
// alone-run baselines through the experiment's cache.
func ComparePolicies(exp *Experiment, mix Mix, policies []PolicyPoint) (Comparison, error) {
	c := Comparison{Mix: mix}
	for _, p := range policies {
		run, err := exp.RunMix(mix, p.Scheduler, p.Partition)
		if err != nil {
			return Comparison{}, fmt.Errorf("dbpsim: %s on %s: %w", p.Label, mix.Name, err)
		}
		c.Runs = append(c.Runs, run)
	}
	return c, nil
}

// Format renders the comparison as an aligned text table (one row per
// policy).
func (c Comparison) Format(labels []PolicyPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %8s\n", c.Mix.Name, "WS", "HS", "MS")
	for i, run := range c.Runs {
		label := string(run.Scheduler) + "/" + string(run.Partition)
		if i < len(labels) {
			label = labels[i].Label
		}
		fmt.Fprintf(&b, "%-10s %8.3f %8.3f %8.3f\n", label,
			run.Metrics.WeightedSpeedup, run.Metrics.HarmonicSpeedup, run.Metrics.MaxSlowdown)
	}
	return b.String()
}

// SuiteAverage averages one policy's metrics across several comparisons
// (the paper's suite-wide bars). The policy is selected by its index in
// each comparison's run list.
func SuiteAverage(comparisons []Comparison, policyIdx int) SystemMetrics {
	var runs []SystemMetrics
	for _, c := range comparisons {
		if policyIdx < len(c.Runs) {
			runs = append(runs, c.Runs[policyIdx].Metrics)
		}
	}
	return stats.MeanAcross(runs)
}

// SortMixesByCategory orders mixes L, M, H (then by name) for stable report
// layout.
func SortMixesByCategory(mixes []Mix) []Mix {
	out := append([]Mix(nil), mixes...)
	rank := map[string]int{"L": 0, "M": 1, "H": 2}
	sort.Slice(out, func(i, j int) bool {
		if rank[out[i].Category] != rank[out[j].Category] {
			return rank[out[i].Category] < rank[out[j].Category]
		}
		return out[i].Name < out[j].Name
	})
	return out
}
