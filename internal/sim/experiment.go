package sim

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"

	"dbpsim/internal/obs"
	"dbpsim/internal/scenario"
	"dbpsim/internal/stats"
	"dbpsim/internal/workload"
)

// Experiment runs workload mixes under different policies against shared
// alone-run baselines, producing the paper's system metrics. Alone IPCs are
// cached per (benchmark, seed) so that the same mix evaluated under several
// policies reuses its baselines.
type Experiment struct {
	// Base is the configuration template; Cores, Scheduler and Partition
	// are overridden per run.
	Base Config
	// Warmup and Measure are per-core instruction counts.
	Warmup  uint64
	Measure uint64
	// MaxCycles bounds each run (0 = automatic).
	MaxCycles uint64
	// DisableCycleSkipping turns off the event-driven clock-jump fast path
	// on every system the experiment builds (mix runs and alone baselines).
	// Skipping is bit-identical to per-cycle execution (asserted by test),
	// so this exists for A/B validation and performance comparison, not
	// correctness.
	DisableCycleSkipping bool

	mu       sync.Mutex
	aloneIPC map[string]float64
}

// NewExperiment builds an experiment harness.
func NewExperiment(base Config, warmup, measure uint64) *Experiment {
	return &Experiment{
		Base:     base,
		Warmup:   warmup,
		Measure:  measure,
		aloneIPC: make(map[string]float64),
	}
}

// RunKey is the content address of one run: the ledger's config sha256
// extended with the mix membership and the instruction budgets (the parts
// of the run identity the config JSON does not carry). Journals, result
// caches and fleet ring placement depend on these exact bytes.
func RunKey(cfgHash string, mix workload.Mix, warmup, measure uint64) string {
	return fmt.Sprintf("%s|%s:%s|w=%d|m=%d",
		cfgHash, mix.Name, strings.Join(mix.Members, ","), warmup, measure)
}

// ExperimentKey identifies the alone-run baseline pool a run on base draws
// from. Baselines are measured on the neutral system (1 core, FR-FCFS, no
// partitioning), so the per-run fields are neutralised before hashing: runs
// that differ only in mix or policy share one Experiment and therefore one
// baseline cache.
func ExperimentKey(base Config, warmup, measure uint64) (string, error) {
	neutral := base
	neutral.Cores = 1
	neutral.Scheduler = SchedFRFCFS
	neutral.Partition = PartNone
	neutral.ScenarioHash = ""
	data, err := MarshalConfig(neutral)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%s|w=%d|m=%d", obs.HashConfig(data), warmup, measure), nil
}

// seedFor derives a stable per-occurrence seed so that alone and shared
// runs replay the identical trace, and so that duplicated benchmarks in one
// mix do not march in lockstep.
func (e *Experiment) seedFor(name string, occurrence int) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(name))
	return e.Base.Seed + int64(h.Sum64()%1_000_003) + int64(occurrence)*7919
}

// benches materialises a mix's generators with stable seeds.
func (e *Experiment) benches(mix workload.Mix) ([]Bench, []int64, error) {
	occ := map[string]int{}
	out := make([]Bench, len(mix.Members))
	seeds := make([]int64, len(mix.Members))
	for i, name := range mix.Members {
		spec, ok := workload.ByName(name)
		if !ok {
			return nil, nil, fmt.Errorf("sim: unknown benchmark %q in mix %s", name, mix.Name)
		}
		seed := e.seedFor(name, occ[name])
		occ[name]++
		out[i] = Bench{Name: name, Gen: spec.New(seed)}
		seeds[i] = seed
	}
	return out, seeds, nil
}

// AloneIPC measures (or recalls) a benchmark's alone-run IPC on the
// baseline system: one core, FR-FCFS, no partitioning, all banks. It is
// safe for concurrent use (runs are deterministic, so a racing duplicate
// computation is wasted work, never a wrong answer).
func (e *Experiment) AloneIPC(name string, seed int64) (float64, error) {
	return e.aloneBench(context.Background(), name, seed)
}

// aloneBench is AloneIPC under ctx.
func (e *Experiment) aloneBench(ctx context.Context, name string, seed int64) (float64, error) {
	spec, ok := workload.ByName(name)
	if !ok {
		return 0, fmt.Errorf("sim: unknown benchmark %q", name)
	}
	return e.alone(ctx, fmt.Sprintf("%s/%d", name, seed), Bench{Name: name, Gen: spec.New(seed)}, nil)
}

// alone measures (or recalls) the alone-run IPC of one thread, cached under
// key: bench on the baseline system, driven by the scenario runtime rt when
// it is non-nil. A canceled run is never cached.
func (e *Experiment) alone(ctx context.Context, key string, bench Bench, rt *scenario.Runtime) (float64, error) {
	e.mu.Lock()
	ipc, ok := e.aloneIPC[key]
	e.mu.Unlock()
	if ok {
		return ipc, nil
	}
	cfg := e.Base
	cfg.Cores = 1
	cfg.Scheduler = SchedFRFCFS
	cfg.Partition = PartNone
	sys, err := e.newSystem(cfg, []Bench{bench}, rt)
	if err != nil {
		return 0, err
	}
	res, err := sys.RunContext(ctx, e.Warmup, e.Measure, e.MaxCycles)
	if err != nil {
		what := bench.Name
		if rt != nil {
			what = "scenario thread " + what
		}
		return 0, fmt.Errorf("sim: alone run of %s: %w", what, err)
	}
	ipc = res.Threads[0].IPC
	e.mu.Lock()
	e.aloneIPC[key] = ipc
	e.mu.Unlock()
	return ipc, nil
}

// newSystem builds a system with the experiment's cycle-skipping setting,
// driven by the scenario runtime rt when it is non-nil.
func (e *Experiment) newSystem(cfg Config, benches []Bench, rt *scenario.Runtime) (*System, error) {
	sys, err := NewSystem(cfg, benches)
	if err != nil {
		return nil, err
	}
	sys.SetCycleSkipping(!e.DisableCycleSkipping)
	sys.SetScenario(rt)
	return sys, nil
}

// ExportBaselines snapshots the alone-run IPC cache: key → IPC, where keys
// are the internal "<bench>/<seed>" and "scn:<hash>/<thread>" forms. The
// returned map is a copy.
func (e *Experiment) ExportBaselines() map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]float64, len(e.aloneIPC))
	for k, v := range e.aloneIPC {
		out[k] = v
	}
	return out
}

// MixRun is the outcome of one policy on one mix (or, for scenario runs,
// on one phase-shifting timeline — Scenario/ScenarioHash are then set and
// Mix is the synthetic scenario identity from ScenarioMix).
type MixRun struct {
	Mix       workload.Mix
	Scheduler SchedulerKind
	Partition PartitionKind
	Metrics   stats.SystemMetrics
	Result    Result

	// Scenario names the driving timeline; empty for stationary mix runs.
	Scenario string
	// ScenarioHash is the scenario content hash (see scenario.Hash).
	ScenarioHash string
}

// RunMix evaluates one mix under the given scheduler/partition pair, with
// no recorder and no checkpointer.
func (e *Experiment) RunMix(mix workload.Mix, scheduler SchedulerKind, partition PartitionKind) (MixRun, error) {
	return e.RunMixCheckpointedContext(context.Background(), mix, scheduler, partition, nil, nil)
}

// RunMixCheckpointedContext evaluates one mix under the given
// scheduler/partition pair. rec (may be nil) observes the contended run
// only; alone-run baselines stay unobserved. ck (may be nil) configures
// periodic checkpoint emission and/or resume from an earlier checkpoint
// (see Checkpointer): a resumed run reproduces the uninterrupted run
// bit-identically, including its ledger bytes. The alone-run baselines are
// not part of the snapshot; they are recomputed deterministically (or
// recalled from the cache) after the contended run finishes. ctx cancels
// both the contended run and any baseline still to measure (see
// System.RunContext for the quantum-boundary semantics).
//
// It is safe to call from many goroutines at once: each call builds its own
// System, the baseline cache is mutex-protected, and runs are
// deterministic, so concurrent identical calls give bit-identical metrics.
func (e *Experiment) RunMixCheckpointedContext(ctx context.Context, mix workload.Mix, scheduler SchedulerKind, partition PartitionKind, rec *obs.Recorder, ck *Checkpointer) (MixRun, error) {
	benches, seeds, err := e.benches(mix)
	if err != nil {
		return MixRun{}, err
	}
	run := MixRun{Mix: mix, Scheduler: scheduler, Partition: partition}
	return e.run(ctx, run, benches, nil, rec, ck, func(i int) (float64, error) {
		return e.aloneBench(ctx, mix.Members[i], seeds[i])
	})
}

// ScenarioMix is the synthetic mix identity of a scenario run: the
// scenario's thread names standing in for benchmark members so ledgers and
// core counts work unchanged. It must never be validated against the
// benchmark suite (thread names are tenant labels, not suite entries).
func ScenarioMix(sc *scenario.Scenario) workload.Mix {
	return workload.Mix{Name: "scenario:" + sc.Name, Members: sc.ThreadNames()}
}

// RunScenarioCheckpointedContext is the scenario analogue of
// RunMixCheckpointedContext: it compiles the timeline onto the experiment's
// quantum grid, runs it under the given policy pair, and computes the paper
// metrics against per-thread alone baselines. Each thread's alone baseline
// is the thread extracted into a single-thread scenario on the neutral
// 1-core FR-FCFS system, cached under the scenario hash. Generator seeds
// derive from the thread name, so the extracted run replays exactly the
// access stream the thread has in the full scenario. Scenario runs
// checkpoint and resume bit-identically: the runtime's timeline position and
// generator switch logs ride inside the blob.
func (e *Experiment) RunScenarioCheckpointedContext(ctx context.Context, sc *scenario.Scenario, scheduler SchedulerKind, partition PartitionKind, rec *obs.Recorder, ck *Checkpointer) (MixRun, error) {
	rt, err := sc.Compile(e.Base.SchedQuantumCPUCycles)
	if err != nil {
		return MixRun{}, err
	}
	benches := make([]Bench, rt.Cores())
	for i, name := range rt.Names() {
		benches[i] = Bench{Name: name, Gen: rt.Generator(i)}
	}
	hash := sc.Hash()
	run := MixRun{Mix: ScenarioMix(sc), Scheduler: scheduler, Partition: partition, Scenario: sc.Name, ScenarioHash: hash}
	return e.run(ctx, run, benches, rt, rec, ck, func(t int) (float64, error) {
		single, err := sc.Single(t)
		if err != nil {
			return 0, err
		}
		srt, err := single.Compile(e.Base.SchedQuantumCPUCycles)
		if err != nil {
			return 0, err
		}
		return e.alone(ctx, fmt.Sprintf("scn:%s/%d", hash, t), Bench{Name: single.Threads[0].Name, Gen: srt.Generator(0)}, srt)
	})
}

// run is the pipeline both entry points share: the contended run of
// benches under run's policy pair (driven by rt when it is non-nil), then
// each thread's alone IPC from aloneOf, then the paper metrics filled into
// run. A *RestoreError passes through unwrapped, so callers can tell a
// checkpoint that does not restore from a failed run.
func (e *Experiment) run(ctx context.Context, run MixRun, benches []Bench, rt *scenario.Runtime, rec *obs.Recorder, ck *Checkpointer, aloneOf func(thread int) (float64, error)) (MixRun, error) {
	what := "mix " + run.Mix.Name
	cfg := e.Base
	if run.ScenarioHash != "" {
		what = "scenario " + run.Scenario
		cfg.ScenarioHash = run.ScenarioHash
	}
	cfg.Cores = len(benches)
	cfg.Scheduler = run.Scheduler
	cfg.Partition = run.Partition
	sys, err := e.newSystem(cfg, benches, rt)
	if err != nil {
		return MixRun{}, err
	}
	sys.AttachRecorder(rec)
	res, err := sys.RunCheckpointed(ctx, e.Warmup, e.Measure, e.MaxCycles, ck)
	if err != nil {
		var rerr *RestoreError
		if errors.As(err, &rerr) {
			return MixRun{}, err
		}
		return MixRun{}, fmt.Errorf("sim: %s under %s/%s: %w", what, run.Scheduler, run.Partition, err)
	}
	threads := make([]stats.ThreadPerf, len(res.Threads))
	for i, t := range res.Threads {
		alone, err := aloneOf(i)
		if err != nil {
			return MixRun{}, err
		}
		threads[i] = stats.ThreadPerf{Name: t.Name, IPCShared: t.IPC, IPCAlone: alone}
	}
	if run.Metrics, err = stats.ComputeMetrics(threads); err != nil {
		return MixRun{}, fmt.Errorf("sim: metrics for %s: %w", what, err)
	}
	run.Result = res
	return run, nil
}

// PolicyPoint names one (scheduler, partition) combination under study.
type PolicyPoint struct {
	Label     string
	Scheduler SchedulerKind
	Partition PartitionKind
}

// StandardPolicies returns the paper's comparison points.
func StandardPolicies() []PolicyPoint {
	return []PolicyPoint{
		{Label: "FRFCFS", Scheduler: SchedFRFCFS, Partition: PartNone},
		{Label: "EqualBP", Scheduler: SchedFRFCFS, Partition: PartEqual},
		{Label: "DBP", Scheduler: SchedFRFCFS, Partition: PartDBP},
		{Label: "TCM", Scheduler: SchedTCM, Partition: PartNone},
		{Label: "MCP", Scheduler: SchedFRFCFS, Partition: PartMCP},
		{Label: "DBP-TCM", Scheduler: SchedTCM, Partition: PartDBP},
	}
}
