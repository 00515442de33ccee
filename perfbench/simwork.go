package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"time"

	"dbpsim"
	"dbpsim/internal/obs"
)

// simWorkload is a whole cold experiment repeated for the measurement
// window: alone baselines for every member, then one shared run per policy.
type simWorkload struct {
	mix             dbpsim.Mix
	policies        []dbpsim.PolicyPoint
	warmup, measure uint64
	// inputs is how many distinct inputs one run cycles through; the window
	// fits several experiments of each.
	inputs int
}

// densePaper is the paper's main experiment, scaled down: the six standard
// policies on the memory-heavy 8-core mix. Quanta are shrunk with the
// budgets so DBP and MCP repartition and migrate pages inside each run.
func densePaper() simWorkload {
	mix, _ := dbpsim.MixByName("W8-H1")
	return simWorkload{mix: mix, policies: dbpsim.StandardPolicies(), warmup: 3_000, measure: 6_000, inputs: 4}
}

// lightCompute is the control: eight low-MPKI members under FR-FCFS with
// no partitioning, so cores, caches and traces do the work and the
// controller and DBP stay nearly idle.
func lightCompute() simWorkload {
	return simWorkload{
		mix: dbpsim.Mix{Name: "light-8", Category: "L", Members: []string{
			"gcc-like", "h264-like", "gobmk-like", "calculix-like",
			"povray-like", "astar-like", "zeusmp-like", "cactus-like"}},
		policies: []dbpsim.PolicyPoint{{Label: "FRFCFS", Scheduler: dbpsim.SchedFRFCFS, Partition: dbpsim.PartNone}},
		warmup:   80_000,
		measure:  240_000,
		inputs:   6,
	}
}

func runDensePaper(o *options, r *report) error   { return densePaper().run(o, r) }
func runLightCompute(o *options, r *report) error { return lightCompute().run(o, r) }

// simConfig is the experiment template for a core count and input seed.
func simConfig(cores int, seed int64) dbpsim.Config {
	cfg := dbpsim.DefaultConfig(cores)
	cfg.Seed = seed
	cfg.SchedQuantumCPUCycles = 10_000
	cfg.DBP.QuantumCPUCycles = 20_000
	cfg.MCP.QuantumCPUCycles = 20_000
	return cfg
}

// memberSeeds reproduces the trace seed Experiment gives each mix member
// (sim.Experiment.seedFor), so baselines can be requested per member
// through Experiment.AloneIPC. If the two ever diverge, RunMix measures
// its own baselines and the experiment check below reports it.
func memberSeeds(base int64, members []string) []int64 {
	occ := map[string]int{}
	seeds := make([]int64, len(members))
	for i, name := range members {
		h := fnv.New64a()
		_, _ = h.Write([]byte(name))
		seeds[i] = base + int64(h.Sum64()%1_000_003) + int64(occ[name])*7919
		occ[name]++
	}
	return seeds
}

// runDigest is what golden.json records for one shared run.
type runDigest struct {
	Policy        string  `json:"policy"`
	WS            float64 `json:"ws"`
	HS            float64 `json:"hs"`
	MS            float64 `json:"ms"`
	Cycles        uint64  `json:"cycles"`
	Activates     uint64  `json:"activates"`
	Precharges    uint64  `json:"precharges"`
	Reads         uint64  `json:"reads"`
	Writes        uint64  `json:"writes"`
	Refreshes     uint64  `json:"refreshes"`
	PagesMigrated uint64  `json:"pages_migrated"`
	Repartitions  int     `json:"repartitions"`
	LedgerSHA256  string  `json:"ledger_sha256,omitempty"`
}

// aloneDigest is what golden.json records for one alone baseline.
type aloneDigest struct {
	Bench  string  `json:"bench"`
	IPC    float64 `json:"ipc"`
	Cycles uint64  `json:"cycles"`
}

type simGolden struct {
	Alone  []aloneDigest `json:"alone"`
	Shared []runDigest   `json:"shared"`
}

func digestRun(label string, run dbpsim.MixRun) runDigest {
	d := runDigest{
		Policy: label,
		WS:     run.Metrics.WeightedSpeedup, HS: run.Metrics.HarmonicSpeedup, MS: run.Metrics.MaxSlowdown,
		Cycles:    run.Result.Cycles,
		Activates: run.Result.DRAM.Activates, Precharges: run.Result.DRAM.Precharges,
		Reads: run.Result.DRAM.Reads, Writes: run.Result.DRAM.Writes, Refreshes: run.Result.DRAM.Refreshes,
		Repartitions: run.Result.Repartitions,
	}
	for _, t := range run.Result.Threads {
		d.PagesMigrated += t.PagesMigrated
	}
	return d
}

// experimentOutcome is one timed cold experiment.
type experimentOutcome struct {
	runs          []dbpsim.MixRun
	alone, shared []float64          // CPU seconds per AloneIPC / RunMix call
	baselines     map[string]float64 // the experiment's alone IPCs, by "<bench>/<seed>"
}

// experiment runs one cold experiment: every member's alone baseline via
// Experiment.AloneIPC, then every policy via RunMix, timing each call in
// CPU time. The simulator runs each call on one goroutine, so CPU time is
// the call's wall time less what other guests on the host took from it.
func (w simWorkload) experiment(cfg dbpsim.Config, spans *spanLog) (experimentOutcome, error) {
	var out experimentOutcome
	top := spans.start("experiment", 0)
	defer spans.end(top)
	exp := dbpsim.NewExperiment(cfg, w.warmup, w.measure)
	seeds := memberSeeds(cfg.Seed, w.mix.Members)
	sp := spans.start("sim.alone", top)
	for i, name := range w.mix.Members {
		c0 := cpuSeconds()
		if _, err := exp.AloneIPC(name, seeds[i]); err != nil {
			return out, err
		}
		out.alone = append(out.alone, cpuSeconds()-c0)
	}
	spans.end(sp)
	for _, p := range w.policies {
		sp := spans.start("sim.shared."+p.Label, top)
		c0 := cpuSeconds()
		run, err := exp.RunMix(w.mix, p.Scheduler, p.Partition)
		out.shared = append(out.shared, cpuSeconds()-c0)
		spans.end(sp)
		if err != nil {
			return out, fmt.Errorf("%s: %w", p.Label, err)
		}
		out.runs = append(out.runs, run)
	}
	out.baselines = exp.ExportBaselines()
	return out, nil
}

// inputSeed is the trace seed of input j of a run seeded with seed.
func inputSeed(seed int64, j int) int64 { return seed*1000 + int64(j) }

// inputStats is what a run measured and checked for one input.
type inputStats struct {
	cfg  dbpsim.Config
	runs int // experiments run on this input
	// alone and shared hold the least CPU time seen for each AloneIPC and
	// RunMix call of the experiment, in seconds. Other tenants of a shared
	// host slow a call down through the caches, memory and sibling hardware
	// threads they share with it, in bursts, so the fastest of several
	// identical calls is the steadiest estimate of its cost.
	alone, shared []float64
	ref           []runDigest
	last          experimentOutcome
}

// seconds is the input's experiment CPU time: the sum of its fastest calls.
func (in *inputStats) seconds() float64 { return sum(in.alone) + sum(in.shared) }

// keepFastest folds one experiment's call times into the fastest so far.
func keepFastest(best, xs []float64) []float64 {
	if best == nil {
		return append([]float64(nil), xs...)
	}
	for i, x := range xs {
		best[i] = min(best[i], x)
	}
	return best
}

// simLoopStats accumulates experiments by input across windows.
type simLoopStats struct {
	inputs  []*inputStats
	next    int     // input of the next experiment
	allocMB float64 // heap allocated per experiment in the last window, MiB
	// wall and experiments are the windows' wall seconds and experiment
	// count, for the printed wall time per experiment.
	wall        float64
	experiments int
}

func newSimLoopStats(inputs int) *simLoopStats {
	return &simLoopStats{inputs: make([]*inputStats, inputs)}
}

// loop runs cold experiments round-robin over the inputs until the window
// closes and every input has run at least twice, checking each
// experiment's outputs against the first experiment of the same input.
func (w simWorkload) loop(st *simLoopStats, seed int64, seconds float64, r *report, spans *spanLog) error {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	end := deadline(seconds)
	n := 0
	for time.Now().Before(end) || st.fewestRuns() < 2 {
		j := st.next
		st.next = (st.next + 1) % len(st.inputs)
		in := st.inputs[j]
		if in == nil {
			in = &inputStats{cfg: simConfig(len(w.mix.Members), inputSeed(seed, j))}
			st.inputs[j] = in
		}
		// Every experiment starts from a collected heap, so GC pacing (and
		// with it time and peak RSS) does not depend on what ran before.
		runtime.GC()
		out, err := w.experiment(in.cfg, spans)
		if err != nil {
			return err
		}
		n++
		st.experiments++
		in.runs++
		in.alone = keepFastest(in.alone, out.alone)
		in.shared = keepFastest(in.shared, out.shared)
		in.last = out
		var digests []runDigest
		for i, run := range out.runs {
			digests = append(digests, digestRun(w.policies[i].Label, run))
		}
		var checkErr error
		switch {
		case len(out.baselines) != len(w.mix.Members):
			// Every member occurrence has its own seed, so its own baseline.
			checkErr = fmt.Errorf("experiment measured %d baselines, want %d (alone seeds no longer match the experiment's)", len(out.baselines), len(w.mix.Members))
		case in.ref == nil:
			in.ref = digests
		case !slices.Equal(digests, in.ref):
			checkErr = fmt.Errorf("input %d: experiment outputs differ from its first experiment's", j)
		}
		r.op(checkErr)
	}
	runtime.ReadMemStats(&ms1)
	st.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(n) / (1 << 20)
	st.wall += time.Since(t0).Seconds()
	return nil
}

// fewestRuns is the smallest number of experiments any input has run.
func (st *simLoopStats) fewestRuns() int {
	least := math.MaxInt
	for _, in := range st.inputs {
		if in == nil {
			return 0
		}
		least = min(least, in.runs)
	}
	return least
}

// perInput averages f over the inputs.
func (st *simLoopStats) perInput(f func(*inputStats) float64) float64 {
	var t float64
	for _, in := range st.inputs {
		t += f(in)
	}
	return t / float64(len(st.inputs))
}

// run is the whole workload: set-up, the measurement window (two halves
// under --trace 1, the second profiled), the untimed output checks, and,
// traced, the per-layer measurements.
func (w simWorkload) run(o *options, r *report) error {
	cores := len(w.mix.Members)
	setup, err := medianSetup(r, 101, func(int) (time.Duration, error) {
		t0 := time.Now()
		cfg := simConfig(cores, inputSeed(o.seed, 0))
		for _, m := range w.mix.Members {
			if _, ok := dbpsim.BenchByName(m); !ok {
				return 0, fmt.Errorf("unknown benchmark %s", m)
			}
		}
		if err := cfg.Validate(); err != nil {
			return 0, err
		}
		_ = dbpsim.NewExperiment(cfg, w.warmup, w.measure)
		return time.Since(t0), nil
	})
	if err != nil {
		return err
	}
	r.e2e["setup_s"] = setup

	st := newSimLoopStats(w.inputs)
	if !o.trace {
		if err := w.loop(st, o.seed, o.seconds, r, nil); err != nil {
			return err
		}
	} else {
		plain := newSimLoopStats(w.inputs)
		if err := w.loop(plain, o.seed, o.seconds/2, r, nil); err != nil {
			return err
		}
		prof, err := profiled(func() error { return w.loop(st, o.seed, o.seconds/2, r, r.spans) })
		if err != nil {
			return err
		}
		prof.fill(r)
		r.layer["bench.tracing_overhead"] = st.perInput((*inputStats).seconds)/plain.perInput((*inputStats).seconds) - 1
		r.layer["sim.alone_s"] = plain.perInput(func(in *inputStats) float64 { return sum(in.alone) })
		r.layer["sim.shared_s"] = plain.perInput(func(in *inputStats) float64 { return sum(in.shared) })
		r.layer["sim.alloc_mb"] = plain.allocMB
	}

	// Untimed checks, per input: every alone baseline re-run directly on a
	// System must reproduce the experiment's IPC, and on the default seed
	// the outputs and ledger hashes must match golden.json.
	golden := map[string]any{}
	var simcycles, ledgerMS []float64
	for j, in := range st.inputs {
		g, aloneCycles, ms, err := w.checkOutputs(in, r)
		if err != nil {
			return err
		}
		golden[strconv.Itoa(j)] = g
		ledgerMS = append(ledgerMS, ms)
		var shared uint64
		for _, d := range in.ref {
			shared += d.Cycles
		}
		simcycles = append(simcycles, float64(shared+aloneCycles))
		r.note("input %d (trace seed %d): %d experiments, fastest calls sum to %.4f CPU s", j, in.cfg.Seed, in.runs, in.seconds())
	}
	if gerr := recordOrCheck(o, golden); gerr != nil {
		// Every experiment produced these outputs, so every one is wrong.
		r.mu.Lock()
		r.failed = r.attempted
		r.lines = append(r.lines, "FAIL: "+gerr.Error())
		r.mu.Unlock()
	}

	exp := st.perInput((*inputStats).seconds)
	r.e2e["op_ms"] = exp * 1000
	r.e2e["ops_per_s"] = 1 / exp
	r.e2e["simcycles_per_s"] = sum(simcycles) / (exp * float64(len(st.inputs)))
	r.note("experiment_s %.4f CPU s (per input the sum of its fastest calls, averaged over %d inputs; %d alone + %d shared runs per experiment); %.4f wall s per experiment over the window; simcycles per experiment %.0f",
		exp, len(st.inputs), len(w.mix.Members), len(w.policies), st.wall/float64(st.experiments), sum(simcycles)/float64(len(simcycles)))

	if o.trace {
		first := st.inputs[0]
		r.layer["obs.ledger_ms"] = median(ledgerMS)
		r.layer["sim.simcycles"] = simcycles[0]
		w.sharedCounters(first.ref, first.last.runs, r)
		if err := w.traceLayers(first.cfg, r); err != nil {
			return err
		}
	}
	return nil
}

// checkOutputs re-runs each alone baseline of one input on a bare System
// and compares its IPC with the one the input's last experiment measured
// through Experiment.AloneIPC (a cross-path check), and hashes each shared
// run's ledger. It returns the input's golden digest, the alone runs'
// total cycles, and the median ledger build-and-marshal time in ms.
func (w simWorkload) checkOutputs(in *inputStats, r *report) (simGolden, uint64, float64, error) {
	var g simGolden
	var total uint64
	cfg := in.cfg
	seeds := memberSeeds(cfg.Seed, w.mix.Members)
	for i, name := range w.mix.Members {
		res, err := aloneSystemRun(cfg, name, seeds[i], w.warmup, w.measure)
		if err != nil {
			return g, 0, 0, err
		}
		want := in.last.baselines[fmt.Sprintf("%s/%d", name, seeds[i])]
		if res.Threads[0].IPC != want {
			r.op(fmt.Errorf("alone %s: System IPC %v != Experiment IPC %v", name, res.Threads[0].IPC, want))
		}
		total += res.Cycles
		g.Alone = append(g.Alone, aloneDigest{Bench: name, IPC: want, Cycles: res.Cycles})
	}
	var ledgerMS []float64
	for i, run := range in.last.runs {
		t0 := time.Now()
		l, err := dbpsim.BuildLedger("perfbench", cfg, w.warmup, w.measure, run, nil)
		if err != nil {
			return g, 0, 0, err
		}
		b, err := obs.MarshalLedger(l)
		if err != nil {
			return g, 0, 0, err
		}
		ledgerMS = append(ledgerMS, float64(time.Since(t0).Nanoseconds())/1e6)
		d := in.ref[i]
		d.LedgerSHA256 = fmt.Sprintf("%x", sha256.Sum256(b))
		g.Shared = append(g.Shared, d)
	}
	return g, total, median(ledgerMS), nil
}

// aloneSystemRun runs one benchmark on the 1-core baseline system the way
// Experiment.AloneIPC does, but through NewSystem, so its cycles are known.
func aloneSystemRun(base dbpsim.Config, name string, seed int64, warmup, measure uint64) (dbpsim.Result, error) {
	spec, ok := dbpsim.BenchByName(name)
	if !ok {
		return dbpsim.Result{}, fmt.Errorf("unknown benchmark %s", name)
	}
	cfg := base
	cfg.Cores = 1
	cfg.Scheduler = dbpsim.SchedFRFCFS
	cfg.Partition = dbpsim.PartNone
	sys, err := dbpsim.NewSystem(cfg, []dbpsim.Bench{{Name: name, Gen: spec.New(seed)}})
	if err != nil {
		return dbpsim.Result{}, err
	}
	return sys.Run(warmup, measure, 0)
}

// sharedCounters fills the DRAM, controller and partitioning counts summed
// over one experiment's shared runs.
func (w simWorkload) sharedCounters(ref []runDigest, runs []dbpsim.MixRun, r *report) {
	var act, rd, wr, migrated, reparts, hits, served float64
	for _, d := range ref {
		act += float64(d.Activates)
		rd += float64(d.Reads)
		wr += float64(d.Writes)
		migrated += float64(d.PagesMigrated)
		reparts += float64(d.Repartitions)
	}
	for _, run := range runs {
		for _, t := range run.Result.Threads {
			hits += float64(t.RowHits)
			served += float64(t.ReadsServed + t.WritesServed)
		}
	}
	r.layer["dram.activates"] = act
	r.layer["dram.reads"] = rd
	r.layer["dram.writes"] = wr
	r.layer["paging.pages_migrated"] = migrated
	r.layer["core.repartitions"] = reparts
	if served > 0 {
		r.layer["memctrl.row_hit_ratio"] = hits / served
	}
}

// traceLayers measures the sim-layer numbers the experiment hides:
// NewSystem cost, the cycle-skipping share, and recorder-hook overhead,
// then replays the member traces through each layer's entry points.
func (w simWorkload) traceLayers(cfg dbpsim.Config, r *report) error {
	seeds := memberSeeds(cfg.Seed, w.mix.Members)
	benches := func() []dbpsim.Bench {
		bs := make([]dbpsim.Bench, len(w.mix.Members))
		for i, name := range w.mix.Members {
			spec, _ := dbpsim.BenchByName(name)
			bs[i] = dbpsim.Bench{Name: name, Gen: spec.New(seeds[i])}
		}
		return bs
	}
	var newSys []float64
	var skipped, cycles float64
	for _, p := range w.policies {
		c := cfg
		c.Scheduler, c.Partition = p.Scheduler, p.Partition
		t0 := time.Now()
		sys, err := dbpsim.NewSystem(c, benches())
		if err != nil {
			return err
		}
		newSys = append(newSys, time.Since(t0).Seconds())
		if _, err := sys.Run(w.warmup, w.measure, 0); err != nil {
			return err
		}
		skipped += float64(sys.SkippedCycles())
		cycles += float64(sys.Cycle())
	}
	r.layer["sim.newsystem_s"] = median(newSys)
	r.layer["sim.skipped_share"] = skipped / cycles

	overhead, err := hooksOverhead(cfg, w.policies[0], benches, w.warmup, w.measure)
	if err != nil {
		return err
	}
	r.layer["obs.hooks_overhead"] = overhead
	return replayLayers(cfg, w.mix.Members, seeds, r)
}

// hooksOverhead times one shared run with a Recorder attached against the
// same run without, alternating five pairs, and returns the ratio of the
// fastest times minus one.
func hooksOverhead(cfg dbpsim.Config, p dbpsim.PolicyPoint, benches func() []dbpsim.Bench, warmup, measure uint64) (float64, error) {
	c := cfg
	c.Scheduler, c.Partition = p.Scheduler, p.Partition
	once := func(record bool) (float64, error) {
		sys, err := dbpsim.NewSystem(c, benches())
		if err != nil {
			return 0, err
		}
		if record {
			rec, err := dbpsim.NewRecorder(dbpsim.RecorderOptions{NumThreads: c.Cores, NumBanks: c.Geometry.NumColors()})
			if err != nil {
				return 0, err
			}
			sys.AttachRecorder(rec)
		}
		t0 := time.Now()
		_, err = sys.Run(warmup, measure, 0)
		return time.Since(t0).Seconds(), err
	}
	// The fastest of five runs each way filters out host noise, which only
	// ever adds time.
	var off, on []float64
	for i := 0; i < 5; i++ {
		t, err := once(false)
		if err != nil {
			return 0, err
		}
		off = append(off, t)
		if t, err = once(true); err != nil {
			return 0, err
		}
		on = append(on, t)
	}
	return slices.Min(on)/slices.Min(off) - 1, nil
}

// profileResult is a CPU profile's module split and the GC's CPU share
// over the profiled interval.
type profileResult struct {
	shares  map[string]float64
	gcShare float64
}

func (p profileResult) fill(r *report) {
	for m, v := range p.shares {
		r.layer[m+".self_share"] = v
	}
	r.layer["runtime.gc_share"] = p.gcShare
}

// profiled runs fn under a CPU profile held in memory.
func profiled(fn func() error) (profileResult, error) {
	var res profileResult
	var buf bytes.Buffer
	gc0, tot0 := gcClock()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return res, fmt.Errorf("cpu profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return res, err
	}
	gc1, tot1 := gcClock()
	if tot1 > tot0 {
		res.gcShare = (gc1 - gc0) / (tot1 - tot0)
	}
	res.shares, err = selfShares(buf.Bytes())
	return res, err
}
