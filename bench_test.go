// Benchmark harness: one benchmark per paper table/figure (see DESIGN.md's
// experiment index). Each figure benchmark runs the corresponding workload
// under the corresponding policy and reports the paper's metrics as custom
// benchmark outputs (ws = weighted speedup, ms = maximum slowdown); the
// cmd/dbpsweep tool regenerates the full multi-mix tables.
//
// Micro-benchmarks at the bottom measure the simulator substrate itself
// (DRAM command issue, cache access, trace generation, full-system cycles).
package dbpsim_test

import (
	"sync"
	"testing"

	"dbpsim"
	"dbpsim/internal/addr"
	"dbpsim/internal/cache"
	"dbpsim/internal/core"
	"dbpsim/internal/dram"
	"dbpsim/internal/trace"
	"dbpsim/internal/workload"
)

const (
	benchWarmup  = 200_000
	benchMeasure = 400_000
)

var (
	sharedExpOnce sync.Once
	sharedExp     *dbpsim.Experiment
)

// sharedExperiment reuses one experiment (and its alone-IPC cache) across
// all figure benchmarks.
func sharedExperiment() *dbpsim.Experiment {
	sharedExpOnce.Do(func() {
		sharedExp = dbpsim.NewExperiment(dbpsim.DefaultConfig(8), benchWarmup, benchMeasure)
	})
	return sharedExp
}

// runPolicy executes one mix/policy pair per benchmark iteration and
// reports WS and MS.
func runPolicy(b *testing.B, mixName string, sched dbpsim.SchedulerKind, part dbpsim.PartitionKind) {
	b.Helper()
	mix, ok := dbpsim.MixByName(mixName)
	if !ok {
		b.Fatalf("unknown mix %s", mixName)
	}
	exp := sharedExperiment()
	var ws, ms float64
	for i := 0; i < b.N; i++ {
		run, err := exp.RunMix(mix, sched, part)
		if err != nil {
			b.Fatal(err)
		}
		ws = run.Metrics.WeightedSpeedup
		ms = run.Metrics.MaxSlowdown
	}
	b.ReportMetric(ws, "ws")
	b.ReportMetric(ms, "ms")
}

// --- Table 2: benchmark characteristics -----------------------------------

func BenchmarkTable2Characteristics(b *testing.B) {
	cfg := dbpsim.DefaultConfig(1)
	var mpki float64
	for i := 0; i < b.N; i++ {
		spec, _ := dbpsim.BenchByName("milc-like")
		sys, err := dbpsim.NewSystem(cfg, []dbpsim.Bench{{Name: spec.Name, Gen: spec.New(1)}})
		if err != nil {
			b.Fatal(err)
		}
		res, err := sys.Run(benchWarmup, benchMeasure, 0)
		if err != nil {
			b.Fatal(err)
		}
		mpki = res.Threads[0].MPKI
	}
	b.ReportMetric(mpki, "mpki")
}

// --- Fig. 1: motivation — interference at shared banks --------------------

func BenchmarkFig1Motivation(b *testing.B) {
	exp := sharedExperiment()
	mix := dbpsim.Mix{Name: "FIG1", Category: "M", Members: []string{"libquantum-like", "milc-like"}}
	var ms float64
	for i := 0; i < b.N; i++ {
		run, err := exp.RunMix(mix, dbpsim.SchedFRFCFS, dbpsim.PartNone)
		if err != nil {
			b.Fatal(err)
		}
		ms = run.Metrics.MaxSlowdown
	}
	b.ReportMetric(ms, "ms")
}

// --- Fig. 2: motivation — equal shares destroy BLP ------------------------

func BenchmarkFig2BLPLoss(b *testing.B) {
	var blpFull, blpTwo float64
	for i := 0; i < b.N; i++ {
		for _, banks := range []int{16, 2} {
			cfg := dbpsim.DefaultConfig(1)
			cfg.Partition = dbpsim.PartFixed
			colors := make([]int, banks)
			for j := range colors {
				colors[j] = j * (16 / banks)
			}
			cfg.FixedMasks = [][]int{colors}
			spec, _ := dbpsim.BenchByName("lbm-like")
			sys, err := dbpsim.NewSystem(cfg, []dbpsim.Bench{{Name: spec.Name, Gen: spec.New(1)}})
			if err != nil {
				b.Fatal(err)
			}
			res, err := sys.Run(benchWarmup, benchMeasure, 0)
			if err != nil {
				b.Fatal(err)
			}
			if banks == 16 {
				blpFull = res.Threads[0].BLP
			} else {
				blpTwo = res.Threads[0].BLP
			}
		}
	}
	b.ReportMetric(blpFull, "blp16")
	b.ReportMetric(blpTwo, "blp2")
}

// --- Figs. 6–7: main result — FRFCFS / EqualBP / DBP ----------------------

func BenchmarkMainWS_FRFCFS(b *testing.B) { runPolicy(b, "W8-M1", dbpsim.SchedFRFCFS, dbpsim.PartNone) }
func BenchmarkMainWS_EqualBP(b *testing.B) {
	runPolicy(b, "W8-M1", dbpsim.SchedFRFCFS, dbpsim.PartEqual)
}
func BenchmarkMainWS_DBP(b *testing.B) { runPolicy(b, "W8-M1", dbpsim.SchedFRFCFS, dbpsim.PartDBP) }

func BenchmarkMainMS_HeavyMix_FRFCFS(b *testing.B) {
	runPolicy(b, "W8-H1", dbpsim.SchedFRFCFS, dbpsim.PartNone)
}
func BenchmarkMainMS_HeavyMix_DBP(b *testing.B) {
	runPolicy(b, "W8-H1", dbpsim.SchedFRFCFS, dbpsim.PartDBP)
}

// --- Fig. 8: combination — TCM vs DBP-TCM ----------------------------------

func BenchmarkDBPTCM_TCM(b *testing.B)    { runPolicy(b, "W8-M1", dbpsim.SchedTCM, dbpsim.PartNone) }
func BenchmarkDBPTCM_DBPTCM(b *testing.B) { runPolicy(b, "W8-M1", dbpsim.SchedTCM, dbpsim.PartDBP) }

// --- Fig. 9: versus channel partitioning -----------------------------------

func BenchmarkVsMCP_MCP(b *testing.B) { runPolicy(b, "W8-M1", dbpsim.SchedFRFCFS, dbpsim.PartMCP) }
func BenchmarkVsMCP_DBPTCM(b *testing.B) {
	runPolicy(b, "W8-M1", dbpsim.SchedTCM, dbpsim.PartDBP)
}

// --- Fig. 10: bank-count sensitivity ---------------------------------------

func BenchmarkSensitivityBanks(b *testing.B) {
	mix, _ := dbpsim.MixByName("W8-M1")
	var ws float64
	for i := 0; i < b.N; i++ {
		cfg := dbpsim.DefaultConfig(8)
		cfg.Geometry.BanksPerRank = 16 // 32 total banks
		exp := dbpsim.NewExperiment(cfg, benchWarmup, benchMeasure)
		run, err := exp.RunMix(mix, dbpsim.SchedFRFCFS, dbpsim.PartDBP)
		if err != nil {
			b.Fatal(err)
		}
		ws = run.Metrics.WeightedSpeedup
	}
	b.ReportMetric(ws, "ws")
}

// --- Fig. 11: core-count sensitivity ----------------------------------------

func BenchmarkSensitivityCores(b *testing.B) {
	mix, _ := dbpsim.MixByName("W4-M1")
	var ws float64
	for i := 0; i < b.N; i++ {
		exp := dbpsim.NewExperiment(dbpsim.DefaultConfig(4), benchWarmup, benchMeasure)
		run, err := exp.RunMix(mix, dbpsim.SchedFRFCFS, dbpsim.PartDBP)
		if err != nil {
			b.Fatal(err)
		}
		ws = run.Metrics.WeightedSpeedup
	}
	b.ReportMetric(ws, "ws")
}

// --- Fig. 12: quantum sensitivity -------------------------------------------

func BenchmarkSensitivityQuantum(b *testing.B) {
	mix, _ := dbpsim.MixByName("W8-M1")
	var ws float64
	for i := 0; i < b.N; i++ {
		cfg := dbpsim.DefaultConfig(8)
		cfg.DBP.QuantumCPUCycles = 250_000
		exp := dbpsim.NewExperiment(cfg, benchWarmup, benchMeasure)
		run, err := exp.RunMix(mix, dbpsim.SchedFRFCFS, dbpsim.PartDBP)
		if err != nil {
			b.Fatal(err)
		}
		ws = run.Metrics.WeightedSpeedup
	}
	b.ReportMetric(ws, "ws")
}

// --- Ablations ---------------------------------------------------------------

func benchAblation(b *testing.B, mutate func(*dbpsim.Config)) {
	b.Helper()
	mix, _ := dbpsim.MixByName("W8-M1")
	var ws, ms float64
	for i := 0; i < b.N; i++ {
		cfg := dbpsim.DefaultConfig(8)
		mutate(&cfg)
		exp := dbpsim.NewExperiment(cfg, benchWarmup, benchMeasure)
		run, err := exp.RunMix(mix, dbpsim.SchedFRFCFS, dbpsim.PartDBP)
		if err != nil {
			b.Fatal(err)
		}
		ws = run.Metrics.WeightedSpeedup
		ms = run.Metrics.MaxSlowdown
	}
	b.ReportMetric(ws, "ws")
	b.ReportMetric(ms, "ms")
}

func BenchmarkAblationEstimatorMPKI(b *testing.B) {
	benchAblation(b, func(c *dbpsim.Config) { c.DBP.Estimator = core.EstimateMPKI })
}

func BenchmarkAblationNoMigration(b *testing.B) {
	benchAblation(b, func(c *dbpsim.Config) { c.MigratePagesPerQuantum = 0 })
}

func BenchmarkAblationLightSpreadAll(b *testing.B) {
	benchAblation(b, func(c *dbpsim.Config) { c.DBP.LightPlacement = core.LightSpreadAll })
}

// --- Performance ledger: simulator speed per policy --------------------------
//
// These benchmarks measure the simulator itself, not the simulated system:
// how many nanoseconds of wall clock one simulated CPU cycle costs under
// each paper policy. TestBenchmarkWorkCounts (workcount_test.go) gates
// their machine-independent units, allocs/op and coreticks/simcycle;
// wall time is gated by scripts/abbench.

// reportSimSpeed reports wall nanoseconds per simulated CPU cycle and
// simulated cycles per wall second over the accumulated cycle count, and
// coreticks/simcycle: the full core Ticks the kernel ran per simulated
// cycle (at most one per core; clock jumps and sleeping cores' stalled
// skips cover the rest), a deterministic work count.
func reportSimSpeed(b *testing.B, simCycles, coreTicks uint64) {
	b.Helper()
	if simCycles == 0 {
		return
	}
	b.ReportMetric(float64(coreTicks)/float64(simCycles), "coreticks/simcycle")
	elapsed := b.Elapsed()
	if elapsed <= 0 {
		return
	}
	b.ReportMetric(float64(elapsed.Nanoseconds())/float64(simCycles), "ns/simcycle")
	b.ReportMetric(float64(simCycles)/elapsed.Seconds(), "simcycles/sec")
}

// ranCoreTicks counts the full core Ticks sys ran in one run of cycles
// simulated cycles.
func ranCoreTicks(sys *dbpsim.System, cores int, cycles uint64) uint64 {
	return uint64(cores)*(cycles-sys.SkippedCycles()) - sys.SleptCoreCycles()
}

// benchPolicyCycles runs a fixed 4-core mix for a fixed instruction budget
// under one policy, with system construction off the clock.
func benchPolicyCycles(b *testing.B, sched dbpsim.SchedulerKind, part dbpsim.PartitionKind) {
	b.Helper()
	b.ReportAllocs()
	mix, ok := dbpsim.MixByName("W4-M1")
	if !ok {
		b.Fatal("unknown mix W4-M1")
	}
	var total, coreTicks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := dbpsim.DefaultConfig(4)
		cfg.Scheduler = sched
		cfg.Partition = part
		var benches []dbpsim.Bench
		for j, name := range mix.Members {
			spec, ok := dbpsim.BenchByName(name)
			if !ok {
				b.Fatalf("unknown benchmark %s", name)
			}
			benches = append(benches, dbpsim.Bench{Name: name, Gen: spec.New(int64(j))})
		}
		sys, err := dbpsim.NewSystem(cfg, benches)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := sys.Run(20_000, 100_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
		coreTicks += ranCoreTicks(sys, cfg.Cores, res.Cycles)
	}
	reportSimSpeed(b, total, coreTicks)
}

func BenchmarkPolicyCycles_FRFCFS(b *testing.B) {
	benchPolicyCycles(b, dbpsim.SchedFRFCFS, dbpsim.PartNone)
}
func BenchmarkPolicyCycles_TCM(b *testing.B) {
	benchPolicyCycles(b, dbpsim.SchedTCM, dbpsim.PartNone)
}
func BenchmarkPolicyCycles_MCP(b *testing.B) {
	benchPolicyCycles(b, dbpsim.SchedFRFCFS, dbpsim.PartMCP)
}
func BenchmarkPolicyCycles_DBP(b *testing.B) {
	benchPolicyCycles(b, dbpsim.SchedFRFCFS, dbpsim.PartDBP)
}
func BenchmarkPolicyCycles_DBPTCM(b *testing.B) {
	benchPolicyCycles(b, dbpsim.SchedTCM, dbpsim.PartDBP)
}

// benchIdleHeavy runs an idle-heavy (low-MPKI, compute-bound) 2-core
// pairing: accesses every ~200 instructions against L1-resident working
// sets, so after warmup nearly every cycle is a replayable full-width
// compute cycle. SkipOn versus SkipOff shows what cycle skipping saves:
// coreticks/simcycle counts it, simcycles/sec times it.
func benchIdleHeavy(b *testing.B, skipping bool) {
	b.Helper()
	b.ReportAllocs()
	var total, coreTicks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := dbpsim.DefaultConfig(2)
		benches := []dbpsim.Bench{
			{Name: "idle-rand", Gen: trace.NewRandom(trace.Config{MemRatio: 0.001, WorkingSetBytes: 16 << 10}, 1)},
			{Name: "idle-stream", Gen: trace.NewStream(trace.Config{MemRatio: 0.001, WorkingSetBytes: 16 << 10}, 1, 64, 2)},
		}
		sys, err := dbpsim.NewSystem(cfg, benches)
		if err != nil {
			b.Fatal(err)
		}
		sys.SetCycleSkipping(skipping)
		b.StartTimer()
		res, err := sys.Run(100_000, 1_000_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
		coreTicks += ranCoreTicks(sys, cfg.Cores, res.Cycles)
	}
	reportSimSpeed(b, total, coreTicks)
}

func BenchmarkIdleHeavySkipOn(b *testing.B)  { benchIdleHeavy(b, true) }
func BenchmarkIdleHeavySkipOff(b *testing.B) { benchIdleHeavy(b, false) }

// --- Substrate micro-benchmarks ----------------------------------------------

func BenchmarkDRAMCommandIssue(b *testing.B) {
	tm := dram.DDR3_1600()
	tm.RefreshEnabled = false
	ch, err := dram.NewChannel(1, 8, tm)
	if err != nil {
		b.Fatal(err)
	}
	var now uint64
	bank, row := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ch.CanIssue(dram.CmdActivate, 0, bank, row, now) {
			ch.Issue(dram.CmdActivate, 0, bank, row, now)
		} else if r, open := ch.OpenRow(0, bank); open && r == row && ch.CanIssue(dram.CmdRead, 0, bank, row, now) {
			ch.Issue(dram.CmdRead, 0, bank, row, now)
			bank = (bank + 1) % 8
			row = (row + 1) % 1024
		}
		now++
	}
}

func BenchmarkCacheAccess(b *testing.B) {
	c, err := cache.New(cache.Config{Name: "L2", SizeBytes: 512 << 10, Ways: 16, LineBytes: 64})
	if err != nil {
		b.Fatal(err)
	}
	g := trace.NewRandom(trace.Config{MemRatio: 1, WorkingSetBytes: 4 << 20}, 1)
	addrs := make([]uint64, 4096)
	for i := range addrs {
		addrs[i] = g.Next().Addr
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i%len(addrs)], i%5 == 0)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	spec, _ := workload.ByName("soplex-like")
	g := spec.New(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

func BenchmarkAddressDecode(b *testing.B) {
	m := addr.NewMapper(addr.DefaultGeometry())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Decode(uint64(i) * 64)
	}
}

// BenchmarkSystemCycles measures raw full-system simulation speed on the
// 8-core paper configuration.
func BenchmarkSystemCycles(b *testing.B) {
	b.ReportAllocs()
	var total, coreTicks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := dbpsim.DefaultConfig(8)
		mix, _ := dbpsim.MixByName("W8-M1")
		var benches []dbpsim.Bench
		for j, name := range mix.Members {
			spec, _ := dbpsim.BenchByName(name)
			benches = append(benches, dbpsim.Bench{Name: name, Gen: spec.New(int64(j))})
		}
		sys, err := dbpsim.NewSystem(cfg, benches)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := sys.Run(0, 100_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Cycles
		coreTicks += ranCoreTicks(sys, cfg.Cores, res.Cycles)
	}
	reportSimSpeed(b, total, coreTicks)
}
