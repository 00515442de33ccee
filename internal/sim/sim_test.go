package sim

import (
	"strings"
	"testing"

	"dbpsim/internal/addr"

	"dbpsim/internal/trace"
	"dbpsim/internal/workload"
)

// fastConfig shrinks the system so tests stay quick but still exercise
// every component.
func fastConfig(cores int) Config {
	cfg := DefaultConfig(cores)
	cfg.SchedQuantumCPUCycles = 100_000
	cfg.DBP.QuantumCPUCycles = 200_000
	cfg.MCP.QuantumCPUCycles = 200_000
	return cfg
}

func quickBenches(n int) []Bench {
	names := []string{"libquantum-like", "milc-like", "gcc-like", "calculix-like",
		"lbm-like", "mcf-like", "h264-like", "gobmk-like"}
	out := make([]Bench, n)
	for i := 0; i < n; i++ {
		spec, _ := workload.ByName(names[i%len(names)])
		out[i] = Bench{Name: spec.Name, Gen: spec.New(int64(40 + i))}
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(8).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig(0)
	if err := bad.Validate(); err == nil {
		t.Error("zero cores accepted")
	}
	bad = DefaultConfig(4)
	bad.Scheduler = "bogus"
	if err := bad.Validate(); err == nil {
		t.Error("bogus scheduler accepted")
	}
	bad = DefaultConfig(4)
	bad.Partition = "bogus"
	if err := bad.Validate(); err == nil {
		t.Error("bogus partition accepted")
	}
	bad = DefaultConfig(4)
	bad.CPUClockRatio = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero clock ratio accepted")
	}
	bad = DefaultConfig(4)
	bad.SchedQuantumCPUCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero quantum accepted")
	}
	bad = DefaultConfig(4)
	bad.MigratePagesPerQuantum = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative migration budget accepted")
	}
	bad = DefaultConfig(4)
	bad.Partition = PartDBP
	bad.DBP.QuantumCPUCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad DBP config accepted")
	}
	bad = DefaultConfig(4)
	bad.Partition = PartMCP
	bad.MCP.QuantumCPUCycles = 0
	if err := bad.Validate(); err == nil {
		t.Error("bad MCP config accepted")
	}
}

func TestPartitionQuantumRounding(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Partition = PartDBP
	cfg.SchedQuantumCPUCycles = 300_000
	cfg.DBP.QuantumCPUCycles = 500_000
	if q := cfg.partitionQuantum(); q != 600_000 {
		t.Errorf("partitionQuantum = %d, want 600000", q)
	}
	cfg.DBP.QuantumCPUCycles = 100_000
	if q := cfg.partitionQuantum(); q != 300_000 {
		t.Errorf("small quantum rounds to base: %d", q)
	}
	cfg.Partition = PartNone
	if q := cfg.partitionQuantum(); q != 0 {
		t.Errorf("static policy quantum = %d, want 0", q)
	}
}

func TestSchedName(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Scheduler = SchedTCM
	if cfg.schedName() != "tcm" {
		t.Errorf("schedName = %q", cfg.schedName())
	}
	cfg.Partition = PartMCP
	if cfg.schedName() != "tcm+prio" {
		t.Errorf("schedName with MCP = %q", cfg.schedName())
	}
}

func TestNewSystemErrors(t *testing.T) {
	cfg := fastConfig(4)
	if _, err := NewSystem(cfg, quickBenches(3)); err == nil {
		t.Error("bench/core mismatch accepted")
	}
	bad := cfg
	bad.Cores = -1
	if _, err := NewSystem(bad, nil); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunMeasuresEveryCore(t *testing.T) {
	cfg := fastConfig(4)
	sys, err := NewSystem(cfg, quickBenches(4))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(20_000, 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Threads) != 4 {
		t.Fatalf("got %d thread results", len(res.Threads))
	}
	for _, th := range res.Threads {
		if th.IPC <= 0 || th.IPC > 4 {
			t.Errorf("%s IPC = %g out of range", th.Name, th.IPC)
		}
		if th.Instructions < 70_000 {
			t.Errorf("%s retired only %d instructions", th.Name, th.Instructions)
		}
	}
	if res.Cycles == 0 || res.MemCycles == 0 {
		t.Error("cycle counters empty")
	}
	if res.DRAM.Reads == 0 || res.DRAM.Activates == 0 {
		t.Errorf("DRAM stats empty: %+v", res.DRAM)
	}
}

func TestRunErrors(t *testing.T) {
	cfg := fastConfig(2)
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(0, 0, 0); err == nil {
		t.Error("zero measure accepted")
	}
	if _, err := sys.Run(0, 1_000_000, 10); err == nil {
		t.Error("tiny cycle budget should error")
	}
}

func TestRunDeterministic(t *testing.T) {
	mk := func() Result {
		cfg := fastConfig(2)
		sys, err := NewSystem(cfg, quickBenches(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(10_000, 30_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := mk(), mk()
	if a.Cycles != b.Cycles {
		t.Fatalf("cycles differ: %d vs %d", a.Cycles, b.Cycles)
	}
	for i := range a.Threads {
		if a.Threads[i].IPC != b.Threads[i].IPC {
			t.Errorf("thread %d IPC differs: %g vs %g", i, a.Threads[i].IPC, b.Threads[i].IPC)
		}
	}
}

func TestMemoryIntensityOrdering(t *testing.T) {
	// A memory-heavy benchmark must show higher MPKI and lower IPC than a
	// light one on the same system.
	cfg := fastConfig(2)
	heavy, _ := workload.ByName("milc-like")
	light, _ := workload.ByName("calculix-like")
	sys, err := NewSystem(cfg, []Bench{
		{Name: heavy.Name, Gen: heavy.New(1)},
		{Name: light.Name, Gen: light.New(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(20_000, 60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, l := res.Threads[0], res.Threads[1]
	if h.MPKI <= l.MPKI*5 {
		t.Errorf("heavy MPKI %g not ≫ light MPKI %g", h.MPKI, l.MPKI)
	}
	if h.IPC >= l.IPC {
		t.Errorf("heavy IPC %g ≥ light IPC %g", h.IPC, l.IPC)
	}
}

func TestRowLocalityOrdering(t *testing.T) {
	// Streaming threads must measure much higher RBL than random ones.
	cfg := fastConfig(2)
	stream, _ := workload.ByName("libquantum-like")
	random, _ := workload.ByName("milc-like")
	sys, err := NewSystem(cfg, []Bench{
		{Name: stream.Name, Gen: stream.New(1)},
		{Name: random.Name, Gen: random.New(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(20_000, 60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads[0].RBL < res.Threads[1].RBL+0.3 {
		t.Errorf("stream RBL %g not ≫ random RBL %g", res.Threads[0].RBL, res.Threads[1].RBL)
	}
}

func TestBLPOrdering(t *testing.T) {
	// A multi-stream benchmark must measure higher BLP than a pointer chase.
	cfg := fastConfig(2)
	wide, _ := workload.ByName("lbm-like")
	chase, _ := workload.ByName("mcf-like")
	sys, err := NewSystem(cfg, []Bench{
		{Name: wide.Name, Gen: wide.New(1)},
		{Name: chase.Name, Gen: chase.New(2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(20_000, 60_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads[0].BLP < res.Threads[1].BLP+1 {
		t.Errorf("lbm BLP %g not ≫ mcf BLP %g", res.Threads[0].BLP, res.Threads[1].BLP)
	}
	if res.Threads[1].BLP > 1.3 {
		t.Errorf("pointer chase BLP %g, want ≈1", res.Threads[1].BLP)
	}
}

func TestEveryPolicyRuns(t *testing.T) {
	for _, p := range StandardPolicies() {
		cfg := fastConfig(4)
		cfg.Scheduler = p.Scheduler
		cfg.Partition = p.Partition
		sys, err := NewSystem(cfg, quickBenches(4))
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		res, err := sys.Run(20_000, 40_000, 0)
		if err != nil {
			t.Fatalf("%s: %v", p.Label, err)
		}
		for _, th := range res.Threads {
			if th.IPC <= 0 {
				t.Errorf("%s: thread %s has IPC %g", p.Label, th.Name, th.IPC)
			}
		}
	}
}

func TestATLASAndFCFSRun(t *testing.T) {
	for _, s := range []SchedulerKind{SchedATLAS, SchedFCFS, SchedPARBS, SchedFRFCFSCap, SchedBLISS} {
		cfg := fastConfig(2)
		cfg.Scheduler = s
		sys, err := NewSystem(cfg, quickBenches(2))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(10_000, 20_000, 0); err != nil {
			t.Errorf("%s: %v", s, err)
		}
	}
}

func TestDBPRepartitionsAndMigrates(t *testing.T) {
	cfg := fastConfig(4)
	cfg.Partition = PartDBP
	benches := []Bench{}
	for _, n := range []string{"lbm-like", "milc-like", "mcf-like", "calculix-like"} {
		spec, _ := workload.ByName(n)
		benches = append(benches, Bench{Name: n, Gen: spec.New(7)})
	}
	sys, err := NewSystem(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(50_000, 150_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Repartitions == 0 {
		t.Error("DBP never repartitioned")
	}
	hist := sys.DBP().History()
	if len(hist) == 0 {
		t.Fatal("empty history")
	}
	last := hist[len(hist)-1]
	// lbm (high BLP) should own more banks than mcf (chase).
	if last.Colors[0] <= last.Colors[2] {
		t.Errorf("lbm got %d colors vs mcf %d; allocation not demand-proportional (%v)",
			last.Colors[0], last.Colors[2], last.Colors)
	}
	var migrated uint64
	for _, th := range res.Threads {
		migrated += th.PagesMigrated
	}
	if migrated == 0 {
		t.Error("no pages migrated despite repartitioning")
	}
}

func TestExperimentAloneIPCCached(t *testing.T) {
	e := NewExperiment(fastConfig(2), 10_000, 20_000)
	a, err := e.AloneIPC("gcc-like", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.AloneIPC("gcc-like", 5)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cached alone IPC differs: %g vs %g", a, b)
	}
	if len(e.aloneIPC) != 1 {
		t.Errorf("cache has %d entries, want 1", len(e.aloneIPC))
	}
	if _, err := e.AloneIPC("ghost", 1); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestExperimentRunMix(t *testing.T) {
	e := NewExperiment(fastConfig(4), 20_000, 40_000)
	mix, _ := workload.MixByName("W4-M1")
	run, err := e.RunMix(mix, SchedFRFCFS, PartNone)
	if err != nil {
		t.Fatal(err)
	}
	m := run.Metrics
	if m.WeightedSpeedup <= 0 || m.WeightedSpeedup > 4 {
		t.Errorf("WS = %g out of range", m.WeightedSpeedup)
	}
	if m.MaxSlowdown < 1 {
		t.Errorf("MS = %g below 1", m.MaxSlowdown)
	}
	if len(m.Threads) != 4 {
		t.Errorf("thread metrics missing: %d", len(m.Threads))
	}
	// Unknown mix member must error.
	badMix := workload.Mix{Name: "bad", Members: []string{"ghost"}}
	if _, err := e.RunMix(badMix, SchedFRFCFS, PartNone); err == nil {
		t.Error("unknown member accepted")
	}
}

func TestExperimentSeedsStablePerOccurrence(t *testing.T) {
	e := NewExperiment(fastConfig(4), 1, 1)
	mix := workload.Mix{Name: "dup", Members: []string{"gcc-like", "gcc-like"}}
	_, seeds, err := e.benches(mix)
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] == seeds[1] {
		t.Error("duplicate benchmarks share a seed (lockstep traces)")
	}
	_, seeds2, err := e.benches(mix)
	if err != nil {
		t.Fatal(err)
	}
	if seeds[0] != seeds2[0] || seeds[1] != seeds2[1] {
		t.Error("seeds unstable across calls")
	}
}

func TestStandardPolicies(t *testing.T) {
	pols := StandardPolicies()
	if len(pols) != 6 {
		t.Fatalf("got %d policies", len(pols))
	}
	labels := map[string]bool{}
	for _, p := range pols {
		labels[p.Label] = true
	}
	for _, want := range []string{"FRFCFS", "EqualBP", "DBP", "TCM", "MCP", "DBP-TCM"} {
		if !labels[want] {
			t.Errorf("missing policy %s", want)
		}
	}
}

// TestScriptedTinySystem runs a two-item scripted trace through the full
// stack as a sanity check on the plumbing.
func TestScriptedTinySystem(t *testing.T) {
	cfg := fastConfig(1)
	gen := trace.NewScripted([]trace.Item{
		{Gap: 3, Addr: 0x1000},
		{Gap: 3, Addr: 0x80000000, IsWrite: true},
	})
	sys, err := NewSystem(cfg, []Bench{{Name: "tiny", Gen: gen}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(0, 5_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Threads[0].IPC <= 0 {
		t.Error("tiny system made no progress")
	}
	if !strings.Contains(res.Threads[0].Name, "tiny") {
		t.Errorf("name lost: %q", res.Threads[0].Name)
	}
}

func TestEnergyReported(t *testing.T) {
	cfg := fastConfig(2)
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10_000, 30_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy.Total() <= 0 {
		t.Error("no energy accounted")
	}
	if res.EnergyPerAccess <= 0 {
		t.Error("no per-access energy")
	}
	if res.Energy.Background <= 0 || res.Energy.Read <= 0 {
		t.Errorf("breakdown incomplete: %+v", res.Energy)
	}
}

func TestPrefetchThroughSim(t *testing.T) {
	run := func(degree int) uint64 {
		cfg := fastConfig(1)
		cfg.CPU.PrefetchDegree = degree
		spec, _ := workload.ByName("libquantum-like")
		sys, err := NewSystem(cfg, []Bench{{Name: spec.Name, Gen: spec.New(3)}})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(10_000, 50_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.Threads[0].Misses
	}
	without := run(0)
	with := run(4)
	if with >= without {
		t.Errorf("prefetching did not reduce stream misses: %d vs %d", with, without)
	}
}

func TestTimelineRecording(t *testing.T) {
	cfg := fastConfig(2)
	cfg.RecordTimeline = true
	cfg.SchedQuantumCPUCycles = 10_000
	cfg.DBP.QuantumCPUCycles = 20_000
	cfg.Partition = PartDBP
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10_000, 50_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline points recorded")
	}
	for i, p := range res.Timeline {
		if len(p.IPC) != 2 || len(p.BLP) != 2 || len(p.Banks) != 2 {
			t.Fatalf("point %d malformed: %+v", i, p)
		}
		if p.Banks[0] < 1 {
			t.Errorf("point %d has empty mask", i)
		}
		if i > 0 && p.Cycle <= res.Timeline[i-1].Cycle {
			t.Errorf("timeline not monotone at %d", i)
		}
	}
	// Off by default.
	cfg.RecordTimeline = false
	sys2, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := sys2.Run(10_000, 20_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Timeline) != 0 {
		t.Error("timeline recorded without opt-in")
	}
}

func TestLatencyHistograms(t *testing.T) {
	cfg := fastConfig(2)
	cfg.RecordLatencyHistograms = true
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10_000, 30_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ReadLatency) != 2 {
		t.Fatalf("histograms = %d", len(res.ReadLatency))
	}
	h := res.ReadLatency[0] // libquantum: plenty of reads
	if h.N == 0 {
		t.Fatal("no latencies observed")
	}
	min := float64(DefaultConfig(1).Timing.CL)
	if h.Min < min {
		t.Errorf("min latency %.0f below CL %.0f", h.Min, min)
	}
	if h.MeanValue() <= 0 {
		t.Error("zero mean latency")
	}
}

func TestLineInterleaveRejectsPartitioning(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Mapping = addr.SchemeLineInterleave
	cfg.Partition = PartDBP
	if err := cfg.Validate(); err == nil {
		t.Error("line interleave + DBP accepted")
	}
	cfg.Partition = PartNone
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(5_000, 15_000, 0); err != nil {
		t.Fatal(err)
	}
}

func TestXORMappingRunsWithDBP(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Mapping = addr.SchemeXORBank
	cfg.Partition = PartDBP
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(5_000, 15_000, 0); err != nil {
		t.Fatal(err)
	}
}

func TestLLCConfigValidation(t *testing.T) {
	cfg := fastConfig(4)
	cfg.L3.SizeBytes = 4 << 20
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.L3Latency = bad.CPU.L2Latency
	if err := bad.Validate(); err == nil {
		t.Error("L3 latency ≤ L2 accepted")
	}
	bad = cfg
	bad.L3Policy = "bogus"
	if err := bad.Validate(); err == nil {
		t.Error("bogus L3 policy accepted")
	}
	bad = cfg
	bad.L3.Ways = 2
	if err := bad.Validate(); err == nil {
		t.Error("fewer ways than cores accepted")
	}
	bad = cfg
	bad.L3Policy = L3UCP
	bad.L3UMONSampleEvery = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero UMON stride accepted")
	}
}

func TestLLCReducesMemoryTraffic(t *testing.T) {
	// A 2 MiB random working set revisited many times: too big for the
	// 512 KiB L2, fully resident in an 8 MiB L3.
	run := func(l3 int) uint64 {
		cfg := fastConfig(2)
		cfg.L3.SizeBytes = l3
		mk := func(seed int64) Bench {
			return Bench{Name: "reuse", Gen: trace.NewRandom(trace.Config{
				MemRatio: 0.5, WorkingSetBytes: 2 << 20, BaseAddr: 1 << 30}, seed)}
		}
		sys, err := NewSystem(cfg, []Bench{mk(1), mk(2)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(50_000, 150_000, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res.DRAM.Reads
	}
	without := run(0)
	with := run(8 << 20)
	if float64(with) > 0.8*float64(without) {
		t.Errorf("LLC did not reduce DRAM reads: %d vs %d", with, without)
	}
}

func TestLLCPoliciesRun(t *testing.T) {
	for _, pol := range []L3PolicyKind{L3Shared, L3Equal, L3UCP} {
		cfg := fastConfig(2)
		cfg.SchedQuantumCPUCycles = 10_000 // several UCP repartitions per run
		cfg.L3.SizeBytes = 1 << 20
		cfg.L3Policy = pol
		sys, err := NewSystem(cfg, quickBenches(2))
		if err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if _, err := sys.Run(10_000, 30_000, 0); err != nil {
			t.Fatalf("%s: %v", pol, err)
		}
		if sys.Policy() == nil || sys.Cycle() == 0 {
			t.Errorf("%s: accessors broken", pol)
		}
	}
}

func TestParanoidModeCleanRun(t *testing.T) {
	cfg := fastConfig(4)
	cfg.Paranoid = true
	cfg.Partition = PartDBP
	sys, err := NewSystem(cfg, quickBenches(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(20_000, 60_000, 0); err != nil {
		t.Fatalf("paranoid run flagged a healthy system: %v", err)
	}
}

func TestParanoidCatchesCorruption(t *testing.T) {
	cfg := fastConfig(2)
	cfg.Paranoid = true
	cfg.SchedQuantumCPUCycles = 5_000
	sys, err := NewSystem(cfg, quickBenches(2))
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the service bookkeeping directly: served ≫ arrived.
	sys.life[0].ReadsServed = 1_000_000
	if _, err := sys.Run(5_000, 10_000, 0); err == nil {
		t.Error("paranoid mode missed corrupted accounting")
	}
}

// TestParanoidPropertyAcrossPolicies runs small randomized systems with the
// invariant checker armed: any conservation violation in any subsystem
// combination fails here.
func TestParanoidPropertyAcrossPolicies(t *testing.T) {
	if testing.Short() {
		t.Skip("paranoid property sweep is slow")
	}
	parts := []PartitionKind{PartNone, PartEqual, PartDBP, PartMCP}
	scheds := []SchedulerKind{SchedFRFCFS, SchedTCM, SchedPARBS, SchedBLISS}
	for i := 0; i < 8; i++ {
		cfg := fastConfig(4)
		cfg.Paranoid = true
		cfg.SchedQuantumCPUCycles = 20_000
		cfg.DBP.QuantumCPUCycles = 40_000
		cfg.MCP.QuantumCPUCycles = 40_000
		cfg.Scheduler = scheds[i%len(scheds)]
		cfg.Partition = parts[i%len(parts)]
		cfg.Seed = int64(100 + i)
		if i%2 == 1 {
			cfg.Mapping = addr.SchemeXORBank
		}
		if i%3 == 2 {
			cfg.L3.SizeBytes = 1 << 20
		}
		sys, err := NewSystem(cfg, quickBenches(4))
		if err != nil {
			t.Fatalf("combo %d: %v", i, err)
		}
		if _, err := sys.Run(10_000, 30_000, 0); err != nil {
			t.Errorf("combo %d (%s/%s): %v", i, cfg.Scheduler, cfg.Partition, err)
		}
	}
}
