package sim

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"dbpsim/internal/cpu"
	"dbpsim/internal/obs"
	"dbpsim/internal/trace"
	"dbpsim/internal/workload"
)

// computeTestMix is a low-MPKI, compute-heavy pairing: both members spend
// most cycles streaming gap instructions, so this mix exercises the
// compute-streaming fast-forward path rather than the stall-skip path.
var computeTestMix = workload.Mix{Name: "skiptest-compute", Members: []string{"povray-like", "calculix-like"}}

// skipLedgerBytes is ledgerBytes with an explicit skip mode and mix.
func skipLedgerBytes(t *testing.T, cfg Config, mix workload.Mix, scheduler SchedulerKind, partition PartitionKind, ck *Checkpointer, disableSkip bool) []byte {
	t.Helper()
	exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
	exp.DisableCycleSkipping = disableSkip
	rec := snapshotTestRecorder(t, cfg)
	run, err := exp.RunMixCheckpointedContext(context.Background(), mix, scheduler, partition, rec, ck)
	if err != nil {
		t.Fatalf("%s/%s run (disableSkip=%v): %v", scheduler, partition, disableSkip, err)
	}
	ledger, err := BuildLedger("skip-test", cfg, snapTestWarmup, snapTestMeasure, run, rec)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := obs.MarshalLedger(ledger)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// skipPolicyCases are the policy families whose scheduler/partitioner state
// interacts with the clock (quantum timers, shuffle intervals), i.e. the
// ones a wrong skip clamp would corrupt, plus every other scheduler: each
// announces its own priority changes to the controller's cached per-bank
// ranking, and a missed announcement shows up here as diverging bytes.
var skipPolicyCases = []struct {
	name      string
	scheduler SchedulerKind
	partition PartitionKind
}{
	{"FRFCFS", SchedFRFCFS, PartNone},
	{"TCM", SchedTCM, PartNone},
	{"MCP", SchedFRFCFS, PartMCP},
	{"DBP", SchedFRFCFS, PartDBP},
	{"DBP-TCM", SchedTCM, PartDBP},
	{"FCFS", SchedFCFS, PartNone},
	{"ATLAS", SchedATLAS, PartNone},
	{"PARBS", SchedPARBS, PartNone},
	{"BLISS", SchedBLISS, PartNone},
	{"FRFCFS-cap", SchedFRFCFSCap, PartNone},
	{"PARBS-MCP", SchedPARBS, PartMCP},
	{"BLISS-MCP", SchedBLISS, PartMCP},
}

// TestSkipBitIdenticalLedgers is the tentpole guarantee of the cycle-skip
// fast path: for every policy family and for both a memory-bound and a
// compute-bound mix, the full run ledger is byte-identical with skipping on
// and off.
func TestSkipBitIdenticalLedgers(t *testing.T) {
	mixes := []workload.Mix{snapshotTestMix, computeTestMix}
	for _, mix := range mixes {
		for _, tc := range skipPolicyCases {
			mix, tc := mix, tc
			t.Run(mix.Name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := snapshotTestConfig()
				on := skipLedgerBytes(t, cfg, mix, tc.scheduler, tc.partition, nil, false)
				off := skipLedgerBytes(t, cfg, mix, tc.scheduler, tc.partition, nil, true)
				if !bytes.Equal(on, off) {
					t.Fatalf("ledger differs between skip modes:\n--- skipping on (%d bytes)\n%s\n--- skipping off (%d bytes)\n%s",
						len(on), truncateForLog(on), len(off), truncateForLog(off))
				}
			})
		}
	}
}

// skipCheckpoints runs one mix collecting every periodic checkpoint blob.
func skipCheckpoints(t *testing.T, cfg Config, mix workload.Mix, scheduler SchedulerKind, partition PartitionKind, disableSkip bool) (cycles []uint64, blobs [][]byte) {
	t.Helper()
	ck := &Checkpointer{
		Interval: cfg.SchedQuantumCPUCycles * 2,
		Sink: func(b []byte, cycle uint64) {
			blob := append([]byte(nil), b...)
			cycles = append(cycles, cycle)
			blobs = append(blobs, blob)
		},
	}
	skipLedgerBytes(t, cfg, mix, scheduler, partition, ck, disableSkip)
	return cycles, blobs
}

// TestSkipBitIdenticalCheckpoints sharpens the ledger check: the serialised
// machine state itself (every periodic snapshot blob, at every emission
// cycle) must be byte-identical between skip modes. This covers state the
// ledger never surfaces — ROB ring contents, bank timing, scheduler
// internals.
func TestSkipBitIdenticalCheckpoints(t *testing.T) {
	mixes := []workload.Mix{snapshotTestMix, computeTestMix}
	for _, mix := range mixes {
		for _, tc := range skipPolicyCases {
			mix, tc := mix, tc
			t.Run(mix.Name+"/"+tc.name, func(t *testing.T) {
				t.Parallel()
				cfg := snapshotTestConfig()
				onCycles, onBlobs := skipCheckpoints(t, cfg, mix, tc.scheduler, tc.partition, false)
				offCycles, offBlobs := skipCheckpoints(t, cfg, mix, tc.scheduler, tc.partition, true)
				if len(onBlobs) == 0 {
					t.Fatal("no checkpoints emitted")
				}
				if len(onCycles) != len(offCycles) {
					t.Fatalf("checkpoint counts differ: %d with skipping, %d without", len(onCycles), len(offCycles))
				}
				for i := range onCycles {
					if onCycles[i] != offCycles[i] {
						t.Fatalf("checkpoint %d emitted at cycle %d with skipping, %d without", i, onCycles[i], offCycles[i])
					}
					if !bytes.Equal(onBlobs[i], offBlobs[i]) {
						t.Fatalf("checkpoint blob %d (cycle %d) differs between skip modes", i, onCycles[i])
					}
				}
			})
		}
	}
}

// TestCheckpointResumeAcrossSkipModes pins down that snapshots are
// portable across skip modes: a blob captured mid-run with skipping on
// resumes under skipping off (and vice versa) to the exact uninterrupted
// ledger. This is the checkpoint-resume-mid-skip case: the capturing run
// reaches the checkpoint via clock jumps, the resuming run ticks every
// cycle (and the other way around).
func TestCheckpointResumeAcrossSkipModes(t *testing.T) {
	for _, mix := range []workload.Mix{snapshotTestMix, computeTestMix} {
		mix := mix
		t.Run(mix.Name, func(t *testing.T) {
			t.Parallel()
			cfg := snapshotTestConfig()
			want := skipLedgerBytes(t, cfg, mix, SchedTCM, PartDBP, nil, true)

			capture := func(disableSkip bool) []byte {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				var blob []byte
				count := 0
				ck := &Checkpointer{
					Interval: cfg.SchedQuantumCPUCycles * 3,
					Sink: func(b []byte, _ uint64) {
						count++
						blob = append([]byte(nil), b...)
						if count == 2 {
							cancel()
						}
					},
				}
				exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
				exp.DisableCycleSkipping = disableSkip
				rec := snapshotTestRecorder(t, cfg)
				_, err := exp.RunMixCheckpointedContext(ctx, mix, SchedTCM, PartDBP, rec, ck)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("interrupted run: want context.Canceled, got %v", err)
				}
				if blob == nil {
					t.Fatal("no checkpoint emitted before cancellation")
				}
				return blob
			}

			fromSkipping := capture(false)
			fromTicking := capture(true)

			// Resume each blob under the opposite mode.
			got := skipLedgerBytes(t, cfg, mix, SchedTCM, PartDBP, &Checkpointer{Restore: fromSkipping}, true)
			if !bytes.Equal(got, want) {
				t.Fatal("blob captured with skipping, resumed without: ledger differs from uninterrupted run")
			}
			got = skipLedgerBytes(t, cfg, mix, SchedTCM, PartDBP, &Checkpointer{Restore: fromTicking}, false)
			if !bytes.Equal(got, want) {
				t.Fatal("blob captured without skipping, resumed with: ledger differs from uninterrupted run")
			}
		})
	}
}

// buildSkipSystem constructs a ready-to-run system for mix under the given
// policy, mirroring what Experiment does internally.
func buildSkipSystem(t testing.TB, cfg Config, mix workload.Mix, scheduler SchedulerKind, partition PartitionKind) *System {
	t.Helper()
	exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
	benches, _, err := exp.benches(mix)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cores = mix.Cores()
	cfg.Scheduler = scheduler
	cfg.Partition = partition
	sys, err := NewSystem(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSkipEngages asserts the fast path actually fires — without this, the
// bit-identity suite would pass trivially if trySkip always bailed. Both
// skip flavours must carry real weight: the compute-bound mix must cover
// most of its cycles via streaming fast-forward, and the memory-bound mix
// must cover a meaningful share via stall skipping.
func TestSkipEngages(t *testing.T) {
	cases := []struct {
		name     string
		mix      workload.Mix
		minShare float64
	}{
		{"compute-bound", computeTestMix, 0.5},
		{"memory-bound", snapshotTestMix, 0.2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := snapshotTestConfig()
			sys := buildSkipSystem(t, cfg, tc.mix, SchedFRFCFS, PartNone)
			res, err := sys.Run(snapTestWarmup, snapTestMeasure, 0)
			if err != nil {
				t.Fatal(err)
			}
			skipped := sys.SkippedCycles()
			if share := float64(skipped) / float64(res.Cycles); share < tc.minShare {
				t.Fatalf("skipped %d of %d cycles (%.1f%%), want at least %.0f%%",
					skipped, res.Cycles, 100*share, 100*tc.minShare)
			}
		})
	}
}

// TestMeasureLoopZeroAlloc pins the steady-state allocation contract: once
// past warmup, stepping the system — including scheduler-quantum
// boundaries, profiler epoch sampling and the skip fast path — allocates
// nothing. The benches use small working sets so warmup covers every page:
// first-touch page-table growth is the one legitimate (data-dependent,
// amortised) allocation in a run, and pinning it out of the window isolates
// the per-cycle machinery itself.
func TestMeasureLoopZeroAlloc(t *testing.T) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"ticking", false}, {"skipping", true}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			cfg := snapshotTestConfig()
			cfg.Cores = 2
			cfg.Scheduler = SchedFRFCFS
			cfg.Partition = PartNone
			benches := []Bench{
				{Name: "hot-random", Gen: trace.NewRandom(trace.Config{MemRatio: 0.2, WriteFrac: 0.2, WorkingSetBytes: 1 << 18}, 11)},
				{Name: "hot-chase", Gen: trace.NewChase(trace.Config{MemRatio: 0.5, WorkingSetBytes: 1 << 18}, 12)},
			}
			sys, err := NewSystem(cfg, benches)
			if err != nil {
				t.Fatal(err)
			}
			sys.SetCycleSkipping(mode.on)
			// Warm up: first-touch page allocations, pool growth, map sizing.
			for i := 0; i < 100000; i++ {
				if err := sys.step(); err != nil {
					t.Fatal(err)
				}
			}
			targets := []uint64{noRetireTarget, noRetireTarget}
			allocs := testing.AllocsPerRun(10, func() {
				for i := 0; i < 2000; i++ {
					if mode.on {
						jumped, err := sys.trySkip(^uint64(0), targets)
						if err != nil {
							t.Fatal(err)
						}
						if jumped {
							continue
						}
					}
					if err := sys.step(); err != nil {
						t.Fatal(err)
					}
				}
			})
			if allocs != 0 {
				t.Fatalf("steady-state loop allocated %.1f times per 2000-cycle batch, want 0", allocs)
			}
		})
	}
}

// BenchmarkMeasureLoopSteadyState measures the warm per-cycle cost of the
// run loop's inner body — the hot path every simulation spends its life in —
// with one op per simulated cycle, so ns/op is ns per simulated cycle
// directly. allocs/op reads 0 under -benchmem; TestMeasureLoopZeroAlloc
// enforces that.
func BenchmarkMeasureLoopSteadyState(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"ticking", false}, {"skipping", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			cfg := snapshotTestConfig()
			cfg.Cores = 2
			cfg.Scheduler = SchedFRFCFS
			cfg.Partition = PartNone
			benches := []Bench{
				{Name: "hot-random", Gen: trace.NewRandom(trace.Config{MemRatio: 0.2, WriteFrac: 0.2, WorkingSetBytes: 1 << 18}, 11)},
				{Name: "hot-chase", Gen: trace.NewChase(trace.Config{MemRatio: 0.5, WorkingSetBytes: 1 << 18}, 12)},
			}
			sys, err := NewSystem(cfg, benches)
			if err != nil {
				b.Fatal(err)
			}
			sys.SetCycleSkipping(mode.on)
			for i := 0; i < 100000; i++ {
				if err := sys.step(); err != nil {
					b.Fatal(err)
				}
			}
			targets := []uint64{noRetireTarget, noRetireTarget}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if mode.on {
					jumped, err := sys.trySkip(^uint64(0), targets)
					if err != nil {
						b.Fatal(err)
					}
					if jumped {
						continue
					}
				}
				if err := sys.step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// stepTo drives sys the way the run loop does (trySkip first when skipping
// is on, else a step) until its clock reaches cycle, a quantum boundary.
// After every iteration each awake core's own clock must equal the
// system's: a woken core has had its stalled cycles applied. It returns the
// longest stretch any core slept waiting on DRAM before a demand
// completion woke it.
func stepTo(t *testing.T, sys *System, cycle uint64) (longestDRAMSleep uint64) {
	t.Helper()
	targets := make([]uint64, len(sys.cores))
	for i := range targets {
		targets[i] = noRetireTarget
	}
	since := make([]uint64, len(sys.cores)) // 0: not asleep on DRAM
	for sys.Cycle() < cycle {
		jumped := false
		if sys.skipping {
			var err error
			if jumped, err = sys.trySkip(cycle, targets); err != nil {
				t.Fatal(err)
			}
		}
		if !jumped {
			if err := sys.step(); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range sys.coreWake {
			if now := sys.cores[i].Now(); w == 0 && now != sys.Cycle() {
				t.Fatalf("awake core %d is at cycle %d, the system at %d", i, now, sys.Cycle())
			}
			switch {
			case w == cpu.NeverEvent && since[i] == 0:
				since[i] = sys.Cycle()
			case w == 0 && since[i] != 0:
				longestDRAMSleep = max(longestDRAMSleep, sys.Cycle()-since[i])
				since[i] = 0
			}
		}
	}
	return longestDRAMSleep
}

// snapshotAfter builds a system over benches, steps it to cycle with
// skipping on or off, and returns its snapshot and longest DRAM sleep.
func snapshotAfter(t *testing.T, cfg Config, benches func() []Bench, cycle uint64, skipping bool) ([]byte, uint64) {
	t.Helper()
	sys, err := NewSystem(cfg, benches())
	if err != nil {
		t.Fatal(err)
	}
	sys.SetCycleSkipping(skipping)
	slept := stepTo(t, sys, cycle)
	blob, err := sys.Snapshot(RunProgress{})
	if err != nil {
		t.Fatal(err)
	}
	return blob, slept
}

// TestSkipMatchesTickAcrossDemandWakes covers a core that sleeps on DRAM
// for a long stretch while the others keep the kernel stepping, then wakes
// on a demand completion: the pointer chase's serialised misses queue
// behind three random streams. The sleeper's stalled cycles are applied in
// bulk when the completion wakes it, and the whole system state must equal
// the cycle-by-cycle run's, byte for byte, with the paranoid checks on.
func TestSkipMatchesTickAcrossDemandWakes(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.SchedQuantumCPUCycles = 1000
	cfg.Paranoid = true
	benches := func() []Bench {
		heavy := trace.Config{MemRatio: 0.4, WriteFrac: 0.3, WorkingSetBytes: 64 << 20}
		return []Bench{
			{Name: "chase", Gen: trace.NewChase(trace.Config{MemRatio: 0.3, WorkingSetBytes: 64 << 20}, 1)},
			{Name: "random-a", Gen: trace.NewRandom(heavy, 2)},
			{Name: "random-b", Gen: trace.NewRandom(heavy, 3)},
			{Name: "random-c", Gen: trace.NewRandom(heavy, 4)},
		}
	}
	const cycles = 40_000
	on, slept := snapshotAfter(t, cfg, benches, cycles, true)
	off, _ := snapshotAfter(t, cfg, benches, cycles, false)
	if !bytes.Equal(on, off) {
		t.Fatalf("system state after %d cycles differs between skip modes (%d vs %d snapshot bytes)", cycles, len(on), len(off))
	}
	if slept < 200 {
		t.Fatalf("longest sleep on DRAM before a demand wake was %d cycles, want at least 200", slept)
	}
}

// TestSkipMatchesTickAbove64Cores runs a system wider than one word of the
// awake set: every core, including those past index 63, must tick, sleep
// and wake exactly as under cycle-by-cycle execution.
func TestSkipMatchesTickAbove64Cores(t *testing.T) {
	const cores = 66
	cfg := DefaultConfig(cores)
	cfg.SchedQuantumCPUCycles = 1000
	benches := func() []Bench {
		b := make([]Bench, cores)
		for i := range b {
			tc := trace.Config{MemRatio: 0.05 + 0.1*float64(i%4), WriteFrac: 0.2, WorkingSetBytes: 1 << 20, BaseAddr: uint64(i) << 24}
			switch i % 3 {
			case 0:
				b[i] = Bench{Name: "chase", Gen: trace.NewChase(tc, int64(i))}
			case 1:
				b[i] = Bench{Name: "random", Gen: trace.NewRandom(tc, int64(i))}
			default:
				b[i] = Bench{Name: "stream", Gen: trace.NewStream(tc, 2, 64, int64(i))}
			}
		}
		return b
	}
	const cycles = 6000
	on, _ := snapshotAfter(t, cfg, benches, cycles, true)
	off, _ := snapshotAfter(t, cfg, benches, cycles, false)
	if !bytes.Equal(on, off) {
		t.Fatalf("system state after %d cycles differs between skip modes (%d vs %d snapshot bytes)", cycles, len(on), len(off))
	}
}
