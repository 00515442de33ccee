package sim

import (
	"context"
	"testing"

	"dbpsim/internal/memctrl"
	"dbpsim/internal/sched"
	"dbpsim/internal/workload"
)

// schedWork counts what the controllers ask of the scheduler: Less calls,
// and controller ticks (each Tick calls OnTick exactly once).
type schedWork struct{ less, ticks uint64 }

// The counting wrappers embed the concrete scheduler, so every
// memctrl.Scheduler method they do not count reaches it unchanged.
type countingFRFCFS struct {
	*sched.FRFCFS
	w *schedWork
}

func (c countingFRFCFS) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	c.w.less++
	return c.FRFCFS.Less(ctx, a, b)
}

func (c countingFRFCFS) OnTick(now uint64) {
	c.w.ticks++
	c.FRFCFS.OnTick(now)
}

type countingTCM struct {
	*sched.TCM
	w *schedWork
}

func (c countingTCM) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	c.w.less++
	return c.TCM.Less(ctx, a, b)
}

func (c countingTCM) OnTick(now uint64) {
	c.w.ticks++
	c.TCM.OnTick(now)
}

// maxLessPerTick bounds the mean Less calls per controller tick. Re-ranking
// the whole queue every tick costs about 45 on this input (queues about 46
// deep); the per-bank heads cost under 2, and a selection that called Less
// twice per comparison would cost over 3.
const maxLessPerTick = 2.5

// denseWorkInput is the dense benchmark's shared-run input: W8-H1 at trace
// seed 1000 with its quanta shrunk to match the 3k/6k instruction budgets.
func denseWorkInput(t *testing.T) (Config, workload.Mix) {
	t.Helper()
	cfg := DefaultConfig(8)
	cfg.Seed = 1000
	cfg.SchedQuantumCPUCycles = 10_000
	cfg.DBP.QuantumCPUCycles = 20_000
	cfg.MCP.QuantumCPUCycles = 20_000
	mix, ok := workload.MixByName("W8-H1")
	if !ok {
		t.Fatal("mix W8-H1 missing")
	}
	return cfg, mix
}

// TestSchedulerWorkPerTick pins the controller's selection work as a
// machine-independent count: the dense benchmark's shared run (W8-H1, trace
// seed 1000, quanta shrunk with the 3k/6k instruction budgets) under FR-FCFS
// and TCM must stay under maxLessPerTick Less calls per controller tick.
func TestSchedulerWorkPerTick(t *testing.T) {
	cfg, mix := denseWorkInput(t)
	for _, tc := range []struct {
		kind SchedulerKind
		wrap func(memctrl.Scheduler, *schedWork) memctrl.Scheduler
	}{
		{SchedFRFCFS, func(s memctrl.Scheduler, w *schedWork) memctrl.Scheduler { return countingFRFCFS{s.(*sched.FRFCFS), w} }},
		{SchedTCM, func(s memctrl.Scheduler, w *schedWork) memctrl.Scheduler { return countingTCM{s.(*sched.TCM), w} }},
	} {
		c := cfg
		c.Scheduler, c.Partition = tc.kind, PartNone
		benches, _, err := NewExperiment(c, 3_000, 6_000).benches(mix)
		if err != nil {
			t.Fatal(err)
		}
		var w schedWork
		sys, err := newSystem(c, benches, func(s memctrl.Scheduler) memctrl.Scheduler { return tc.wrap(s, &w) })
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(3_000, 6_000, 0); err != nil {
			t.Fatal(err)
		}
		if w.ticks == 0 {
			t.Fatalf("%s: no controller ticks counted", tc.kind)
		}
		perTick := float64(w.less) / float64(w.ticks)
		t.Logf("%s: %d Less calls over %d controller ticks (%.2f per tick)", tc.kind, w.less, w.ticks, perTick)
		if perTick > maxLessPerTick {
			t.Errorf("%s: %.2f Less calls per controller tick, want at most %.1f", tc.kind, perTick, maxLessPerTick)
		}
	}
}

// maxTickedShare bounds the share of core-cycles that run a full Tick on
// the dense input. Whole-system clock jumps alone leave 0.84–0.87 of them
// ticked; per-core sleeping brings that to about 0.2.
const maxTickedShare = 0.4

// TestKernelWorkPerCycle pins the kernel's per-cycle work as
// machine-independent counts on the dense input under FR-FCFS and TCM: the
// share of core-cycles that ran a full Tick (the rest were covered by clock
// jumps or slept through) stays under maxTickedShare, and the profiler walks
// the controllers' queues never during a run and once per Restore.
func TestKernelWorkPerCycle(t *testing.T) {
	cfg, mix := denseWorkInput(t)
	for _, kind := range []SchedulerKind{SchedFRFCFS, SchedTCM} {
		c := cfg
		c.Scheduler, c.Partition = kind, PartNone
		benches, _, err := NewExperiment(c, 3_000, 6_000).benches(mix)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(c, benches)
		if err != nil {
			t.Fatal(err)
		}
		var blob []byte
		ck := &Checkpointer{Interval: c.SchedQuantumCPUCycles, Sink: func(b []byte, _ uint64) {
			if blob == nil {
				blob = b
			}
		}}
		res, err := sys.RunCheckpointed(context.Background(), 3_000, 6_000, 0, ck)
		if err != nil {
			t.Fatal(err)
		}
		coreCycles := uint64(c.Cores) * res.Cycles
		ticked := coreCycles - uint64(c.Cores)*sys.SkippedCycles() - sys.SleptCoreCycles()
		share := float64(ticked) / float64(coreCycles)
		t.Logf("%s: %d of %d core-cycles ticked (%.3f); %d skipped cycles, %d slept core-cycles",
			kind, ticked, coreCycles, share, sys.SkippedCycles(), sys.SleptCoreCycles())
		if share > maxTickedShare {
			t.Errorf("%s: %.3f of core-cycles ran a full Tick, want at most %.2f", kind, share, maxTickedShare)
		}
		if w := sys.prof.Walks(); w != 0 {
			t.Errorf("%s: profiler walked the controller queues %d times in one run, want 0", kind, w)
		}
		if blob == nil {
			t.Fatalf("%s: no checkpoint taken", kind)
		}
		if _, err := sys.RunCheckpointed(context.Background(), 3_000, 6_000, 0, &Checkpointer{Restore: blob}); err != nil {
			t.Fatal(err)
		}
		if w := sys.prof.Walks(); w != 1 {
			t.Errorf("%s: profiler walked %d times after one Restore, want 1", kind, w)
		}
	}
}
