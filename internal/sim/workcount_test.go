package sim

import (
	"testing"

	"dbpsim/internal/memctrl"
	"dbpsim/internal/sched"
	"dbpsim/internal/workload"
)

// schedWork counts what the controllers ask of the scheduler: Less calls,
// and controller ticks (each Tick calls OnTick exactly once).
type schedWork struct{ less, ticks uint64 }

// The counting wrappers embed the concrete scheduler, so every optional
// memctrl interface it implements (TickEventer, PriorityEpocher, ...)
// still reaches the controller unchanged.
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

// TestSchedulerWorkPerTick pins the controller's selection work as a
// machine-independent count: the dense benchmark's shared run (W8-H1, trace
// seed 1000, quanta shrunk with the 3k/6k instruction budgets) under FR-FCFS
// and TCM must stay under maxLessPerTick Less calls per controller tick.
func TestSchedulerWorkPerTick(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Seed = 1000
	cfg.SchedQuantumCPUCycles = 10_000
	cfg.DBP.QuantumCPUCycles = 20_000
	cfg.MCP.QuantumCPUCycles = 20_000
	mix, ok := workload.MixByName("W8-H1")
	if !ok {
		t.Fatal("mix W8-H1 missing")
	}
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
