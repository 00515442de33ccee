package sim

import (
	"reflect"
	"testing"
)

// TestMCPKeepsItsScheduler guards MCP's priority wrapper: it must pass the
// controller's queue events and tick events on to the scheduler it wraps.
// A wrapper that dropped them would leave PAR-BS without batches, BLISS
// without a blacklist and FRFCFS-cap without streaks, so all three would
// run exactly as FR-FCFS. The shared run of each must therefore differ
// from FR-FCFS's on the dense input.
func TestMCPKeepsItsScheduler(t *testing.T) {
	cfg, mix := denseWorkInput(t)
	cfg.Partition = PartMCP
	run := func(kind SchedulerKind) Result {
		c := cfg
		c.Scheduler = kind
		benches, _, err := NewExperiment(c, 3_000, 6_000).benches(mix)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(c, benches)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sys.Run(3_000, 6_000, 0)
		if err != nil {
			t.Fatalf("%s-MCP: %v", kind, err)
		}
		return res
	}
	base := run(SchedFRFCFS)
	for _, kind := range []SchedulerKind{SchedPARBS, SchedBLISS, SchedFRFCFSCap} {
		res := run(kind)
		t.Logf("%s-MCP: %d cycles (FR-FCFS-MCP: %d)", kind, res.Cycles, base.Cycles)
		if res.Cycles == base.Cycles && reflect.DeepEqual(res.Threads, base.Threads) {
			t.Errorf("%s under MCP ran exactly as FR-FCFS: %d cycles, identical per-thread results", kind, res.Cycles)
		}
	}
}
