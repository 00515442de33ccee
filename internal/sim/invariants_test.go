package sim

import (
	"context"
	"testing"

	"dbpsim/internal/scenario"
	"dbpsim/internal/trace"
)

// TestParanoidDerivedStateSkipPolicies arms the paranoid checker — whose
// oracles include the profiler's incremental outstanding-read counts against
// a fresh queue walk and every sleeping core's wake against its NextEvent —
// over every skip policy family, for the memory-bound and compute-bound
// mixes. Runs use skipping (and so per-core sleeping), the path the derived
// state exists for.
func TestParanoidDerivedStateSkipPolicies(t *testing.T) {
	cfg := snapshotTestConfig()
	cfg.Paranoid = true
	for _, tc := range skipPolicyCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
			if _, err := exp.RunMixCheckpointedContext(context.Background(), snapshotTestMix, tc.scheduler, tc.partition, nil, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := exp.RunMixCheckpointedContext(context.Background(), computeTestMix, tc.scheduler, tc.partition, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestParanoidDerivedStateScenario runs the same oracles over a committed
// scenario, whose phase switches change the cores' demand mid-run.
func TestParanoidDerivedStateScenario(t *testing.T) {
	sc, err := scenario.Load("../../scenarios/spike.json")
	if err != nil {
		t.Fatal(err)
	}
	cfg := snapshotTestConfig()
	cfg.Paranoid = true
	for _, part := range []PartitionKind{PartNone, PartDBP} {
		exp := NewExperiment(cfg, snapTestWarmup, snapTestMeasure)
		if _, err := exp.RunScenarioCheckpointedContext(context.Background(), sc, SchedFRFCFS, part, nil, nil); err != nil {
			t.Fatalf("%s: %v", part, err)
		}
	}
}

// TestParanoidDerivedStateFirstTouch aims the wake oracle at the MSHR gate:
// every item is a load to a fresh page, and every other one follows three
// gap instructions. On a 4-wide core with one MSHR, a load issued first in
// a cycle takes the MSHR and the next item's gap run ends exactly at the
// width boundary, leaving an untranslated first-touch load at the gate. A
// core that slept in that state would allocate the page later than
// per-cycle ticking does. The first Tick already leaves each core there
// until its first miss returns, so a short scheduler quantum puts a
// checker run inside that window.
func TestParanoidDerivedStateFirstTouch(t *testing.T) {
	items := make([]trace.Item, 4096)
	for k := range items {
		items[k] = trace.Item{Gap: 3 * (k % 2), Addr: uint64(k)<<12 | 0x40}
	}
	cfg := snapshotTestConfig()
	cfg.Paranoid = true
	cfg.CPU.MSHRs = 1
	cfg.SchedQuantumCPUCycles = 50
	for _, tc := range skipPolicyCases {
		c := cfg
		c.Scheduler, c.Partition = tc.scheduler, tc.partition
		benches := make([]Bench, c.Cores)
		for i := range benches {
			benches[i] = Bench{Name: "first-touch", Gen: trace.NewScripted(items)}
		}
		sys, err := NewSystem(c, benches)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(100, 400, 0); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
}
