// Scenario walkthrough: load a committed phase-shifting timeline
// (scenarios/churn.json — tenants arriving and departing mid-run), run it
// under a static policy and under Dynamic Bank Partitioning, and show what
// the non-stationary results family adds: demand shifts, repartition
// reaction latency, and fairness over time.
//
// Run from the repo root:
//
//	go run ./examples/scenarios
//
// The timeline file format is documented field by field in
// docs/SCENARIOS.md; results for all five committed scenarios are in
// results/scenarios.md.
package main

import (
	"context"
	"fmt"
	"log"

	"dbpsim"
)

func main() {
	// A scenario is a declarative JSON document: per-thread phase
	// timelines on the scheduler-quantum grid. Load validates the schema
	// (scenario/v1, additive-only) and rejects unknown fields.
	sc, err := dbpsim.LoadScenario("scenarios/churn.json")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scenario %q (%d threads, hash %.12s…)\n", sc.Name, len(sc.Threads), sc.Hash())
	for _, th := range sc.Threads {
		fmt.Printf("  %-11s:", th.Name)
		for _, ph := range th.Phases {
			fmt.Printf(" [%s %s]", ph.ID, benchOrIdle(ph.Bench))
		}
		fmt.Println()
	}
	fmt.Println()

	cfg := dbpsim.DefaultConfig(sc.Cores())
	exp := dbpsim.NewExperiment(cfg, 200_000, 400_000)

	for _, part := range []dbpsim.PartitionKind{dbpsim.PartEqual, dbpsim.PartDBP} {
		// A recorder captures the epoch series and the shift records;
		// scenario runs work without one, but then the reaction story is
		// lost. The last argument is an optional checkpointer (nil: no
		// snapshots, no resume).
		rec, err := dbpsim.NewRecorder(dbpsim.RecorderOptions{
			NumThreads: sc.Cores(),
			NumBanks:   cfg.Geometry.NumColors(),
		})
		if err != nil {
			log.Fatal(err)
		}
		run, err := exp.RunScenarioCheckpointedContext(context.Background(), sc, dbpsim.SchedFRFCFS, part, rec, nil)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %s\n", part, run.Metrics)

		// Each Shift is one quantum boundary where the timeline changed
		// demand (a tenant woke, departed, spiked...). Reacted shifts
		// carry the repartition-reaction latency — the paper's dynamism
		// claim, measured.
		for _, s := range rec.Shifts() {
			if s.Reacted {
				fmt.Printf("  shift at cycle %8d (threads %v): repartitioned %d cycles later\n",
					s.Cycle, s.Threads, s.ReactionLatency)
			} else {
				fmt.Printf("  shift at cycle %8d (threads %v): never answered\n", s.Cycle, s.Threads)
			}
		}

		// The epoch series carries fairness *over time* (max_slowdown_est
		// per epoch) and the active-tenant count, not just end-of-run
		// aggregates.
		worst, at := 0.0, 0
		for _, e := range rec.Epochs() {
			if e.MaxSlowdownEst > worst {
				worst, at = e.MaxSlowdownEst, e.Index
			}
		}
		fmt.Printf("  worst epoch slowdown estimate %.2f (epoch %d of %d)\n\n", worst, at, len(rec.Epochs()))
	}

	fmt.Println("Equal partitioning never answers a shift; DBP re-cuts the bank")
	fmt.Println("masks within a quantum or two of each demand change. Try the other")
	fmt.Println("timelines in scenarios/, or write your own (docs/SCENARIOS.md).")
}

func benchOrIdle(bench string) string {
	if bench == "" || bench == "idle" {
		return "idle"
	}
	return bench
}
