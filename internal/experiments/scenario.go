package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"dbpsim/internal/obs"
	"dbpsim/internal/scenario"
	"dbpsim/internal/sim"
	"dbpsim/internal/stats"
)

// ScenarioPolicies is the policy comparison run on phase-shifting
// scenarios: the unpartitioned baseline, static equal partitioning, MCP,
// and DBP, all under FR-FCFS so the partition policy is the only variable.
func ScenarioPolicies() []sim.PolicyPoint {
	return []sim.PolicyPoint{frfcfs, equalBP, mcp, dbp}
}

// ScenarioSweep evaluates one phase-shifting scenario under the standard
// policy comparison and reports, per policy, the paper metrics plus the
// reaction record: how many timeline demand shifts the partition policy
// answered with a mask change, and how quickly. With Options.LedgerDir set
// it also writes one full ledger (epoch series, repartitions, shifts) per
// policy as scenario-<name>_<scheduler>_<partition>.json.
func ScenarioSweep(o Options, sc *scenario.Scenario) (Outcome, error) {
	e := sim.NewExperiment(o.Base, o.Warmup, o.Measure)
	policies := ScenarioPolicies()
	t := stats.NewTable("policy", "WS", "HS", "MS", "shifts", "reacted", "median-react", "quanta")
	var summary []string

	dbpQ := o.Base.DBP.QuantumCPUCycles
	if dbpQ == 0 {
		dbpQ = 1
	}
	for _, p := range policies {
		rec, err := obs.NewRecorder(obs.Options{
			NumThreads: sc.Cores(),
			NumBanks:   o.Base.Geometry.NumColors(),
		})
		if err != nil {
			return Outcome{}, err
		}
		run, err := e.RunScenarioCheckpointedContext(context.Background(), sc, p.Scheduler, p.Partition, rec, nil)
		if err != nil {
			return Outcome{}, fmt.Errorf("%s on scenario %s: %w", p.Label, sc.Name, err)
		}
		shifts := rec.Shifts()
		reacted, median := reactionStats(shifts)
		medianCell, quantaCell := "-", "-"
		if reacted > 0 {
			medianCell = fmt.Sprintf("%d", median)
			quantaCell = fmt.Sprintf("%.1f", float64(median)/float64(dbpQ))
		}
		t.AddRow(p.Label,
			fmt.Sprintf("%.3f", run.Metrics.WeightedSpeedup),
			fmt.Sprintf("%.3f", run.Metrics.HarmonicSpeedup),
			fmt.Sprintf("%.3f", run.Metrics.MaxSlowdown),
			fmt.Sprintf("%d", len(shifts)),
			fmt.Sprintf("%d", reacted),
			medianCell, quantaCell)
		if reacted > 0 {
			summary = append(summary, fmt.Sprintf(
				"%s answered %d/%d demand shifts; median reaction %d cycles (%.1f DBP quanta)",
				p.Label, reacted, len(shifts), median, float64(median)/float64(dbpQ)))
		} else {
			summary = append(summary, fmt.Sprintf(
				"%s answered 0/%d demand shifts (no mask change after any shift)",
				p.Label, len(shifts)))
		}
		if o.LedgerDir != "" {
			if err := writeScenarioLedger(o, run, rec); err != nil {
				return Outcome{}, err
			}
		}
		o.log("%s: scenario %s done (WS=%.3f MS=%.3f, %d/%d shifts reacted)",
			p.Label, sc.Name, run.Metrics.WeightedSpeedup, run.Metrics.MaxSlowdown, reacted, len(shifts))
	}
	return Outcome{
		ID:      "scenario-" + sc.Name,
		Title:   fmt.Sprintf("Scenario %s: %s", sc.Name, sc.Description),
		Table:   t,
		Summary: summary,
	}, nil
}

// reactionStats reduces a shift record to (answered count, median reaction
// latency in CPU cycles over the answered shifts).
func reactionStats(shifts []obs.Shift) (reacted int, median uint64) {
	var lats []uint64
	for _, s := range shifts {
		if s.Reacted {
			lats = append(lats, s.ReactionLatency)
		}
	}
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return len(lats), lats[len(lats)/2]
}

// writeScenarioLedger persists one scenario run's full ledger (including
// the recorder's epoch series and shift record) under Options.LedgerDir.
func writeScenarioLedger(o Options, run sim.MixRun, rec *obs.Recorder) error {
	if err := os.MkdirAll(o.LedgerDir, 0o755); err != nil {
		return err
	}
	l, err := sim.BuildLedger("dbpsweep", o.Base, o.Warmup, o.Measure, run, rec)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("scenario-%s_%s_%s.json", run.Scenario, run.Scheduler, run.Partition)
	return obs.SaveLedger(filepath.Join(o.LedgerDir, name), l)
}
