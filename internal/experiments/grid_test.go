package experiments

import (
	"encoding/json"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/sim"
)

// baselines counts the alone-run IPCs the runner's experiments hold.
func (r *runner) baselines() int {
	n := 0
	for _, e := range r.exps {
		n += len(e.ExportBaselines())
	}
	return n
}

// TestRunnerSharesRunsAcrossExperiments runs Main and then DBPTCM on one
// Options: DBPTCM's shared FRFCFS/DBP cell must come from the runner, not a
// second simulation, no new baseline may be measured, and the table must be
// the one a fresh Options gives.
func TestRunnerSharesRunsAcrossExperiments(t *testing.T) {
	o := tinyOptions()
	sims := 0
	o.Progress = func(string) { sims++ }
	if _, err := Main(o); err != nil {
		t.Fatal(err)
	}
	if sims != 3 {
		t.Fatalf("Main simulated %d runs, want 3", sims)
	}
	baselines := o.runner.baselines()
	if baselines == 0 {
		t.Fatal("Main measured no baselines")
	}

	shared, err := DBPTCM(o)
	if err != nil {
		t.Fatal(err)
	}
	if sims != 5 {
		t.Errorf("Main then DBPTCM simulated %d runs, want 5 (DBP shared)", sims)
	}
	if got := o.runner.baselines(); got != baselines {
		t.Errorf("DBPTCM measured %d new baselines, want 0", got-baselines)
	}
	if len(o.runner.exps) != 1 {
		t.Errorf("runner holds %d experiments, want 1", len(o.runner.exps))
	}

	fresh, err := DBPTCM(tinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	if shared.Table.Text() != fresh.Table.Text() || !reflect.DeepEqual(shared.Summary, fresh.Summary) {
		t.Errorf("DBPTCM after Main differs from a fresh run:\n%s\nvs\n%s", shared.Table.Text(), fresh.Table.Text())
	}
}

// TestGridLedgersOnePerRun checks that every distinct run writes its own
// ledger: variant configs add their config hash to the name instead of
// overwriting the base run's file, and PARBSBaseline and Energy write
// ledgers too.
func TestGridLedgersOnePerRun(t *testing.T) {
	o := tinyOptions()
	o.LedgerDir = t.TempDir()
	for _, exp := range []Runner{TCMThreshSweep, PARBSBaseline, Energy} {
		if _, err := exp(o); err != nil {
			t.Fatal(err)
		}
	}
	mix := o.Mixes[0].Name
	files, _ := filepath.Glob(filepath.Join(o.LedgerDir, mix+"_tcm_none*.json"))
	var thresholds []float64
	for _, f := range files {
		l, err := obs.LoadLedger(f)
		if err != nil {
			t.Fatal(err)
		}
		var cfg sim.Config
		if err := json.Unmarshal(l.Config, &cfg); err != nil {
			t.Fatal(err)
		}
		thresholds = append(thresholds, cfg.TCMClusterThresh)
		if base := filepath.Base(f) == mix+"_tcm_none.json"; base != (cfg.TCMClusterThresh == o.Base.TCMClusterThresh) {
			t.Errorf("%s holds threshold %.2f", filepath.Base(f), cfg.TCMClusterThresh)
		}
	}
	sort.Float64s(thresholds)
	if !reflect.DeepEqual(thresholds, []float64{0, 0.05, 0.10}) {
		t.Errorf("tcm ledgers hold thresholds %v (files %v), want 0, 0.05, 0.10", thresholds, files)
	}
	for _, name := range []string{"parbs_none", "parbs_dbp", "frfcfs_none", "frfcfs_equal", "frfcfs_dbp"} {
		path := filepath.Join(o.LedgerDir, mix+"_"+name+".json")
		if _, err := obs.LoadLedger(path); err != nil {
			t.Errorf("missing ledger: %v", err)
		}
	}
}
