package sim

import (
	"context"
	"path/filepath"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/workload"
)

func quickMix(cores int) workload.Mix {
	names := []string{"mcf-like", "gcc-like", "lbm-like", "povray-like"}
	return workload.Mix{Name: "test-mix", Category: "M", Members: names[:cores]}
}

// runWithRecorder performs one small measured run, optionally with an
// attached recorder.
func runWithRecorder(t *testing.T, withRec bool) (MixRun, *obs.Recorder) {
	t.Helper()
	cfg := fastConfig(2)
	mix := quickMix(2)
	exp := NewExperiment(cfg, 20_000, 60_000)
	var rec *obs.Recorder
	if withRec {
		var err error
		rec, err = obs.NewRecorder(obs.Options{
			NumThreads: mix.Cores(),
			NumBanks:   cfg.Geometry.NumColors(),
			Spans:      true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	run, err := exp.RunMixCheckpointedContext(context.Background(), mix, SchedTCM, PartDBP, rec, nil)
	if err != nil {
		t.Fatal(err)
	}
	return run, rec
}

// TestLedgerRunRoundTrip is the acceptance check: a real run, saved as a
// ledger and loaded back, must reproduce every metric field bit-identically.
func TestLedgerRunRoundTrip(t *testing.T) {
	run, rec := runWithRecorder(t, true)

	led, err := BuildLedger("dbpsim", fastConfig(2), 20_000, 60_000, run, rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.json")
	if err := obs.SaveLedger(path, led); err != nil {
		t.Fatal(err)
	}
	back, err := obs.LoadLedger(path)
	if err != nil {
		t.Fatal(err)
	}

	if back.SchemaVersion != obs.SchemaVersion {
		t.Errorf("schema version = %d", back.SchemaVersion)
	}
	if back.Tool != "dbpsim" || back.Mix != "test-mix" ||
		back.Scheduler != string(SchedTCM) || back.Partition != string(PartDBP) {
		t.Errorf("run identity drifted: %+v", back)
	}
	got, want := back.SystemMetrics(), run.Metrics
	if got.WeightedSpeedup != want.WeightedSpeedup ||
		got.HarmonicSpeedup != want.HarmonicSpeedup ||
		got.MaxSlowdown != want.MaxSlowdown {
		t.Errorf("metrics not bit-identical after round trip:\ngot  %+v\nwant %+v", got, want)
	}
	for i, th := range want.Threads {
		if got.Threads[i] != th {
			t.Errorf("thread %d drifted: got %+v want %+v", i, got.Threads[i], th)
		}
	}
	if back.ConfigHash == "" || len(back.Config) == 0 {
		t.Error("ledger missing config payload or hash")
	}
	// The embedded config must itself round-trip through the config loader.
	if _, err := UnmarshalConfig(back.Config, DefaultConfig(2)); err != nil {
		t.Errorf("embedded config does not reload: %v", err)
	}
	if back.Counters["dram.reads"] != run.Result.DRAM.Reads {
		t.Errorf("dram.reads counter = %d, want %d", back.Counters["dram.reads"], run.Result.DRAM.Reads)
	}
	if back.Counters[obs.CounterCompletions] == 0 {
		t.Error("recorder counters missing from ledger")
	}
	if len(back.Epochs) == 0 {
		t.Error("epoch series missing from ledger")
	}
	if len(back.Repartitions) == 0 {
		t.Error("repartition log missing from ledger (DBP run must repartition)")
	}
}

// TestRecorderDoesNotPerturbRun asserts the observability layer is purely
// passive: the same run with and without a recorder attached produces an
// identical simulation outcome.
func TestRecorderDoesNotPerturbRun(t *testing.T) {
	bare, _ := runWithRecorder(t, false)
	observed, rec := runWithRecorder(t, true)

	if bare.Result.Cycles != observed.Result.Cycles ||
		bare.Result.MemCycles != observed.Result.MemCycles {
		t.Errorf("clock drift: bare %d/%d vs observed %d/%d cycles",
			bare.Result.Cycles, bare.Result.MemCycles,
			observed.Result.Cycles, observed.Result.MemCycles)
	}
	if bare.Result.DRAM != observed.Result.DRAM {
		t.Errorf("DRAM counters drift: %+v vs %+v", bare.Result.DRAM, observed.Result.DRAM)
	}
	if bare.Metrics.WeightedSpeedup != observed.Metrics.WeightedSpeedup ||
		bare.Metrics.MaxSlowdown != observed.Metrics.MaxSlowdown {
		t.Errorf("metrics drift: %v vs %v", bare.Metrics, observed.Metrics)
	}
	// And the recorder must actually have seen the run.
	if rec.Counters()[obs.CounterCompletions] == 0 || len(rec.Epochs()) == 0 {
		t.Error("recorder attached but saw no events")
	}
}
