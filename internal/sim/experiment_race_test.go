package sim

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"dbpsim/internal/obs"
	"dbpsim/internal/workload"
)

// TestRunMixConcurrent pins the concurrency contract the dbpserved
// worker pool depends on: two goroutines running the same mix through one
// shared Experiment (each with its own recorder) race neither on the
// alone-run baseline cache nor on any recorder state, and — because runs
// are deterministic — produce bit-identical metrics, results and epoch
// series. Run under -race this is the regression gate for per-call
// recorders on a shared Experiment.
func TestRunMixConcurrent(t *testing.T) {
	mix := workload.Mix{Name: "race-mix", Category: "M", Members: []string{"mcf-like", "gcc-like"}}
	cfg := DefaultConfig(mix.Cores())
	cfg.Seed = 7
	exp := NewExperiment(cfg, 5_000, 20_000)

	const workers = 2
	runs := make([]MixRun, workers)
	recs := make([]*obs.Recorder, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		rec, err := obs.NewRecorder(obs.Options{NumThreads: mix.Cores(), NumBanks: cfg.Geometry.NumColors()})
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = rec
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i], errs[i] = exp.RunMixCheckpointedContext(context.Background(), mix, SchedFRFCFS, PartDBP, recs[i], nil)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(runs[0].Metrics, runs[1].Metrics) {
		t.Errorf("concurrent runs diverged:\n  %+v\n  %+v", runs[0].Metrics, runs[1].Metrics)
	}
	if runs[0].Result.Cycles != runs[1].Result.Cycles {
		t.Errorf("cycles diverged: %d != %d", runs[0].Result.Cycles, runs[1].Result.Cycles)
	}
	if !reflect.DeepEqual(runs[0].Result.Threads, runs[1].Result.Threads) {
		t.Errorf("per-thread results diverged:\n  %+v\n  %+v", runs[0].Result.Threads, runs[1].Result.Threads)
	}
	if !reflect.DeepEqual(recs[0].Epochs(), recs[1].Epochs()) {
		t.Errorf("recorded epoch series diverged")
	}
	if !reflect.DeepEqual(recs[0].Counters(), recs[1].Counters()) {
		t.Errorf("recorder counters diverged: %v != %v", recs[0].Counters(), recs[1].Counters())
	}
}
