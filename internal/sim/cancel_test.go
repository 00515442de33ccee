package sim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"dbpsim/internal/workload"
)

func cancelTestSystem(t *testing.T, cores int) *System {
	t.Helper()
	cfg := DefaultConfig(cores)
	names := []string{"mcf-like", "gcc-like", "milc-like", "lbm-like"}[:cores]
	benches := make([]Bench, cores)
	for i, name := range names {
		spec, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		benches[i] = Bench{Name: name, Gen: spec.New(int64(i + 1))}
	}
	sys, err := NewSystem(cfg, benches)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestRunContextAlreadyCanceled pins the fast path: a run whose context is
// dead before the first cycle returns immediately with the cancellation
// cause, not a partial result.
func TestRunContextAlreadyCanceled(t *testing.T) {
	sys := cancelTestSystem(t, 2)
	cause := errors.New("caller gave up")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := sys.RunContext(ctx, 10_000, 1_000_000, 0)
	if err == nil {
		t.Fatal("canceled run returned nil error")
	}
	if !errors.Is(err, cause) || !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap the cancellation cause", err)
	}
	if sys.Cycle() != 0 {
		t.Errorf("canceled-before-start run still simulated %d cycles", sys.Cycle())
	}
}

// TestRunContextCancelMidRun pins the quantum-boundary contract: a cancel
// landing mid-run stops the simulation within roughly one scheduler quantum
// of wall clock, far before the budget would complete.
func TestRunContextCancelMidRun(t *testing.T) {
	sys := cancelTestSystem(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		// A budget this large runs for many seconds uncanceled.
		_, err := sys.RunContext(ctx, 0, 50_000_000, 0)
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("mid-run cancel returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not stop after cancel")
	}
}

// TestRunContextBackgroundMatchesRun pins that threading a context through
// changes nothing about the simulation itself: Run and RunContext with a
// background context produce identical results.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	a := cancelTestSystem(t, 2)
	b := cancelTestSystem(t, 2)
	resA, err := a.Run(5_000, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := b.RunContext(context.Background(), 5_000, 10_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Error("RunContext(Background) diverged from Run")
	}
}

// TestRunMixCheckpointedContextCanceled pins cancellation through the
// experiment layer: the error surfaces the cause and nothing lands in the
// alone-run baseline cache.
func TestRunMixCheckpointedContextCanceled(t *testing.T) {
	exp := NewExperiment(DefaultConfig(4), 5_000, 10_000)
	mix, ok := workload.MixByName("W4-M1")
	if !ok {
		t.Fatal("mix W4-M1 missing")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := exp.RunMixCheckpointedContext(ctx, mix, SchedFRFCFS, PartNone, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("canceled mix run returned %v", err)
	}
	if n := len(exp.ExportBaselines()); n != 0 {
		t.Errorf("canceled run cached %d baselines", n)
	}
}

// TestRunDefaultBoundSaturates pins the default cycle bound on budgets whose
// warmup+measure, or that sum times 2000, overflows uint64: the bound
// saturates, so the run proceeds until its context ends instead of failing
// at once against a wrapped bound.
func TestRunDefaultBoundSaturates(t *testing.T) {
	for _, tc := range []struct {
		name            string
		warmup, measure uint64
	}{
		{"sum wraps", math.MaxUint64, 1},
		{"product wraps", 1 << 63, 1},
	} {
		sys := cancelTestSystem(t, 2)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := sys.RunContext(ctx, tc.warmup, tc.measure, 0)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: warmup %d, measure %d returned %v, want the context's deadline", tc.name, tc.warmup, tc.measure, err)
		}
	}
}
