package sim

import (
	"context"
	"fmt"
	"math"

	"dbpsim/internal/dram"
	"dbpsim/internal/stats"
)

// cancelError reports a canceled run, wrapping both the context error
// (context.Canceled / DeadlineExceeded) and any distinct cancellation
// cause, so errors.Is works against either.
func cancelError(ctx context.Context, cycle uint64) error {
	err, cause := ctx.Err(), context.Cause(ctx)
	if cause != nil && cause != err {
		return fmt.Errorf("sim: run canceled at cycle %d: %w: %w", cycle, err, cause)
	}
	return fmt.Errorf("sim: run canceled at cycle %d: %w", cycle, err)
}

// ThreadResult is one thread's measured behaviour.
type ThreadResult struct {
	// Name is the benchmark name.
	Name string
	// IPC is instructions per CPU cycle over the measurement window.
	IPC float64
	// Instructions is the lifetime retired-instruction count.
	Instructions uint64
	// MPKI, RBL and BLP are lifetime memory characteristics.
	MPKI float64
	RBL  float64
	BLP  float64
	// Misses, ReadsServed, WritesServed and RowHits are lifetime DRAM
	// counters.
	Misses       uint64
	ReadsServed  uint64
	WritesServed uint64
	RowHits      uint64
	// PagesAllocated and PagesMigrated count OS-level page events.
	PagesAllocated uint64
	PagesMigrated  uint64
}

// Result summarises one simulation run.
type Result struct {
	// Threads holds per-thread results in core order.
	Threads []ThreadResult
	// Cycles is the total CPU cycles simulated.
	Cycles uint64
	// MemCycles is the total memory cycles simulated.
	MemCycles uint64
	// DRAM aggregates command counts over all channels.
	DRAM dram.Stats
	// Energy itemises DRAM energy over the whole run (nanojoules).
	Energy dram.EnergyBreakdown
	// EnergyPerAccess is average nanojoules per data transfer.
	EnergyPerAccess float64
	// Repartitions counts partition-policy decisions that changed masks.
	Repartitions int
	// MigrationDrops counts sampled migration-cost transfers dropped under
	// controller backpressure (best-effort traffic).
	MigrationDrops uint64
	// Timeline holds per-quantum snapshots when Config.RecordTimeline is
	// set.
	Timeline []TimelinePoint
	// ReadLatency holds per-thread read-latency histograms (memory cycles)
	// when Config.RecordLatencyHistograms is set.
	ReadLatency []*stats.Histogram
}

// Run executes the system until every core has retired warmup+measure
// instructions, measuring per-thread IPC over each core's own measurement
// window (after its warmup crossing). maxCycles bounds the run; exceeding
// it is an error. Finished cores keep executing so memory contention stays
// realistic until the last core completes.
func (s *System) Run(warmup, measure, maxCycles uint64) (Result, error) {
	return s.RunContext(context.Background(), warmup, measure, maxCycles)
}

// RunProgress is the run loop's own per-thread progress (warmup crossings,
// measurement windows), carried inside snapshots so a restored run resumes
// mid-measurement exactly where it left off.
type RunProgress struct {
	Warmup      uint64
	Measure     uint64
	StartCycle  []uint64
	FinishCycle []uint64
	Started     []bool
	Finished    []bool
	Remaining   int
}

// Checkpointer configures checkpoint emission and restore for
// RunCheckpointed. All fields are optional; a nil *Checkpointer disables
// checkpointing entirely.
type Checkpointer struct {
	// Interval is the CPU-cycle spacing between periodic checkpoints
	// (rounded up to the scheduler quantum). 0 disables periodic emission.
	Interval uint64
	// Sink receives each emitted snapshot blob and the cycle it was taken
	// at. Checkpointing is inactive when Sink is nil.
	Sink func(blob []byte, cycle uint64)
	// OnCancel emits one final checkpoint at the cancellation boundary
	// before RunCheckpointed returns the cancellation error.
	OnCancel bool
	// OnError observes snapshot-creation failures, which are non-fatal: the
	// run continues without that checkpoint.
	OnError func(error)
	// Restore, when non-nil, is a snapshot blob to restore before running.
	// A blob that fails to restore aborts the run with a *RestoreError so
	// callers can fall back to a clean rerun.
	Restore []byte
	// OnRestore is called after a successful restore with the resumed cycle.
	OnRestore func(cycle uint64)
}

// roundUpQuantum rounds v up to a positive multiple of the quantum q.
func roundUpQuantum(v, q uint64) uint64 {
	if v < q {
		return q
	}
	return (v + q - 1) / q * q
}

// RunContext is Run with cooperative cancellation: the cycle loop checks
// ctx once per scheduler quantum (every SchedQuantumCPUCycles CPU cycles),
// so a canceled run stops within one quantum — milliseconds of wall clock —
// instead of running to completion. The check is a single integer compare
// per cycle on the hot path, plus one channel poll per quantum; with a
// background context it degenerates to the compare alone.
//
// A canceled run returns an error wrapping the context's cancellation
// cause, so errors.Is(err, context.Canceled) (or the caller's own cause)
// holds. Cancellation is a clean stop at a quantum boundary: no partial
// Result is produced.
func (s *System) RunContext(ctx context.Context, warmup, measure, maxCycles uint64) (Result, error) {
	return s.RunCheckpointed(ctx, warmup, measure, maxCycles, nil)
}

// RunCheckpointed is RunContext with snapshot support: when ck carries a
// Restore blob the system resumes from it, and when ck carries a Sink the
// run emits periodic snapshots at scheduler-quantum boundaries (and a final
// one on cancellation when OnCancel is set). A resumed run is bit-identical
// to the uninterrupted one: same Result, same ledger bytes.
func (s *System) RunCheckpointed(ctx context.Context, warmup, measure, maxCycles uint64, ck *Checkpointer) (Result, error) {
	if measure == 0 {
		return Result{}, fmt.Errorf("sim: measure must be positive")
	}
	if maxCycles == 0 {
		// Saturate, so a huge budget never wraps to a tiny bound.
		maxCycles = math.MaxUint64
		if total := warmup + measure; total >= warmup && total <= math.MaxUint64/2000 {
			maxCycles = total * 2000
		}
	}
	if ck != nil && ck.Restore != nil {
		if err := s.RestoreSnapshot(ck.Restore); err != nil {
			return Result{}, err
		}
		if ck.OnRestore != nil {
			ck.OnRestore(s.cycle)
		}
	}
	n := len(s.cores)
	startCycle := make([]uint64, n)
	finishCycle := make([]uint64, n)
	started := make([]bool, n)
	finished := make([]bool, n)
	if warmup == 0 {
		for i := range started {
			started[i] = true
		}
	}
	remaining := n
	if p := s.pendingProgress; p != nil {
		s.pendingProgress = nil
		if p.Warmup != warmup || p.Measure != measure {
			return Result{}, &RestoreError{Err: fmt.Errorf("sim: snapshot was taken under warmup=%d measure=%d, run requested warmup=%d measure=%d", p.Warmup, p.Measure, warmup, measure)}
		}
		if len(p.StartCycle) != n || len(p.FinishCycle) != n || len(p.Started) != n || len(p.Finished) != n {
			return Result{}, &RestoreError{Err: fmt.Errorf("sim: snapshot progress covers %d threads, system has %d", len(p.StartCycle), n)}
		}
		copy(startCycle, p.StartCycle)
		copy(finishCycle, p.FinishCycle)
		copy(started, p.Started)
		copy(finished, p.Finished)
		remaining = p.Remaining
	}

	progress := func() RunProgress {
		return RunProgress{
			Warmup:      warmup,
			Measure:     measure,
			StartCycle:  append([]uint64(nil), startCycle...),
			FinishCycle: append([]uint64(nil), finishCycle...),
			Started:     append([]bool(nil), started...),
			Finished:    append([]bool(nil), finished...),
			Remaining:   remaining,
		}
	}
	ckActive := ck != nil && ck.Sink != nil && ck.Interval > 0
	emit := func() {
		blob, err := s.Snapshot(progress())
		if err != nil {
			if ck.OnError != nil {
				ck.OnError(err)
			}
			return
		}
		ck.Sink(blob, s.cycle)
	}

	// Cancellation and checkpointing are only polled at quantum boundaries:
	// done is nil for a background context, and the per-cycle cost is one
	// compare.
	done := ctx.Done()
	nextPoll := s.cycle
	var nextCkpt uint64
	if ckActive {
		nextCkpt = s.cycle + roundUpQuantum(ck.Interval, s.schedQ)
	}

	// retireTargets[i] is core i's next threshold in the crossing checks
	// below (noRetireTarget once finished); the cycle-skipping fast path
	// reads it so jumps never overshoot a warmup or measurement boundary.
	// It changes only on a crossing.
	retireTargets := make([]uint64, n)
	for i := range retireTargets {
		switch {
		case finished[i]:
			retireTargets[i] = noRetireTarget
		case !started[i]:
			retireTargets[i] = warmup
		default:
			retireTargets[i] = warmup + measure
		}
	}
	// cross records core i's crossing of its next threshold, if Retired has
	// reached it.
	cross := func(i int) {
		r := s.cores[i].Retired()
		if r < retireTargets[i] {
			return
		}
		if !started[i] {
			started[i] = true
			startCycle[i] = s.cycle
			retireTargets[i] = warmup + measure
			if r >= warmup+measure {
				// The measurement crossing is recorded one iteration later.
				s.crossPending = true
			}
			return
		}
		finished[i] = true
		finishCycle[i] = s.cycle
		retireTargets[i] = noRetireTarget
		remaining--
	}

	for remaining > 0 {
		if (done != nil || ckActive) && s.cycle >= nextPoll {
			nextPoll = s.cycle + s.schedQ
			if done != nil {
				select {
				case <-done:
					if ck != nil && ck.OnCancel && ck.Sink != nil {
						emit()
					}
					return Result{}, cancelError(ctx, s.cycle)
				default:
				}
			}
			if ckActive && s.cycle >= nextCkpt {
				nextCkpt = s.cycle + roundUpQuantum(ck.Interval, s.schedQ)
				emit()
			}
		}
		if s.cycle >= maxCycles {
			return Result{}, fmt.Errorf("sim: exceeded %d cycles with %d cores unfinished (deadlock or undersized budget)", maxCycles, remaining)
		}
		jumped := false
		if s.skipping {
			// Event-driven cycle skipping: when every component is quiescent
			// (or streaming deterministically), jump the clock to the next
			// event instead of ticking through replayable cycles. Jumps are
			// clamped so Retired counts cross the warmup/measure thresholds
			// at exactly the cycle per-cycle execution would record below.
			var err error
			jumped, err = s.trySkip(maxCycles, retireTargets)
			if err != nil {
				return Result{}, err
			}
		}
		if !jumped {
			if err := s.step(); err != nil {
				return Result{}, err
			}
		}
		// A sleeping core retired nothing since the last check, so only the
		// awake ones can have crossed, unless a second crossing is pending.
		if s.crossPending {
			s.crossPending = false
			for i := range s.cores {
				cross(i)
			}
			continue
		}
		for it := s.awakeCores(); ; {
			i := it.next()
			if i < 0 {
				break
			}
			cross(i)
		}
	}
	s.catchUp()

	// Flush the trailing partial quantum into the lifetime totals.
	s.accumulate(s.prof.Quantum())

	res := Result{Cycles: s.cycle, MemCycles: s.memCycles, Threads: make([]ThreadResult, n)}
	for _, ctrl := range s.ctrls {
		ds := ctrl.DRAMStats()
		res.DRAM.Activates += ds.Activates
		res.DRAM.Precharges += ds.Precharges
		res.DRAM.Reads += ds.Reads
		res.DRAM.Writes += ds.Writes
		res.DRAM.Refreshes += ds.Refreshes
	}
	res.Timeline = s.timeline
	res.ReadLatency = s.latHist
	res.MigrationDrops = s.migrationDrops
	res.Energy = s.cfg.Power.Energy(res.DRAM, res.MemCycles, s.cfg.Geometry.RanksPerChannel*s.cfg.Geometry.Channels)
	res.EnergyPerAccess = s.cfg.Power.EnergyPerAccess(res.DRAM, res.MemCycles, s.cfg.Geometry.RanksPerChannel*s.cfg.Geometry.Channels)
	if s.dbp != nil {
		res.Repartitions = len(s.dbp.History())
	}
	for i := range res.Threads {
		t := &res.Threads[i]
		t.Name = s.names[i]
		window := finishCycle[i] - startCycle[i]
		if window > 0 {
			t.IPC = float64(measure) / float64(window)
		}
		l := s.life[i]
		t.Instructions = l.Instructions
		t.Misses = l.Misses
		t.ReadsServed = l.ReadsServed
		t.WritesServed = l.WritesServed
		t.RowHits = l.RowHits
		if l.Instructions > 0 {
			t.MPKI = 1000 * float64(l.Misses) / float64(l.Instructions)
		}
		if served := l.ReadsServed + l.WritesServed; served > 0 {
			t.RBL = float64(l.RowHits) / float64(served)
		}
		if l.ReadsServed > 0 {
			t.BLP = s.lifeBLPWSum[i] / float64(l.ReadsServed)
		}
		t.PagesAllocated = s.tables[i].PagesAllocated
		t.PagesMigrated = s.tables[i].PagesMigrated
	}
	return res, nil
}
