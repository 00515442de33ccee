// Package sched provides the memory request schedulers the paper evaluates:
// FCFS, FR-FCFS, TCM (Thread Cluster Memory scheduling, Kim et al. MICRO
// 2010) and a PAR-BS-style batch scheduler as an extra baseline. All
// implement memctrl.Scheduler; thread-aware schedulers are fed per-quantum
// profiles by the simulation kernel.
package sched

import (
	"fmt"

	"dbpsim/internal/memctrl"
)

// noQueueEvents gives a scheduler that ignores queue contents no-op
// memctrl.Scheduler OnEnqueue and OnService methods.
type noQueueEvents struct{}

func (noQueueEvents) OnEnqueue(*memctrl.Request) {}
func (noQueueEvents) OnService(*memctrl.Request) {}

// stateless gives a scheduler that orders requests by their own fields and
// the open row alone every memctrl.Scheduler method but Name and Less:
// OnTick never mutates anything, the priority epoch never moves, and the
// snapshot state is empty.
type stateless struct{ noQueueEvents }

func (stateless) OnTick(uint64)               {}
func (stateless) NextTickEvent(uint64) uint64 { return memctrl.NeverEvent }
func (stateless) PriorityEpoch() uint64       { return 0 }
func (stateless) Snapshot() ([]byte, error)   { return nil, nil }

func (stateless) Restore(b []byte) error {
	if len(b) > 0 {
		return fmt.Errorf("sched: stateless scheduler given %d bytes of state", len(b))
	}
	return nil
}

// FCFS serves requests strictly oldest-first.
type FCFS struct{ stateless }

// NewFCFS returns the first-come-first-served scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements memctrl.Scheduler.
func (*FCFS) Name() string { return "fcfs" }

// Less implements memctrl.Scheduler.
func (*FCFS) Less(_ memctrl.SchedContext, a, b *memctrl.Request) bool {
	return a.ID < b.ID
}

// FRFCFS serves row-buffer hits first, then oldest-first — the standard
// throughput-oriented baseline the paper builds on.
type FRFCFS struct{ stateless }

// NewFRFCFS returns the first-ready FCFS scheduler.
func NewFRFCFS() *FRFCFS { return &FRFCFS{} }

// Name implements memctrl.Scheduler.
func (*FRFCFS) Name() string { return "frfcfs" }

// Less implements memctrl.Scheduler.
func (*FRFCFS) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	ha, hb := ctx.RowHit(a), ctx.RowHit(b)
	if ha != hb {
		return ha
	}
	return a.ID < b.ID
}

// ThreadPriority wraps an inner scheduler with a coarse per-thread priority
// level (higher level = served first). MCP's integrated scheme uses it to
// boost very-low-intensity threads.
type ThreadPriority struct {
	inner  memctrl.Scheduler
	levels []int
	// epoch counts level changes.
	epoch uint64
}

// NewThreadPriority wraps inner with per-thread levels; threads outside the
// slice get level 0.
func NewThreadPriority(inner memctrl.Scheduler, numThreads int) *ThreadPriority {
	return &ThreadPriority{inner: inner, levels: make([]int, numThreads)}
}

// SetLevel assigns a thread's priority level.
func (t *ThreadPriority) SetLevel(thread, level int) {
	if thread >= 0 && thread < len(t.levels) && t.levels[thread] != level {
		t.levels[thread] = level
		t.epoch++
	}
}

// PriorityEpoch implements memctrl.Scheduler, folding in the inner
// scheduler's epoch: both only grow, so their sum changes whenever either
// does.
func (t *ThreadPriority) PriorityEpoch() uint64 {
	return t.epoch + t.inner.PriorityEpoch()
}

// Name implements memctrl.Scheduler.
func (t *ThreadPriority) Name() string { return t.inner.Name() + "+prio" }

func (t *ThreadPriority) level(thread int) int {
	if thread < 0 || thread >= len(t.levels) {
		return 0
	}
	return t.levels[thread]
}

// Less implements memctrl.Scheduler.
func (t *ThreadPriority) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	la, lb := t.level(a.Thread), t.level(b.Thread)
	if la != lb {
		return la > lb
	}
	return t.inner.Less(ctx, a, b)
}

// OnTick implements memctrl.Scheduler.
func (t *ThreadPriority) OnTick(now uint64) { t.inner.OnTick(now) }

// NextTickEvent implements memctrl.Scheduler by delegating to the inner
// scheduler.
func (t *ThreadPriority) NextTickEvent(now uint64) uint64 { return t.inner.NextTickEvent(now) }

// OnEnqueue implements memctrl.Scheduler by delegating to the inner
// scheduler.
func (t *ThreadPriority) OnEnqueue(r *memctrl.Request) { t.inner.OnEnqueue(r) }

// OnService implements memctrl.Scheduler by delegating to the inner
// scheduler.
func (t *ThreadPriority) OnService(r *memctrl.Request) { t.inner.OnService(r) }
