// Package sched provides the memory request schedulers the paper evaluates:
// FCFS, FR-FCFS, TCM (Thread Cluster Memory scheduling, Kim et al. MICRO
// 2010) and a PAR-BS-style batch scheduler as an extra baseline. All
// implement memctrl.Scheduler; thread-aware schedulers are fed per-quantum
// profiles by the simulation kernel.
package sched

import "dbpsim/internal/memctrl"

// FCFS serves requests strictly oldest-first.
type FCFS struct{}

// NewFCFS returns the first-come-first-served scheduler.
func NewFCFS() *FCFS { return &FCFS{} }

// Name implements memctrl.Scheduler.
func (*FCFS) Name() string { return "fcfs" }

// Less implements memctrl.Scheduler.
func (*FCFS) Less(_ memctrl.SchedContext, a, b *memctrl.Request) bool {
	return a.ID < b.ID
}

// OnTick implements memctrl.Scheduler.
func (*FCFS) OnTick(uint64) {}

// NextTickEvent implements memctrl.TickEventer: OnTick never mutates state.
func (*FCFS) NextTickEvent(uint64) uint64 { return memctrl.NeverEvent }

// PriorityEpoch implements memctrl.PriorityEpocher: FCFS has no state.
func (*FCFS) PriorityEpoch() uint64 { return 0 }

// FRFCFS serves row-buffer hits first, then oldest-first — the standard
// throughput-oriented baseline the paper builds on.
type FRFCFS struct{}

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

// OnTick implements memctrl.Scheduler.
func (*FRFCFS) OnTick(uint64) {}

// NextTickEvent implements memctrl.TickEventer: OnTick never mutates state.
func (*FRFCFS) NextTickEvent(uint64) uint64 { return memctrl.NeverEvent }

// PriorityEpoch implements memctrl.PriorityEpocher: FR-FCFS has no state.
func (*FRFCFS) PriorityEpoch() uint64 { return 0 }

// ThreadPriority wraps an inner scheduler with a coarse per-thread priority
// level (higher level = served first). MCP's integrated scheme uses it to
// boost very-low-intensity threads.
type ThreadPriority struct {
	inner  memctrl.Scheduler
	levels []int
	// epoch counts level changes; innerEpoch is the inner scheduler's
	// epoch source (nil when it has none).
	epoch      uint64
	innerEpoch memctrl.PriorityEpocher
}

// NewThreadPriority wraps inner with per-thread levels; threads outside the
// slice get level 0.
func NewThreadPriority(inner memctrl.Scheduler, numThreads int) *ThreadPriority {
	t := &ThreadPriority{inner: inner, levels: make([]int, numThreads)}
	t.innerEpoch, _ = inner.(memctrl.PriorityEpocher)
	return t
}

// SetLevel assigns a thread's priority level.
func (t *ThreadPriority) SetLevel(thread, level int) {
	if thread >= 0 && thread < len(t.levels) && t.levels[thread] != level {
		t.levels[thread] = level
		t.epoch++
	}
}

// PriorityEpoch implements memctrl.PriorityEpocher, folding in the inner
// scheduler's epoch: both only grow, so their sum changes whenever either
// does. An inner scheduler without epochs may change its order at any
// time, so every call then reports a fresh epoch.
func (t *ThreadPriority) PriorityEpoch() uint64 {
	if t.innerEpoch == nil {
		t.epoch++
		return t.epoch
	}
	return t.epoch + t.innerEpoch.PriorityEpoch()
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

// NextTickEvent implements memctrl.TickEventer by delegating to the inner
// scheduler; a wrapped scheduler without event support pins the controller
// to cycle-by-cycle ticking (returning now marks it permanently active).
func (t *ThreadPriority) NextTickEvent(now uint64) uint64 {
	if te, ok := t.inner.(memctrl.TickEventer); ok {
		return te.NextTickEvent(now)
	}
	return now
}
