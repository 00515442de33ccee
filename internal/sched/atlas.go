package sched

import (
	"fmt"
	"sort"

	"dbpsim/internal/memctrl"
	"dbpsim/internal/profile"
)

// ATLAS implements the Adaptive per-Thread Least-Attained-Service scheduler
// (Kim et al., HPCA 2010) as an additional baseline: threads that have
// attained the least long-term memory service are ranked highest, with an
// exponentially decayed service history across quanta.
type ATLAS struct {
	noQueueEvents // service history arrives via UpdateQuantum

	alpha    float64 // history decay weight
	attained []float64
	rank     []int
	// epoch counts re-rankings (PriorityEpoch).
	epoch uint64
}

// NewATLAS builds an ATLAS scheduler for numThreads threads. alpha is the
// history weight in [0,1); the paper uses 0.875.
func NewATLAS(numThreads int, alpha float64) (*ATLAS, error) {
	if numThreads <= 0 {
		return nil, fmt.Errorf("sched: ATLAS numThreads must be positive, got %d", numThreads)
	}
	if alpha < 0 || alpha >= 1 {
		return nil, fmt.Errorf("sched: ATLAS alpha must be in [0,1), got %g", alpha)
	}
	return &ATLAS{
		alpha:    alpha,
		attained: make([]float64, numThreads),
		rank:     make([]int, numThreads),
	}, nil
}

// Name implements memctrl.Scheduler.
func (*ATLAS) Name() string { return "atlas" }

// UpdateQuantum folds the quantum's attained service into the history and
// re-ranks (least attained = highest rank).
func (a *ATLAS) UpdateQuantum(samples []profile.ThreadSample) {
	for _, s := range samples {
		if s.Thread < 0 || s.Thread >= len(a.attained) {
			continue
		}
		service := float64(s.ReadsServed + s.WritesServed)
		a.attained[s.Thread] = a.alpha*a.attained[s.Thread] + (1-a.alpha)*service
	}
	order := make([]int, len(a.attained))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		x, y := order[i], order[j]
		if a.attained[x] != a.attained[y] {
			return a.attained[x] < a.attained[y]
		}
		return x < y
	})
	for pos, tid := range order {
		a.rank[tid] = len(order) - pos // least attained → largest rank
	}
	a.epoch++
}

// PriorityEpoch implements memctrl.Scheduler: ranks change only in
// UpdateQuantum and Restore.
func (a *ATLAS) PriorityEpoch() uint64 { return a.epoch }

// Rank returns a thread's current rank (larger = higher priority).
func (a *ATLAS) Rank(thread int) int {
	if thread < 0 || thread >= len(a.rank) {
		return -1
	}
	return a.rank[thread]
}

// Attained returns a thread's decayed service history (for tests).
func (a *ATLAS) Attained(thread int) float64 {
	if thread < 0 || thread >= len(a.attained) {
		return 0
	}
	return a.attained[thread]
}

// OnTick implements memctrl.Scheduler.
func (*ATLAS) OnTick(uint64) {}

// NextTickEvent implements memctrl.Scheduler: OnTick never mutates state
// (rank updates arrive via UpdateQuantum at quantum boundaries).
func (*ATLAS) NextTickEvent(uint64) uint64 { return memctrl.NeverEvent }

// Less implements memctrl.Scheduler: rank, then row hit, then age.
func (a *ATLAS) Less(ctx memctrl.SchedContext, x, y *memctrl.Request) bool {
	rx, ry := a.Rank(x.Thread), a.Rank(y.Thread)
	if rx != ry {
		return rx > ry
	}
	hx, hy := ctx.RowHit(x), ctx.RowHit(y)
	if hx != hy {
		return hx
	}
	return x.ID < y.ID
}
