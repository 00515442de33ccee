package sched

import (
	"fmt"

	"dbpsim/internal/memctrl"
)

// PARBS implements Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda,
// ISCA 2008) as an additional baseline. Requests are grouped into batches:
// when the current batch drains, up to MarkingCap of the oldest queued
// requests per (thread, bank) are marked, and marked requests are strictly
// prioritised over unmarked ones — bounding every thread's wait to a few
// batches. Within a batch, threads with the fewest marked requests go first
// (shortest-job-first, preserving intra-thread bank parallelism), then row
// hits, then age.
type PARBS struct {
	cap int

	marked      map[*memctrl.Request]struct{}
	outstanding map[*memctrl.Request]struct{}
	// markedPerThread ranks threads inside the batch (fewer = earlier).
	markedPerThread map[int]int
	// epoch counts batch changes (memctrl.PriorityEpocher).
	epoch uint64
}

// NewPARBS builds a PAR-BS scheduler with the given per-(thread,bank)
// marking cap (the paper uses 5).
func NewPARBS(markingCap int) (*PARBS, error) {
	if markingCap <= 0 {
		return nil, fmt.Errorf("sched: PAR-BS marking cap must be positive, got %d", markingCap)
	}
	return &PARBS{
		cap:             markingCap,
		marked:          make(map[*memctrl.Request]struct{}),
		outstanding:     make(map[*memctrl.Request]struct{}),
		markedPerThread: make(map[int]int),
	}, nil
}

// Name implements memctrl.Scheduler.
func (*PARBS) Name() string { return "parbs" }

// OnEnqueue implements memctrl.QueueObserver.
func (p *PARBS) OnEnqueue(r *memctrl.Request) {
	p.outstanding[r] = struct{}{}
}

// OnService implements memctrl.QueueObserver.
func (p *PARBS) OnService(r *memctrl.Request) {
	delete(p.outstanding, r)
	if _, ok := p.marked[r]; ok {
		delete(p.marked, r)
		p.markedPerThread[r.Thread]--
		p.epoch++
	}
}

// PriorityEpoch implements memctrl.PriorityEpocher: the batch changes on
// formation, when a marked request is served, and on Restore.
func (p *PARBS) PriorityEpoch() uint64 { return p.epoch }

// OnTick implements memctrl.Scheduler: reform the batch when it drained.
func (p *PARBS) OnTick(uint64) {
	if len(p.marked) > 0 || len(p.outstanding) == 0 {
		return
	}
	p.formBatch()
}

// NextTickEvent implements memctrl.TickEventer. With a batch reform pending
// the very next OnTick mutates state, so the scheduler is active now; in
// every other state OnTick stays a no-op until the queue contents change
// (which wakes the controller anyway).
func (p *PARBS) NextTickEvent(now uint64) uint64 {
	if len(p.marked) == 0 && len(p.outstanding) > 0 {
		return now
	}
	return memctrl.NeverEvent
}

// formBatch marks the oldest cap requests of every (thread, bank) pair.
func (p *PARBS) formBatch() {
	p.epoch++
	type key struct{ thread, bank int }
	counts := make(map[key]int)
	// Mark in age order so the oldest requests win the per-pair cap.
	var reqs []*memctrl.Request
	for r := range p.outstanding {
		reqs = append(reqs, r)
	}
	// Insertion sort by ID: queues are small and mostly ordered.
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].ID < reqs[j-1].ID; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	for k := range p.markedPerThread {
		delete(p.markedPerThread, k)
	}
	for _, r := range reqs {
		k := key{r.Thread, r.Loc.Channel<<16 | r.Loc.Rank<<8 | r.Loc.Bank}
		if counts[k] >= p.cap {
			continue
		}
		counts[k]++
		p.marked[r] = struct{}{}
		p.markedPerThread[r.Thread]++
	}
}

// MarkedCount reports the live batch size (for tests).
func (p *PARBS) MarkedCount() int { return len(p.marked) }

// Less implements memctrl.Scheduler: marked first, then
// shortest-job-first across threads, then row hit, then age.
func (p *PARBS) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	_, ma := p.marked[a]
	_, mb := p.marked[b]
	if ma != mb {
		return ma
	}
	if ma && mb && a.Thread != b.Thread {
		ja, jb := p.markedPerThread[a.Thread], p.markedPerThread[b.Thread]
		if ja != jb {
			return ja < jb
		}
	}
	ha, hb := ctx.RowHit(a), ctx.RowHit(b)
	if ha != hb {
		return ha
	}
	return a.ID < b.ID
}
