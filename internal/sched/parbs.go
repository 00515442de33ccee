package sched

import (
	"cmp"
	"fmt"
	"slices"

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

	// outstanding holds every queued read; marked is the current batch,
	// a subset of it.
	outstanding map[reqKey]queuedRead
	marked      map[reqKey]struct{}
	// markedPerThread ranks threads inside the batch (fewer = earlier).
	markedPerThread map[int]int
	// epoch counts batch changes (PriorityEpoch).
	epoch uint64
}

// reqKey names a queued request by value, so the batch survives a
// controller restore that rebuilds every request object. The scheduler is
// shared by all channels and request IDs are unique only per controller,
// so the channel disambiguates.
type reqKey struct {
	channel int
	id      uint64
}

func keyOf(r *memctrl.Request) reqKey { return reqKey{r.Loc.Channel, r.ID} }

// queuedRead is what batch formation needs of a queued read.
type queuedRead struct {
	thread, bank int
}

// NewPARBS builds a PAR-BS scheduler with the given per-(thread,bank)
// marking cap (the paper uses 5).
func NewPARBS(markingCap int) (*PARBS, error) {
	if markingCap <= 0 {
		return nil, fmt.Errorf("sched: PAR-BS marking cap must be positive, got %d", markingCap)
	}
	return &PARBS{
		cap:             markingCap,
		outstanding:     make(map[reqKey]queuedRead),
		marked:          make(map[reqKey]struct{}),
		markedPerThread: make(map[int]int),
	}, nil
}

// Name implements memctrl.Scheduler.
func (*PARBS) Name() string { return "parbs" }

// OnEnqueue implements memctrl.Scheduler.
func (p *PARBS) OnEnqueue(r *memctrl.Request) {
	p.outstanding[keyOf(r)] = queuedRead{r.Thread, bankKey(r)}
}

// OnService implements memctrl.Scheduler.
func (p *PARBS) OnService(r *memctrl.Request) {
	k := keyOf(r)
	delete(p.outstanding, k)
	if _, ok := p.marked[k]; ok {
		delete(p.marked, k)
		p.markedPerThread[r.Thread]--
		p.epoch++
	}
}

// PriorityEpoch implements memctrl.Scheduler: the batch changes on
// formation, when a marked request is served, and on Restore.
func (p *PARBS) PriorityEpoch() uint64 { return p.epoch }

// OnTick implements memctrl.Scheduler: reform the batch when it drained.
func (p *PARBS) OnTick(uint64) {
	if len(p.marked) > 0 || len(p.outstanding) == 0 {
		return
	}
	p.formBatch()
}

// NextTickEvent implements memctrl.Scheduler. With a batch reform pending
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
	counts := make(map[queuedRead]int)
	// Mark in age order so the oldest requests win the per-pair cap.
	keys := make([]reqKey, 0, len(p.outstanding))
	for k := range p.outstanding {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	clear(p.markedPerThread)
	for _, k := range keys {
		q := p.outstanding[k]
		if counts[q] >= p.cap {
			continue
		}
		counts[q]++
		p.marked[k] = struct{}{}
		p.markedPerThread[q.thread]++
	}
}

// compareKeys orders requests by age (ID), then channel.
func compareKeys(a, b reqKey) int {
	if c := cmp.Compare(a.id, b.id); c != 0 {
		return c
	}
	return cmp.Compare(a.channel, b.channel)
}

// MarkedCount reports the live batch size (for tests).
func (p *PARBS) MarkedCount() int { return len(p.marked) }

// Less implements memctrl.Scheduler: marked first, then
// shortest-job-first across threads, then row hit, then age.
func (p *PARBS) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	_, ma := p.marked[keyOf(a)]
	_, mb := p.marked[keyOf(b)]
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
