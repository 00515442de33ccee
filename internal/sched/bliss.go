package sched

import (
	"fmt"

	"dbpsim/internal/memctrl"
)

// BLISS implements the Blacklisting memory scheduler (Subramanian et al.,
// ICCD 2014): a thread that gets `streak` consecutive requests served is
// blacklisted for an interval, during which its requests lose priority to
// everyone else's. BLISS achieves most of the fairness of ranking
// schedulers with almost no hardware state — a useful second fairness
// baseline next to TCM.
type BLISS struct {
	streakLimit int
	clearEvery  uint64

	lastThread  int
	streak      int
	blacklisted map[int]bool
	lastClear   uint64
	// epoch counts blacklist changes (memctrl.PriorityEpocher).
	epoch uint64
}

// NewBLISS builds a BLISS scheduler. streakLimit is the consecutive-service
// count that triggers blacklisting (the paper uses 4); clearEvery is the
// blacklist-clearing interval in memory cycles (the paper uses 10000).
func NewBLISS(streakLimit int, clearEvery uint64) (*BLISS, error) {
	if streakLimit <= 0 {
		return nil, fmt.Errorf("sched: BLISS streak limit must be positive, got %d", streakLimit)
	}
	if clearEvery == 0 {
		return nil, fmt.Errorf("sched: BLISS clear interval must be positive")
	}
	return &BLISS{
		streakLimit: streakLimit,
		clearEvery:  clearEvery,
		lastThread:  -1,
		blacklisted: make(map[int]bool),
	}, nil
}

// Name implements memctrl.Scheduler.
func (*BLISS) Name() string { return "bliss" }

// OnEnqueue implements memctrl.QueueObserver (no-op).
func (*BLISS) OnEnqueue(*memctrl.Request) {}

// OnService implements memctrl.QueueObserver: track consecutive service.
func (b *BLISS) OnService(r *memctrl.Request) {
	if r.Thread == b.lastThread {
		b.streak++
		if b.streak >= b.streakLimit && !b.blacklisted[r.Thread] {
			b.blacklisted[r.Thread] = true
			b.epoch++
		}
		return
	}
	b.lastThread = r.Thread
	b.streak = 1
}

// OnTick implements memctrl.Scheduler: periodically clear the blacklist.
func (b *BLISS) OnTick(now uint64) {
	if now-b.lastClear >= b.clearEvery {
		b.lastClear = now
		if len(b.blacklisted) > 0 {
			b.epoch++
		}
		for k := range b.blacklisted {
			delete(b.blacklisted, k)
		}
		b.streak = 0
		b.lastThread = -1
	}
}

// NextTickEvent implements memctrl.TickEventer: the next blacklist clear.
// lastClear is serialised state, so skipping must deliver the clearing
// OnTick at exactly this cycle.
func (b *BLISS) NextTickEvent(uint64) uint64 {
	return b.lastClear + b.clearEvery
}

// PriorityEpoch implements memctrl.PriorityEpocher: Less reads only the
// blacklist, which changes on blacklisting, clearing and Restore.
func (b *BLISS) PriorityEpoch() uint64 { return b.epoch }

// Blacklisted reports whether a thread is currently blacklisted (for
// tests).
func (b *BLISS) Blacklisted(thread int) bool { return b.blacklisted[thread] }

// Less implements memctrl.Scheduler: non-blacklisted first, then row hit,
// then age.
func (b *BLISS) Less(ctx memctrl.SchedContext, x, y *memctrl.Request) bool {
	bx, by := b.blacklisted[x.Thread], b.blacklisted[y.Thread]
	if bx != by {
		return !bx
	}
	hx, hy := ctx.RowHit(x), ctx.RowHit(y)
	if hx != hy {
		return hx
	}
	return x.ID < y.ID
}
