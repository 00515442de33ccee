package sched

import (
	"fmt"

	"dbpsim/internal/memctrl"
)

// FRFCFSCap is FR-FCFS with a row-hit streak cap (Mutlu & Moscibroda's
// FR-FCFS+Cap): once a bank has served `cap` consecutive row hits, further
// hits on that bank lose their priority and age order takes over — a cheap
// guard against row-hog monopolies, used here as an extra baseline between
// FR-FCFS and the full thread-aware schedulers.
type FRFCFSCap struct {
	cap int
	// streak counts consecutive row hits served per global bank key.
	streak map[int]int
	// epoch counts changes to which banks' hits keep their priority
	// (PriorityEpoch).
	epoch uint64
}

// NewFRFCFSCap builds the capped scheduler (the literature uses caps of
// around 4).
func NewFRFCFSCap(cap int) (*FRFCFSCap, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("sched: FR-FCFS cap must be positive, got %d", cap)
	}
	return &FRFCFSCap{cap: cap, streak: make(map[int]int)}, nil
}

// Name implements memctrl.Scheduler.
func (*FRFCFSCap) Name() string { return "frfcfs-cap" }

func bankKey(r *memctrl.Request) int {
	return r.Loc.Channel<<16 | r.Loc.Rank<<8 | r.Loc.Bank
}

// OnEnqueue implements memctrl.Scheduler (no-op).
func (*FRFCFSCap) OnEnqueue(*memctrl.Request) {}

// OnService implements memctrl.Scheduler: track the streak.
func (c *FRFCFSCap) OnService(r *memctrl.Request) {
	k := bankKey(r)
	before := c.streak[k] < c.cap
	if r.RowHit() {
		c.streak[k]++
	} else {
		c.streak[k] = 0
	}
	if after := c.streak[k] < c.cap; after != before {
		c.epoch++
	}
}

// PriorityEpoch implements memctrl.Scheduler: Less reads a bank's
// streak only through "below the cap", which changes in OnService and
// Restore.
func (c *FRFCFSCap) PriorityEpoch() uint64 { return c.epoch }

// OnTick implements memctrl.Scheduler.
func (*FRFCFSCap) OnTick(uint64) {}

// NextTickEvent implements memctrl.Scheduler: OnTick never mutates state
// (streaks advance on service events, not ticks).
func (*FRFCFSCap) NextTickEvent(uint64) uint64 { return memctrl.NeverEvent }

// Streak reports a bank's current consecutive row-hit count (for tests).
func (c *FRFCFSCap) Streak(channel, rank, bank int) int {
	return c.streak[channel<<16|rank<<8|bank]
}

// Less implements memctrl.Scheduler: row hits first unless their bank's
// streak is exhausted, then age.
func (c *FRFCFSCap) Less(ctx memctrl.SchedContext, a, b *memctrl.Request) bool {
	ha := ctx.RowHit(a) && c.streak[bankKey(a)] < c.cap
	hb := ctx.RowHit(b) && c.streak[bankKey(b)] < c.cap
	if ha != hb {
		return ha
	}
	return a.ID < b.ID
}
