package sched

import (
	"fmt"
	"slices"

	"dbpsim/internal/detmap"
	"dbpsim/internal/memctrl"
)

// Snapshot/Restore capture the mutable state of every scheduler baseline so
// checkpointed runs resume bit-identically. PAR-BS keys its batch state by
// request pointer; those are serialised as (channel, request-ID) references
// and relinked through a lookup the kernel builds after the controllers'
// queues are restored.

// RequestRef identifies a queued request across a snapshot boundary.
// Request IDs are unique only per controller, so the channel disambiguates.
type RequestRef struct {
	Channel int
	ID      uint64
}

// TCMState is the TCM scheduler's mutable state.
type TCMState struct {
	Rank        []int
	IsLatency   []bool
	BWBase      []int
	ShufflePos  int
	LastShuffle uint64
}

// Snapshot captures the scheduler's mutable state.
func (t *TCM) Snapshot() TCMState {
	return TCMState{
		Rank:        append([]int(nil), t.rank...),
		IsLatency:   append([]bool(nil), t.isLatency...),
		BWBase:      append([]int(nil), t.bwBase...),
		ShufflePos:  t.shufflePos,
		LastShuffle: t.lastShuffle,
	}
}

// Restore installs a previously captured state.
func (t *TCM) Restore(st TCMState) error {
	if len(st.Rank) != len(t.rank) || len(st.IsLatency) != len(t.isLatency) {
		return fmt.Errorf("sched: TCM snapshot has %d threads, scheduler has %d", len(st.Rank), len(t.rank))
	}
	copy(t.rank, st.Rank)
	copy(t.isLatency, st.IsLatency)
	t.bwBase = append(t.bwBase[:0], st.BWBase...)
	t.shufflePos = st.ShufflePos
	t.lastShuffle = st.LastShuffle
	t.epoch++
	return nil
}

// ATLASState is the ATLAS scheduler's mutable state.
type ATLASState struct {
	Attained []float64
	Rank     []int
}

// Snapshot captures the scheduler's mutable state.
func (a *ATLAS) Snapshot() ATLASState {
	return ATLASState{
		Attained: append([]float64(nil), a.attained...),
		Rank:     append([]int(nil), a.rank...),
	}
}

// Restore installs a previously captured state.
func (a *ATLAS) Restore(st ATLASState) error {
	if len(st.Attained) != len(a.attained) || len(st.Rank) != len(a.rank) {
		return fmt.Errorf("sched: ATLAS snapshot has %d threads, scheduler has %d", len(st.Attained), len(a.attained))
	}
	copy(a.attained, st.Attained)
	copy(a.rank, st.Rank)
	a.epoch++
	return nil
}

// PARBSState is the PAR-BS scheduler's mutable state, with request pointers
// replaced by (channel, ID) references.
type PARBSState struct {
	Marked          []RequestRef
	Outstanding     []RequestRef
	MarkedPerThread detmap.Map[int, int]
}

// Snapshot captures the scheduler's mutable state. ref maps a live request
// to its cross-snapshot reference (the kernel supplies the channel).
func (p *PARBS) Snapshot(ref func(r *memctrl.Request) RequestRef) PARBSState {
	st := PARBSState{MarkedPerThread: detmap.Copy(p.markedPerThread)}
	for r := range p.marked {
		st.Marked = append(st.Marked, ref(r))
	}
	for r := range p.outstanding {
		st.Outstanding = append(st.Outstanding, ref(r))
	}
	// The batch sets are iterated in map order; sort the references so the
	// serialised state is byte-deterministic (Restore rebuilds sets, so the
	// order carries no meaning).
	sortRefs(st.Marked)
	sortRefs(st.Outstanding)
	return st
}

// sortRefs orders references by (channel, ID) for deterministic encoding.
func sortRefs(refs []RequestRef) {
	slices.SortFunc(refs, func(a, b RequestRef) int {
		if a.Channel != b.Channel {
			return a.Channel - b.Channel
		}
		switch {
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
}

// Restore installs a previously captured state. lookup resolves a reference
// to the restored request object; it returns nil for unknown references,
// which Restore reports as an error.
func (p *PARBS) Restore(st PARBSState, lookup func(ref RequestRef) *memctrl.Request) error {
	marked := make(map[*memctrl.Request]struct{}, len(st.Marked))
	outstanding := make(map[*memctrl.Request]struct{}, len(st.Outstanding))
	for _, ref := range st.Marked {
		r := lookup(ref)
		if r == nil {
			return fmt.Errorf("sched: PAR-BS snapshot references unknown request %d on channel %d", ref.ID, ref.Channel)
		}
		marked[r] = struct{}{}
	}
	for _, ref := range st.Outstanding {
		r := lookup(ref)
		if r == nil {
			return fmt.Errorf("sched: PAR-BS snapshot references unknown request %d on channel %d", ref.ID, ref.Channel)
		}
		outstanding[r] = struct{}{}
	}
	p.marked = marked
	p.outstanding = outstanding
	p.markedPerThread = make(map[int]int, len(st.MarkedPerThread))
	for k, v := range st.MarkedPerThread {
		p.markedPerThread[k] = v
	}
	p.epoch++
	return nil
}

// BLISSState is the BLISS scheduler's mutable state.
type BLISSState struct {
	LastThread  int
	Streak      int
	Blacklisted detmap.Map[int, bool]
	LastClear   uint64
}

// Snapshot captures the scheduler's mutable state.
func (b *BLISS) Snapshot() BLISSState {
	st := BLISSState{
		LastThread:  b.lastThread,
		Streak:      b.streak,
		Blacklisted: detmap.Copy(b.blacklisted),
		LastClear:   b.lastClear,
	}
	return st
}

// Restore installs a previously captured state.
func (b *BLISS) Restore(st BLISSState) error {
	b.lastThread = st.LastThread
	b.streak = st.Streak
	b.blacklisted = make(map[int]bool, len(st.Blacklisted))
	for k, v := range st.Blacklisted {
		b.blacklisted[k] = v
	}
	b.lastClear = st.LastClear
	b.epoch++
	return nil
}

// FRFCFSCapState is the capped FR-FCFS scheduler's mutable state.
type FRFCFSCapState struct {
	Streak detmap.Map[int, int]
}

// Snapshot captures the scheduler's mutable state.
func (c *FRFCFSCap) Snapshot() FRFCFSCapState {
	return FRFCFSCapState{Streak: detmap.Copy(c.streak)}
}

// Restore installs a previously captured state.
func (c *FRFCFSCap) Restore(st FRFCFSCapState) error {
	c.streak = make(map[int]int, len(st.Streak))
	for k, v := range st.Streak {
		c.streak[k] = v
	}
	c.epoch++
	return nil
}

// PriorityState is the ThreadPriority wrapper's mutable state (the inner
// scheduler's state is captured separately).
type PriorityState struct {
	Levels []int
}

// Snapshot captures the wrapper's mutable state.
func (t *ThreadPriority) Snapshot() PriorityState {
	return PriorityState{Levels: append([]int(nil), t.levels...)}
}

// Restore installs a previously captured state.
func (t *ThreadPriority) Restore(st PriorityState) error {
	if len(st.Levels) != len(t.levels) {
		return fmt.Errorf("sched: priority snapshot has %d threads, wrapper has %d", len(st.Levels), len(t.levels))
	}
	copy(t.levels, st.Levels)
	t.epoch++
	return nil
}
