package sched

import (
	"fmt"
	"maps"
	"slices"

	"dbpsim/internal/detmap"
)

// Snapshot/Restore implement memctrl.Scheduler's state pair: each
// scheduler gob-encodes its own mutable state (configuration is rebuilt by
// its constructor), and every Restore bumps the priority epoch so the
// controller re-ranks its cached heads.

// decodeState decodes a scheduler's snapshot bytes into st.
func decodeState(name string, b []byte, st any) error {
	if err := detmap.Unmarshal(b, st); err != nil {
		return fmt.Errorf("sched: %s snapshot: %w", name, err)
	}
	return nil
}

// mapOf copies a decoded map into a fresh, never-nil map.
func mapOf[K comparable, V any](m map[K]V) map[K]V {
	out := make(map[K]V, len(m))
	maps.Copy(out, m)
	return out
}

// tcmState is the TCM scheduler's mutable state.
type tcmState struct {
	Rank        []int
	IsLatency   []bool
	BWBase      []int
	ShufflePos  int
	LastShuffle uint64
}

// Snapshot implements memctrl.Scheduler.
func (t *TCM) Snapshot() ([]byte, error) {
	return detmap.Marshal(tcmState{t.rank, t.isLatency, t.bwBase, t.shufflePos, t.lastShuffle})
}

// Restore implements memctrl.Scheduler.
func (t *TCM) Restore(b []byte) error {
	var st tcmState
	if err := decodeState("TCM", b, &st); err != nil {
		return err
	}
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

// atlasState is the ATLAS scheduler's mutable state.
type atlasState struct {
	Attained []float64
	Rank     []int
}

// Snapshot implements memctrl.Scheduler.
func (a *ATLAS) Snapshot() ([]byte, error) {
	return detmap.Marshal(atlasState{a.attained, a.rank})
}

// Restore implements memctrl.Scheduler.
func (a *ATLAS) Restore(b []byte) error {
	var st atlasState
	if err := decodeState("ATLAS", b, &st); err != nil {
		return err
	}
	if len(st.Attained) != len(a.attained) || len(st.Rank) != len(a.rank) {
		return fmt.Errorf("sched: ATLAS snapshot has %d threads, scheduler has %d", len(st.Attained), len(a.attained))
	}
	copy(a.attained, st.Attained)
	copy(a.rank, st.Rank)
	a.epoch++
	return nil
}

// parbsState lists PAR-BS's queued reads in (ID, channel) order; the
// per-thread batch counts follow from the marked ones.
type parbsState struct {
	Queued []parbsQueued
}

type parbsQueued struct {
	Channel, Thread, Bank int
	ID                    uint64
	Marked                bool
}

// Snapshot implements memctrl.Scheduler.
func (p *PARBS) Snapshot() ([]byte, error) {
	keys := make([]reqKey, 0, len(p.outstanding))
	for k := range p.outstanding {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, compareKeys)
	st := parbsState{Queued: make([]parbsQueued, len(keys))}
	for i, k := range keys {
		q := p.outstanding[k]
		_, marked := p.marked[k]
		st.Queued[i] = parbsQueued{Channel: k.channel, Thread: q.thread, Bank: q.bank, ID: k.id, Marked: marked}
	}
	return detmap.Marshal(st)
}

// Restore implements memctrl.Scheduler.
func (p *PARBS) Restore(b []byte) error {
	var st parbsState
	if err := decodeState("PAR-BS", b, &st); err != nil {
		return err
	}
	p.outstanding = make(map[reqKey]queuedRead, len(st.Queued))
	p.marked = make(map[reqKey]struct{})
	p.markedPerThread = make(map[int]int)
	for _, q := range st.Queued {
		k := reqKey{q.Channel, q.ID}
		p.outstanding[k] = queuedRead{q.Thread, q.Bank}
		if q.Marked {
			p.marked[k] = struct{}{}
			p.markedPerThread[q.Thread]++
		}
	}
	p.epoch++
	return nil
}

// blissState is the BLISS scheduler's mutable state.
type blissState struct {
	LastThread  int
	Streak      int
	Blacklisted detmap.Map[int, bool]
	LastClear   uint64
}

// Snapshot implements memctrl.Scheduler.
func (b *BLISS) Snapshot() ([]byte, error) {
	return detmap.Marshal(blissState{b.lastThread, b.streak, b.blacklisted, b.lastClear})
}

// Restore implements memctrl.Scheduler.
func (b *BLISS) Restore(data []byte) error {
	var st blissState
	if err := decodeState("BLISS", data, &st); err != nil {
		return err
	}
	b.lastThread = st.LastThread
	b.streak = st.Streak
	b.blacklisted = mapOf(st.Blacklisted)
	b.lastClear = st.LastClear
	b.epoch++
	return nil
}

// frfcfsCapState is the capped FR-FCFS scheduler's mutable state.
type frfcfsCapState struct {
	Streak detmap.Map[int, int]
}

// Snapshot implements memctrl.Scheduler.
func (c *FRFCFSCap) Snapshot() ([]byte, error) {
	return detmap.Marshal(frfcfsCapState{c.streak})
}

// Restore implements memctrl.Scheduler.
func (c *FRFCFSCap) Restore(b []byte) error {
	var st frfcfsCapState
	if err := decodeState("FR-FCFS-cap", b, &st); err != nil {
		return err
	}
	c.streak = mapOf(st.Streak)
	c.epoch++
	return nil
}

// priorityState is the ThreadPriority wrapper's levels plus its inner
// scheduler's own snapshot bytes.
type priorityState struct {
	Levels []int
	Inner  []byte
}

// Snapshot implements memctrl.Scheduler.
func (t *ThreadPriority) Snapshot() ([]byte, error) {
	inner, err := t.inner.Snapshot()
	if err != nil {
		return nil, err
	}
	return detmap.Marshal(priorityState{t.levels, inner})
}

// Restore implements memctrl.Scheduler.
func (t *ThreadPriority) Restore(b []byte) error {
	var st priorityState
	if err := decodeState("priority", b, &st); err != nil {
		return err
	}
	if len(st.Levels) != len(t.levels) {
		return fmt.Errorf("sched: priority snapshot has %d threads, wrapper has %d", len(st.Levels), len(t.levels))
	}
	if err := t.inner.Restore(st.Inner); err != nil {
		return err
	}
	copy(t.levels, st.Levels)
	t.epoch++
	return nil
}
