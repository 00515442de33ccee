package cpu

import (
	"fmt"

	"dbpsim/internal/cache"
	"dbpsim/internal/detmap"
	"dbpsim/internal/prefetch"
)

// ROBEntryState is one reorder-buffer slot, flattened for serialisation.
type ROBEntryState struct {
	Done    bool
	ReadyAt uint64
	IsLoad  bool
}

// PendingOpState is one spilled posted transfer.
type PendingOpState struct {
	Addr    uint64
	IsWrite bool
}

// CoreState is the core's complete mutable state, including its private
// cache hierarchy and prefetcher. The trace generator's PRNG cannot be
// serialised; GenCalls records how many items were consumed so Restore can
// fast-forward a fresh, identically seeded generator.
type CoreState struct {
	ROB   []ROBEntryState
	Head  int
	Tail  int
	Count int

	HaveItem bool
	ItemGap  int
	ItemAddr uint64
	ItemIsWrite,
	ItemDependent bool
	GapLeft  int
	GenCalls uint64

	OutstandingLoads int
	DemandInFlight   int
	PendingOps       []PendingOpState
	NextTag          uint64
	MissSlots        detmap.Map[uint64, int]

	Stats Stats
	Now   uint64

	Hier cache.HierarchyState
	// PF is nil when prefetching is disabled.
	PF *prefetch.StrideState
}

// Snapshot captures the core's mutable state.
func (c *Core) Snapshot() CoreState {
	st := CoreState{
		ROB:              make([]ROBEntryState, len(c.rob)),
		Head:             c.head,
		Tail:             c.tail,
		Count:            c.count,
		HaveItem:         c.haveItem,
		ItemGap:          c.item.Gap,
		ItemAddr:         c.item.Addr,
		ItemIsWrite:      c.item.IsWrite,
		ItemDependent:    c.item.Dependent,
		GapLeft:          c.gapLeft,
		GenCalls:         c.genCalls,
		OutstandingLoads: c.outstandingLoads,
		DemandInFlight:   c.demandInFlight,
		PendingOps:       make([]PendingOpState, len(c.pendingOps)),
		NextTag:          c.nextTag,
		MissSlots:        detmap.Copy(c.missSlots),
		Stats:            c.stats,
		Now:              c.now,
		Hier:             c.hier.Snapshot(),
	}
	for i, e := range c.rob {
		st.ROB[i] = ROBEntryState{Done: e.done, ReadyAt: e.readyAt, IsLoad: e.isLoad}
	}
	for i, op := range c.pendingOps {
		st.PendingOps[i] = PendingOpState{Addr: op.addr, IsWrite: op.isWrite}
	}
	if c.pf != nil {
		pf := c.pf.Snapshot()
		st.PF = &pf
	}
	return st
}

// Restore installs a previously captured state into a freshly built core
// with the same configuration and an identically seeded generator. The
// generator is fast-forwarded by replaying GenCalls items.
func (c *Core) Restore(st CoreState) error {
	if len(st.ROB) != len(c.rob) {
		return fmt.Errorf("cpu: core %d snapshot has %d ROB slots, core has %d", c.id, len(st.ROB), len(c.rob))
	}
	if (st.PF == nil) != (c.pf == nil) {
		return fmt.Errorf("cpu: core %d snapshot prefetcher setup does not match configuration", c.id)
	}
	if err := c.hier.Restore(st.Hier); err != nil {
		return fmt.Errorf("cpu: core %d: %w", c.id, err)
	}
	if c.pf != nil {
		if err := c.pf.Restore(*st.PF); err != nil {
			return fmt.Errorf("cpu: core %d: %w", c.id, err)
		}
	}
	for i, e := range st.ROB {
		c.rob[i] = robEntry{done: e.Done, readyAt: e.ReadyAt, isLoad: e.IsLoad}
	}
	c.head, c.tail, c.count = st.Head, st.Tail, st.Count
	c.haveItem = st.HaveItem
	c.item.Gap = st.ItemGap
	c.item.Addr = st.ItemAddr
	c.item.IsWrite = st.ItemIsWrite
	c.item.Dependent = st.ItemDependent
	c.gapLeft = st.GapLeft
	c.translated = false
	c.outstandingLoads = st.OutstandingLoads
	c.demandInFlight = st.DemandInFlight
	c.pendingOps = c.pendingOps[:0]
	for _, op := range st.PendingOps {
		c.pendingOps = append(c.pendingOps, pendingOp{addr: op.Addr, isWrite: op.IsWrite})
	}
	c.nextTag = st.NextTag
	c.missSlots = make(map[uint64]int, len(st.MissSlots))
	for tag, slot := range st.MissSlots {
		if slot < 0 || slot >= len(c.rob) {
			return fmt.Errorf("cpu: core %d snapshot miss tag %d points at ROB slot %d of %d", c.id, tag, slot, len(c.rob))
		}
		c.missSlots[tag] = slot
	}
	c.stats = st.Stats
	c.now = st.Now
	// maxReadyAt is derived state (not serialised): recompute it over the
	// live window so the streaming fast path's readiness check stays sound.
	c.maxReadyAt = 0
	for j := 0; j < c.count; j++ {
		if r := c.rob[(c.head+j)%len(c.rob)].readyAt; r > c.maxReadyAt {
			c.maxReadyAt = r
		}
	}
	// Fast-forward the fresh generator to the snapshot's trace position.
	for n := c.genCalls; n < st.GenCalls; n++ {
		c.gen.Next()
	}
	c.genCalls = st.GenCalls
	return nil
}
