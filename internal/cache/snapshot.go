package cache

import (
	"fmt"

	"dbpsim/internal/detmap"
)

// Snapshot/Restore capture cache contents (tags, dirtiness, LRU clocks)
// so simulations can be checkpointed and resumed bit-identically. Shapes
// (set count, associativity) are derived from config and validated, not
// serialised.

// LineState is one cache line, flattened for serialisation.
type LineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Used  uint64
}

// CacheState is one private cache's complete mutable state. Lines holds
// sets×ways entries in set-major order.
type CacheState struct {
	Lines []LineState
	Clock uint64
	Stats Stats
}

// Snapshot captures the cache's mutable state.
func (c *Cache) Snapshot() CacheState {
	st := CacheState{Clock: c.clock, Stats: c.stats}
	st.Lines = make([]LineState, len(c.lines))
	for i, l := range c.lines {
		st.Lines[i] = LineState{Tag: l.tag(), Valid: l.valid(), Dirty: l.dirty(), Used: l.used()}
	}
	return st
}

// Restore installs a previously captured state. The cache must have the
// same geometry as the one the snapshot was taken from.
func (c *Cache) Restore(st CacheState) error {
	if len(st.Lines) != len(c.lines) {
		return fmt.Errorf("cache %s: snapshot has %d lines, cache has %d", c.cfg.Name, len(st.Lines), len(c.lines))
	}
	c.clock = st.Clock
	c.stats = st.Stats
	for i, ls := range st.Lines {
		c.lines[i] = packLine(ls.Tag, ls.Valid, ls.Dirty, ls.Used)
	}
	return nil
}

// HierarchyState is a two-level private hierarchy's state.
type HierarchyState struct {
	L1 CacheState
	L2 CacheState
}

// Snapshot captures both levels.
func (h *Hierarchy) Snapshot() HierarchyState {
	return HierarchyState{L1: h.L1.Snapshot(), L2: h.L2.Snapshot()}
}

// Restore installs both levels.
func (h *Hierarchy) Restore(st HierarchyState) error {
	if err := h.L1.Restore(st.L1); err != nil {
		return err
	}
	return h.L2.Restore(st.L2)
}

// SharedLineState is one shared-cache line, flattened for serialisation.
type SharedLineState struct {
	Tag   uint64
	Valid bool
	Dirty bool
	Used  uint64
	Owner int
}

// UMONState is one utility monitor's complete state: the warm tag stacks
// plus the current quantum's histograms.
type UMONState struct {
	Stacks   detmap.Map[uint64, []uint64]
	Hist     []uint64
	Misses   uint64
	Accesses uint64
}

// SharedState is the shared LLC's complete mutable state.
type SharedState struct {
	Lines     []SharedLineState
	Clock     uint64
	WayMask   []uint64
	PerThread []SharedStats
	// UMONs is nil when utility monitoring is disabled.
	UMONs []UMONState
}

// Snapshot captures the monitor's state.
func (u *UMON) Snapshot() UMONState {
	st := UMONState{
		Stacks:   make(detmap.Map[uint64, []uint64], len(u.stacks)),
		Hist:     append([]uint64(nil), u.hist...),
		Misses:   u.misses,
		Accesses: u.accesses,
	}
	for k, v := range u.stacks {
		st.Stacks[k] = append([]uint64(nil), v...)
	}
	return st
}

// Restore installs a previously captured monitor state.
func (u *UMON) Restore(st UMONState) error {
	if len(st.Hist) != len(u.hist) {
		return fmt.Errorf("cache: UMON snapshot has %d ways, monitor has %d", len(st.Hist), len(u.hist))
	}
	copy(u.hist, st.Hist)
	u.misses = st.Misses
	u.accesses = st.Accesses
	u.stacks = make(map[uint64][]uint64, len(st.Stacks))
	for k, v := range st.Stacks {
		u.stacks[k] = append([]uint64(nil), v...)
	}
	return nil
}

// Snapshot captures the shared cache's mutable state.
func (s *Shared) Snapshot() SharedState {
	st := SharedState{
		Clock:     s.clock,
		WayMask:   append([]uint64(nil), s.wayMask...),
		PerThread: append([]SharedStats(nil), s.perThread...),
	}
	st.Lines = make([]SharedLineState, 0, len(s.sets)*s.cfg.Ways)
	for _, set := range s.sets {
		for _, l := range set {
			st.Lines = append(st.Lines, SharedLineState{Tag: l.tag, Valid: l.valid, Dirty: l.dirty, Used: l.used, Owner: l.owner})
		}
	}
	if s.umons != nil {
		st.UMONs = make([]UMONState, len(s.umons))
		for i, u := range s.umons {
			st.UMONs[i] = u.Snapshot()
		}
	}
	return st
}

// Restore installs a previously captured state. The cache must have the
// same geometry, thread count and monitoring setup as the snapshot source.
func (s *Shared) Restore(st SharedState) error {
	want := len(s.sets) * s.cfg.Ways
	if len(st.Lines) != want {
		return fmt.Errorf("cache: LLC snapshot has %d lines, cache has %d", len(st.Lines), want)
	}
	if len(st.WayMask) != len(s.wayMask) || len(st.PerThread) != len(s.perThread) {
		return fmt.Errorf("cache: LLC snapshot has %d threads, cache has %d", len(st.WayMask), len(s.wayMask))
	}
	if (st.UMONs == nil) != (s.umons == nil) || len(st.UMONs) != len(s.umons) {
		return fmt.Errorf("cache: LLC snapshot UMON setup (%d) does not match cache (%d)", len(st.UMONs), len(s.umons))
	}
	for i, u := range s.umons {
		if err := u.Restore(st.UMONs[i]); err != nil {
			return err
		}
	}
	s.clock = st.Clock
	copy(s.wayMask, st.WayMask)
	copy(s.perThread, st.PerThread)
	i := 0
	for idx := range s.sets {
		set := s.sets[idx]
		for w := range set {
			ls := st.Lines[i]
			set[w] = sline{tag: ls.Tag, valid: ls.Valid, dirty: ls.Dirty, used: ls.Used, owner: ls.Owner}
			i++
		}
	}
	return nil
}
