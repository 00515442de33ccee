package paging

import (
	"fmt"

	"dbpsim/internal/detmap"
)

// AllocatorState is the frame allocator's complete mutable state.
type AllocatorState struct {
	NextIdx []uint64
	Free    [][]uint64
	Used    []uint64
}

// Snapshot captures the allocator's mutable state.
func (a *Allocator) Snapshot() AllocatorState {
	st := AllocatorState{
		NextIdx: append([]uint64(nil), a.nextIdx...),
		Free:    make([][]uint64, len(a.free)),
		Used:    append([]uint64(nil), a.used...),
	}
	for c, fl := range a.free {
		st.Free[c] = append([]uint64(nil), fl...)
	}
	return st
}

// Restore installs a previously captured state. The allocator must cover
// the same color count as the snapshot source.
func (a *Allocator) Restore(st AllocatorState) error {
	if len(st.NextIdx) != len(a.nextIdx) || len(st.Free) != len(a.free) || len(st.Used) != len(a.used) {
		return fmt.Errorf("paging: allocator snapshot has %d colors, allocator has %d", len(st.NextIdx), len(a.nextIdx))
	}
	copy(a.nextIdx, st.NextIdx)
	copy(a.used, st.Used)
	for c := range a.free {
		a.free[c] = append([]uint64(nil), st.Free[c]...)
	}
	return nil
}

// PageTableState is one thread's page-table state. Order preserves the
// first-touch sequence that Migrate and Rebalance scan, which keeps resumed
// migration decisions deterministic.
type PageTableState struct {
	Entries        detmap.Map[uint64, uint64]
	Order          []uint64
	MaskColors     []int
	RR             int
	PagesAllocated uint64
	PagesMigrated  uint64
}

// Snapshot captures the page table's mutable state.
func (pt *PageTable) Snapshot() PageTableState {
	st := PageTableState{
		Entries:        detmap.Copy(pt.entries),
		Order:          append([]uint64(nil), pt.order...),
		MaskColors:     pt.mask.Colors(),
		RR:             pt.rr,
		PagesAllocated: pt.PagesAllocated,
		PagesMigrated:  pt.PagesMigrated,
	}
	return st
}

// Restore installs a previously captured state into a table over the same
// mapper geometry.
func (pt *PageTable) Restore(st PageTableState) error {
	n := pt.mapper.Geometry().NumColors()
	for _, c := range st.MaskColors {
		if c < 0 || c >= n {
			return fmt.Errorf("paging: snapshot mask color %d out of range [0,%d)", c, n)
		}
	}
	if len(st.MaskColors) == 0 {
		return fmt.Errorf("paging: snapshot mask is empty")
	}
	if len(st.Entries) != len(st.Order) {
		return fmt.Errorf("paging: snapshot has %d entries but %d ordered pages", len(st.Entries), len(st.Order))
	}
	pt.entries = make(map[uint64]uint64, len(st.Entries))
	for vpn, pfn := range st.Entries {
		pt.entries[vpn] = pfn
	}
	pt.order = append([]uint64(nil), st.Order...)
	pt.memo = [memoSize]memoSlot{}
	pt.setMask(ColorSetOf(n, st.MaskColors...))
	pt.rr = st.RR
	pt.PagesAllocated = st.PagesAllocated
	pt.PagesMigrated = st.PagesMigrated
	return nil
}
