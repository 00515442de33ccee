package paging

import (
	"fmt"

	"dbpsim/internal/addr"
)

// Allocator hands out physical page frames by color. Frames freed by page
// migration are recycled before fresh frames are used.
type Allocator struct {
	mapper  *addr.Mapper
	nextIdx []uint64   // next fresh frame index per color
	free    [][]uint64 // recycled frames per color
	limit   uint64     // frames per color
	used    []uint64   // live frames per color
}

// NewAllocator builds an allocator over the mapper's frame space.
func NewAllocator(m *addr.Mapper) *Allocator {
	n := m.Geometry().NumColors()
	return &Allocator{
		mapper:  m,
		nextIdx: make([]uint64, n),
		free:    make([][]uint64, n),
		limit:   m.FramesPerColor(),
		used:    make([]uint64, n),
	}
}

// NumColors returns the number of page colors.
func (a *Allocator) NumColors() int { return len(a.nextIdx) }

// UsedFrames returns the number of live frames of the given color.
func (a *Allocator) UsedFrames(color int) uint64 { return a.used[color] }

// Alloc returns a frame of the given color, or an error when that color's
// bank is full.
func (a *Allocator) Alloc(color int) (pfn uint64, err error) {
	if color < 0 || color >= len(a.nextIdx) {
		return 0, fmt.Errorf("paging: color %d out of range [0,%d)", color, len(a.nextIdx))
	}
	if fl := a.free[color]; len(fl) > 0 {
		pfn = fl[len(fl)-1]
		a.free[color] = fl[:len(fl)-1]
		a.used[color]++
		return pfn, nil
	}
	if a.nextIdx[color] >= a.limit {
		return 0, fmt.Errorf("paging: color %d exhausted (%d frames)", color, a.limit)
	}
	pfn = a.mapper.FrameOfColor(color, a.nextIdx[color])
	a.nextIdx[color]++
	a.used[color]++
	return pfn, nil
}

// Free returns a frame to its color's free list.
func (a *Allocator) Free(pfn uint64) {
	color := a.mapper.FrameColor(pfn)
	a.free[color] = append(a.free[color], pfn)
	if a.used[color] > 0 {
		a.used[color]--
	}
}

// Stats summarises allocator occupancy per color.
func (a *Allocator) Stats() []uint64 {
	out := make([]uint64, len(a.used))
	copy(out, a.used)
	return out
}

// memoSize is the number of direct-mapped translation memo slots (a power
// of two).
const memoSize = 64

// memoSlot caches one vpn → pfn entry; tag is vpn+1, so the zero slot is
// empty.
type memoSlot struct{ tag, pfn uint64 }

// PageTable is one thread's virtual→physical mapping with a color mask.
type PageTable struct {
	mapper  *addr.Mapper
	alloc   *Allocator
	entries map[uint64]uint64 // vpn → pfn
	// memo is a direct-mapped cache of entries in front of the map, indexed
	// by the vpn's low bits. Every entries write to a memoised vpn updates
	// its slot, so a slot never disagrees with the map. Unserialised:
	// Restore clears it.
	memo      [memoSize]memoSlot
	order     []uint64 // vpns in first-touch order (for migration scans)
	mask      ColorSet
	allowed   []int // cached mask.Colors()
	rr        int   // round-robin cursor into allowed
	pageShift uint

	// PagesAllocated counts first-touch allocations.
	PagesAllocated uint64
	// PagesMigrated counts pages moved by Migrate.
	PagesMigrated uint64
}

// NewPageTable creates a page table drawing frames from alloc, initially
// allowed to use every color.
func NewPageTable(m *addr.Mapper, alloc *Allocator) *PageTable {
	pt := &PageTable{
		mapper:    m,
		alloc:     alloc,
		entries:   make(map[uint64]uint64),
		pageShift: m.PageShift(),
	}
	pt.setMask(FullColorSet(m.Geometry().NumColors()))
	return pt
}

// Mask returns the current color mask.
func (pt *PageTable) Mask() ColorSet { return pt.mask }

// SetMask installs a new color mask for future allocations (lazy
// re-coloring). An empty mask is rejected: a thread must always have at
// least one bank.
func (pt *PageTable) SetMask(mask ColorSet) error {
	if mask.Empty() {
		return fmt.Errorf("paging: refusing empty color mask")
	}
	if mask.Universe() != pt.mapper.Geometry().NumColors() {
		return fmt.Errorf("paging: mask universe %d != colors %d", mask.Universe(), pt.mapper.Geometry().NumColors())
	}
	pt.setMask(mask.Clone())
	return nil
}

func (pt *PageTable) setMask(mask ColorSet) {
	pt.mask = mask
	pt.allowed = mask.Colors()
	if pt.rr >= len(pt.allowed) {
		pt.rr = 0
	}
}

// nextColor picks the allowed color with the fewest frames this thread has
// used recently, approximated by round-robin (which spreads a thread's pages
// evenly over its partition, maximising its bank-level parallelism).
func (pt *PageTable) nextColor() int {
	c := pt.allowed[pt.rr%len(pt.allowed)]
	pt.rr++
	return c
}

// Translate maps a virtual address to a physical address, allocating the
// page on first touch. allocated reports a first-touch fault.
func (pt *PageTable) Translate(vaddr uint64) (paddr uint64, allocated bool, err error) {
	vpn := vaddr >> pt.pageShift
	offset := vaddr & ((1 << pt.pageShift) - 1)
	slot := &pt.memo[vpn&(memoSize-1)]
	if slot.tag == vpn+1 {
		return slot.pfn<<pt.pageShift | offset, false, nil
	}
	pfn, ok := pt.entries[vpn]
	if !ok {
		pfn, err = pt.alloc.Alloc(pt.nextColor())
		if err != nil {
			return 0, false, err
		}
		pt.entries[vpn] = pfn
		pt.order = append(pt.order, vpn)
		pt.PagesAllocated++
		allocated = true
	}
	*slot = memoSlot{tag: vpn + 1, pfn: pfn}
	return pfn<<pt.pageShift | offset, allocated, nil
}

// remap points vpn at a new frame, keeping its memo slot coherent.
func (pt *PageTable) remap(vpn, pfn uint64) {
	pt.entries[vpn] = pfn
	if slot := &pt.memo[vpn&(memoSize-1)]; slot.tag == vpn+1 {
		slot.pfn = pfn
	}
}

// Mapped reports whether vaddr's page is mapped, without allocating it.
func (pt *PageTable) Mapped(vaddr uint64) bool {
	_, ok := pt.entries[vaddr>>pt.pageShift]
	return ok
}

// NumPages returns the number of mapped pages.
func (pt *PageTable) NumPages() int { return len(pt.entries) }

// MisplacedPages counts mapped pages whose color is outside the current
// mask (candidates for migration under lazy re-coloring).
func (pt *PageTable) MisplacedPages() int {
	n := 0
	for _, pfn := range pt.entries {
		if !pt.mask.Has(pt.mapper.FrameColor(pfn)) {
			n++
		}
	}
	return n
}

// Migrate moves up to maxPages misplaced pages into the current mask,
// returning how many were moved. The caller models the migration cost
// (each move is one page of read+write traffic).
func (pt *PageTable) Migrate(maxPages int) int {
	moved := 0
	for _, vpn := range pt.order {
		if moved >= maxPages {
			break
		}
		pfn, ok := pt.entries[vpn]
		if !ok || pt.mask.Has(pt.mapper.FrameColor(pfn)) {
			continue
		}
		newPfn, err := pt.alloc.Alloc(pt.nextColor())
		if err != nil {
			break // destination full; stop migrating
		}
		pt.alloc.Free(pfn)
		pt.remap(vpn, newPfn)
		pt.PagesMigrated++
		moved++
	}
	return moved
}

// Rebalance moves up to maxPages pages between colors *within* the current
// mask so the thread's pages spread evenly over its partition. Growing a
// partition is useless to a thread whose working set is already resident
// unless resident pages move onto the new banks — this restores the
// bank-level parallelism the larger partition was granted for. It returns
// the number of pages moved.
func (pt *PageTable) Rebalance(maxPages int) int {
	if maxPages <= 0 || len(pt.allowed) < 2 {
		return 0
	}
	hist := pt.ColorHistogram()
	inMask := 0
	for _, c := range pt.allowed {
		inMask += hist[c]
	}
	target := (inMask + len(pt.allowed) - 1) / len(pt.allowed)
	over := func(c int) bool { return hist[c] > target }
	// Deficit per under-populated color.
	moved := 0
	for _, vpn := range pt.order {
		if moved >= maxPages {
			break
		}
		pfn, ok := pt.entries[vpn]
		if !ok {
			continue
		}
		c := pt.mapper.FrameColor(pfn)
		if !pt.mask.Has(c) || !over(c) {
			continue
		}
		// Find the most under-populated allowed color.
		best, bestCount := -1, target
		for _, cand := range pt.allowed {
			if hist[cand] < bestCount {
				best, bestCount = cand, hist[cand]
			}
		}
		if best < 0 {
			break
		}
		newPfn, err := pt.alloc.Alloc(best)
		if err != nil {
			break
		}
		pt.alloc.Free(pfn)
		pt.remap(vpn, newPfn)
		hist[c]--
		hist[best]++
		pt.PagesMigrated++
		moved++
	}
	return moved
}

// ColorHistogram returns, per color, how many of this thread's pages
// currently live there.
func (pt *PageTable) ColorHistogram() []int {
	h := make([]int, pt.mapper.Geometry().NumColors())
	for _, pfn := range pt.entries {
		h[pt.mapper.FrameColor(pfn)]++
	}
	return h
}
