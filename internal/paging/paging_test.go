package paging

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dbpsim/internal/addr"
)

func testMapper() *addr.Mapper {
	g := addr.DefaultGeometry()
	g.RowsPerBank = 256 // keep the frame space small for exhaustion tests
	return addr.NewMapper(g)
}

func TestColorSetBasics(t *testing.T) {
	s := NewColorSet(16)
	if !s.Empty() || s.Count() != 0 {
		t.Fatal("new set not empty")
	}
	s.Add(0)
	s.Add(5)
	s.Add(15)
	s.Add(16) // out of range, ignored
	s.Add(-1) // out of range, ignored
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	if !s.Has(5) || s.Has(4) || s.Has(16) || s.Has(-1) {
		t.Error("Has misbehaves")
	}
	s.Remove(5)
	if s.Has(5) || s.Count() != 2 {
		t.Error("Remove failed")
	}
	want := []int{0, 15}
	got := s.Colors()
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Colors = %v, want %v", got, want)
	}
	if s.String() != "{0,15}" {
		t.Errorf("String = %q", s.String())
	}
	if s.Universe() != 16 {
		t.Errorf("Universe = %d", s.Universe())
	}
}

func TestColorSetFullAndOf(t *testing.T) {
	f := FullColorSet(70) // crosses a word boundary
	if f.Count() != 70 {
		t.Errorf("FullColorSet(70).Count = %d", f.Count())
	}
	o := ColorSetOf(8, 1, 3, 5)
	if o.Count() != 3 || !o.Has(3) {
		t.Errorf("ColorSetOf wrong: %s", o)
	}
}

func TestColorSetEqualClone(t *testing.T) {
	a := ColorSetOf(16, 1, 2)
	b := ColorSetOf(16, 1, 2)
	c := ColorSetOf(16, 1, 3)
	if !a.Equal(b) || a.Equal(c) || a.Equal(ColorSetOf(8, 1, 2)) {
		t.Error("Equal misbehaves")
	}
	cl := a.Clone()
	cl.Add(9)
	if a.Has(9) {
		t.Error("Clone not independent")
	}
}

func TestAllocatorColorsAndExhaustion(t *testing.T) {
	m := testMapper()
	a := NewAllocator(m)
	if a.NumColors() != 16 {
		t.Fatalf("NumColors = %d", a.NumColors())
	}
	seen := make(map[uint64]bool)
	for i := 0; i < 256; i++ {
		pfn, err := a.Alloc(3)
		if err != nil {
			t.Fatalf("alloc %d failed: %v", i, err)
		}
		if m.FrameColor(pfn) != 3 {
			t.Fatalf("frame %d has color %d, want 3", pfn, m.FrameColor(pfn))
		}
		if seen[pfn] {
			t.Fatalf("duplicate frame %d", pfn)
		}
		seen[pfn] = true
	}
	if a.UsedFrames(3) != 256 {
		t.Errorf("UsedFrames = %d", a.UsedFrames(3))
	}
	if _, err := a.Alloc(3); err == nil {
		t.Error("expected exhaustion error")
	}
	if _, err := a.Alloc(99); err == nil {
		t.Error("expected out-of-range error")
	}
}

func TestAllocatorRecycles(t *testing.T) {
	m := testMapper()
	a := NewAllocator(m)
	pfn, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	a.Free(pfn)
	if a.UsedFrames(2) != 0 {
		t.Errorf("UsedFrames after free = %d", a.UsedFrames(2))
	}
	pfn2, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	if pfn2 != pfn {
		t.Errorf("recycled frame %d, want %d", pfn2, pfn)
	}
	st := a.Stats()
	if st[2] != 1 {
		t.Errorf("Stats[2] = %d", st[2])
	}
}

func TestPageTableFirstTouch(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	p1, alloc1, err := pt.Translate(0x1234)
	if err != nil || !alloc1 {
		t.Fatalf("first touch: %v alloc=%v", err, alloc1)
	}
	p2, alloc2, err := pt.Translate(0x1238)
	if err != nil || alloc2 {
		t.Fatalf("second touch: %v alloc=%v", err, alloc2)
	}
	if p1&^0xFFF != p2&^0xFFF {
		t.Error("same page translated to different frames")
	}
	if p1&0xFFF != 0x234 {
		t.Errorf("offset not preserved: %#x", p1)
	}
	if pt.NumPages() != 1 || pt.PagesAllocated != 1 {
		t.Errorf("NumPages=%d PagesAllocated=%d", pt.NumPages(), pt.PagesAllocated)
	}
}

func TestPageTableInterleavesUnrestricted(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	pageBytes := uint64(m.Geometry().PageBytes())
	for i := uint64(0); i < 32; i++ {
		if _, _, err := pt.Translate(i * pageBytes); err != nil {
			t.Fatal(err)
		}
	}
	h := pt.ColorHistogram()
	for c, n := range h {
		if n != 2 { // 32 pages over 16 colors
			t.Errorf("color %d holds %d pages, want 2", c, n)
		}
	}
}

func TestPageTableHonorsMask(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	mask := ColorSetOf(16, 4, 7)
	if err := pt.SetMask(mask); err != nil {
		t.Fatal(err)
	}
	pageBytes := uint64(m.Geometry().PageBytes())
	for i := uint64(0); i < 20; i++ {
		paddr, _, err := pt.Translate(i * pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		color := m.FrameColor(paddr >> m.PageShift())
		if color != 4 && color != 7 {
			t.Fatalf("page landed on color %d outside mask", color)
		}
	}
	h := pt.ColorHistogram()
	if h[4] != 10 || h[7] != 10 {
		t.Errorf("histogram = %v, want 10 each on 4 and 7", h)
	}
}

func TestSetMaskRejectsBadMasks(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	if err := pt.SetMask(NewColorSet(16)); err == nil {
		t.Error("empty mask accepted")
	}
	if err := pt.SetMask(ColorSetOf(8, 1)); err == nil {
		t.Error("wrong-universe mask accepted")
	}
}

func TestLazyRecolorKeepsOldPages(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	if err := pt.SetMask(ColorSetOf(16, 0)); err != nil {
		t.Fatal(err)
	}
	pageBytes := uint64(m.Geometry().PageBytes())
	pt.Translate(0 * pageBytes)
	pt.Translate(1 * pageBytes)
	if err := pt.SetMask(ColorSetOf(16, 5)); err != nil {
		t.Fatal(err)
	}
	// Old pages keep color 0; new pages go to 5.
	pt.Translate(2 * pageBytes)
	h := pt.ColorHistogram()
	if h[0] != 2 || h[5] != 1 {
		t.Errorf("histogram = %v", h)
	}
	if pt.MisplacedPages() != 2 {
		t.Errorf("MisplacedPages = %d, want 2", pt.MisplacedPages())
	}
}

func TestMigrate(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	if err := pt.SetMask(ColorSetOf(16, 0)); err != nil {
		t.Fatal(err)
	}
	pageBytes := uint64(m.Geometry().PageBytes())
	for i := uint64(0); i < 4; i++ {
		pt.Translate(i * pageBytes)
	}
	if err := pt.SetMask(ColorSetOf(16, 9)); err != nil {
		t.Fatal(err)
	}
	if got := pt.Migrate(3); got != 3 {
		t.Fatalf("Migrate moved %d, want 3", got)
	}
	if pt.MisplacedPages() != 1 {
		t.Errorf("MisplacedPages = %d, want 1", pt.MisplacedPages())
	}
	if got := pt.Migrate(10); got != 1 {
		t.Errorf("second Migrate moved %d, want 1", got)
	}
	h := pt.ColorHistogram()
	if h[9] != 4 || h[0] != 0 {
		t.Errorf("histogram after migration = %v", h)
	}
	if pt.PagesMigrated != 4 {
		t.Errorf("PagesMigrated = %d", pt.PagesMigrated)
	}
	// Translations must still resolve and stay on the new color.
	paddr, allocated, err := pt.Translate(0)
	if err != nil || allocated {
		t.Fatalf("post-migration translate: %v alloc=%v", err, allocated)
	}
	if c := m.FrameColor(paddr >> m.PageShift()); c != 9 {
		t.Errorf("page color after migration = %d", c)
	}
}

// Property: translations are stable (same vaddr → same paddr) and distinct
// pages never share a frame.
func TestTranslateStableAndInjective(t *testing.T) {
	f := func(vaddrs []uint32) bool {
		m := testMapper()
		pt := NewPageTable(m, NewAllocator(m))
		first := make(map[uint64]uint64) // vpn → paddr page
		frameOwner := make(map[uint64]uint64)
		for _, v := range vaddrs {
			vaddr := uint64(v)
			paddr, _, err := pt.Translate(vaddr)
			if err != nil {
				return false
			}
			vpn := vaddr >> m.PageShift()
			pfn := paddr >> m.PageShift()
			if prev, ok := first[vpn]; ok && prev != pfn {
				return false
			}
			first[vpn] = pfn
			if owner, ok := frameOwner[pfn]; ok && owner != vpn {
				return false
			}
			frameOwner[pfn] = vpn
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTwoTablesNeverShareFrames(t *testing.T) {
	m := testMapper()
	a := NewAllocator(m)
	pt1 := NewPageTable(m, a)
	pt2 := NewPageTable(m, a)
	pageBytes := uint64(m.Geometry().PageBytes())
	frames := make(map[uint64]int)
	for i := uint64(0); i < 50; i++ {
		p1, _, err := pt1.Translate(i * pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		p2, _, err := pt2.Translate(i * pageBytes)
		if err != nil {
			t.Fatal(err)
		}
		for tid, p := range map[int]uint64{1: p1, 2: p2} {
			pfn := p >> m.PageShift()
			if owner, ok := frames[pfn]; ok && owner != tid {
				t.Fatalf("frame %d shared between threads", pfn)
			}
			frames[pfn] = tid
		}
	}
}

func TestRebalanceSpreadsPages(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	// Confine 8 pages to one color, then widen the mask to four colors.
	if err := pt.SetMask(ColorSetOf(16, 0)); err != nil {
		t.Fatal(err)
	}
	pageBytes := uint64(m.Geometry().PageBytes())
	for i := uint64(0); i < 8; i++ {
		pt.Translate(i * pageBytes)
	}
	if err := pt.SetMask(ColorSetOf(16, 0, 1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	moved := pt.Rebalance(100)
	if moved == 0 {
		t.Fatal("rebalance moved nothing")
	}
	h := pt.ColorHistogram()
	for _, c := range []int{0, 1, 2, 3} {
		if h[c] < 1 || h[c] > 3 {
			t.Errorf("color %d holds %d pages after rebalance (%v)", c, h[c], h)
		}
	}
	// Translations still resolve to in-mask colors.
	for i := uint64(0); i < 8; i++ {
		paddr, alloc, err := pt.Translate(i * pageBytes)
		if err != nil || alloc {
			t.Fatalf("translate after rebalance: %v alloc=%v", err, alloc)
		}
		if c := m.FrameColor(paddr >> m.PageShift()); c > 3 {
			t.Errorf("page %d on color %d outside mask", i, c)
		}
	}
}

func TestRebalanceRespectsBudget(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	if err := pt.SetMask(ColorSetOf(16, 0)); err != nil {
		t.Fatal(err)
	}
	pageBytes := uint64(m.Geometry().PageBytes())
	for i := uint64(0); i < 20; i++ {
		pt.Translate(i * pageBytes)
	}
	if err := pt.SetMask(ColorSetOf(16, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if moved := pt.Rebalance(3); moved != 3 {
		t.Errorf("budget ignored: moved %d, want 3", moved)
	}
}

func TestRebalanceNoopCases(t *testing.T) {
	m := testMapper()
	pt := NewPageTable(m, NewAllocator(m))
	if got := pt.Rebalance(0); got != 0 {
		t.Error("zero budget moved pages")
	}
	if err := pt.SetMask(ColorSetOf(16, 5)); err != nil {
		t.Fatal(err)
	}
	pt.Translate(0)
	// Single-color mask: nothing to balance.
	if got := pt.Rebalance(10); got != 0 {
		t.Errorf("single-color rebalance moved %d", got)
	}
	// Already balanced: no movement.
	if err := pt.SetMask(ColorSetOf(16, 5, 6)); err != nil {
		t.Fatal(err)
	}
	pt.Translate(uint64(m.Geometry().PageBytes()))
	pt.Rebalance(10)
	before := pt.PagesMigrated
	pt.Rebalance(10)
	if pt.PagesMigrated != before {
		t.Error("balanced table kept migrating")
	}
}

// TestTranslateMemoMatchesMap is a differential test of the translation
// memo: one page table serves Translate through its memo, a reference twin
// has its memo emptied before every lookup, so it translates through the
// plain map alone. Both see the same random sequence of translations (over
// more pages than the memo has slots, so slots conflict), mask changes,
// migrations, rebalances, snapshots and restores of an earlier snapshot,
// and must agree on every physical address, first-touch report and page
// counter.
func TestTranslateMemoMatchesMap(t *testing.T) {
	m := testMapper()
	colors := m.Geometry().NumColors()
	alloc, refAlloc := NewAllocator(m), NewAllocator(m)
	pt, ref := NewPageTable(m, alloc), NewPageTable(m, refAlloc)
	rng := rand.New(rand.NewSource(5))
	const pages = 3 * memoSize
	var saved *[2]struct {
		a AllocatorState
		p PageTableState
	}
	for op := 0; op < 20000; op++ {
		switch k := rng.Intn(100); {
		case k < 85:
			va := uint64(rng.Intn(pages))<<m.PageShift() | uint64(rng.Intn(1<<m.PageShift()))
			pa, allocated, err := pt.Translate(va)
			ref.memo = [memoSize]memoSlot{}
			rpa, rallocated, rerr := ref.Translate(va)
			if pa != rpa || allocated != rallocated || (err == nil) != (rerr == nil) {
				t.Fatalf("op %d: Translate(%#x) = %#x, %v, %v with the memo; %#x, %v, %v through the map",
					op, va, pa, allocated, err, rpa, rallocated, rerr)
			}
		case k < 90:
			mask := NewColorSet(colors)
			for mask.Empty() {
				for c := 0; c < colors; c++ {
					if rng.Intn(3) == 0 {
						mask.Add(c)
					}
				}
			}
			if err := pt.SetMask(mask); err != nil {
				t.Fatal(err)
			}
			if err := ref.SetMask(mask); err != nil {
				t.Fatal(err)
			}
		case k < 95:
			n := rng.Intn(8)
			if got, want := pt.Migrate(n)+pt.Rebalance(n), ref.Migrate(n)+ref.Rebalance(n); got != want {
				t.Fatalf("op %d: moved %d pages with the memo, %d through the map", op, got, want)
			}
		case k < 97:
			saved = &[2]struct {
				a AllocatorState
				p PageTableState
			}{{alloc.Snapshot(), pt.Snapshot()}, {refAlloc.Snapshot(), ref.Snapshot()}}
		default:
			// Both tables go back to the last snapshot; the memoised one
			// has translated, migrated and rebalanced since.
			if saved == nil {
				continue
			}
			for i, tbl := range []struct {
				a  *Allocator
				pt *PageTable
			}{{alloc, pt}, {refAlloc, ref}} {
				if err := tbl.a.Restore(saved[i].a); err != nil {
					t.Fatal(err)
				}
				if err := tbl.pt.Restore(saved[i].p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if pt.PagesAllocated != ref.PagesAllocated || pt.PagesMigrated != ref.PagesMigrated {
			t.Fatalf("op %d: counters allocated/migrated %d/%d with the memo, %d/%d through the map",
				op, pt.PagesAllocated, pt.PagesMigrated, ref.PagesAllocated, ref.PagesMigrated)
		}
	}
	if pt.PagesMigrated == 0 {
		t.Fatal("the sequence never migrated a page; the memo's coherence went untested")
	}
}
