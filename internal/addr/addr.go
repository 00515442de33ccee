// Package addr defines DRAM geometry and the physical-address mapping used
// by the simulator.
//
// The mapping is the page-interleaved layout common to the OS
// page-coloring / bank-partitioning literature: the page offset covers the
// column bits, and the channel, rank and bank bits sit directly above it,
// inside the page-frame number:
//
//	physical address = | row | bank | rank | channel | page offset |
//
// With 4 KiB pages and 4 KiB rows, one page occupies exactly one row of one
// bank, so the OS allocator fully controls which bank (the page "color")
// every page lands in — the property Dynamic Bank Partitioning depends on.
package addr

import "fmt"

// Geometry describes the DRAM organisation.
type Geometry struct {
	// Channels is the number of independent memory channels.
	Channels int
	// RanksPerChannel is the number of ranks on each channel.
	RanksPerChannel int
	// BanksPerRank is the number of banks in each rank.
	BanksPerRank int
	// RowsPerBank is the number of rows in each bank.
	RowsPerBank int
	// ColumnsPerRow is the number of line-sized columns in a row.
	ColumnsPerRow int
	// LineBytes is the size of one column / cache line in bytes.
	LineBytes int
}

// DefaultGeometry is the paper-style baseline: 2 channels, 1 rank/channel,
// 8 banks/rank (16 bank colors), 64K rows of 4 KiB (64 × 64 B columns),
// 4 GiB total.
func DefaultGeometry() Geometry {
	return Geometry{
		Channels:        2,
		RanksPerChannel: 1,
		BanksPerRank:    8,
		RowsPerBank:     1 << 16,
		ColumnsPerRow:   64,
		LineBytes:       64,
	}
}

// Validate reports whether every field is a usable power of two (rows and
// channels may be any positive value; the fields that form address bit
// fields must be powers of two).
func (g Geometry) Validate() error {
	check := func(name string, v int) error {
		if v <= 0 {
			return fmt.Errorf("addr: %s must be positive, got %d", name, v)
		}
		if v&(v-1) != 0 {
			return fmt.Errorf("addr: %s must be a power of two, got %d", name, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"Channels", g.Channels},
		{"RanksPerChannel", g.RanksPerChannel},
		{"BanksPerRank", g.BanksPerRank},
		{"RowsPerBank", g.RowsPerBank},
		{"ColumnsPerRow", g.ColumnsPerRow},
		{"LineBytes", g.LineBytes},
	} {
		if err := check(f.name, f.v); err != nil {
			return err
		}
	}
	return nil
}

// NumColors returns the number of page colors: channels × ranks × banks.
func (g Geometry) NumColors() int {
	return g.Channels * g.RanksPerChannel * g.BanksPerRank
}

// RowBytes returns the size of one row (and, by construction, one page).
func (g Geometry) RowBytes() int { return g.ColumnsPerRow * g.LineBytes }

// PageBytes returns the page size, equal to the row size in this mapping.
func (g Geometry) PageBytes() int { return g.RowBytes() }

// TotalBytes returns the capacity of the modelled memory.
func (g Geometry) TotalBytes() uint64 {
	return uint64(g.NumColors()) * uint64(g.RowsPerBank) * uint64(g.RowBytes())
}

// NumFrames returns the number of physical page frames.
func (g Geometry) NumFrames() uint64 {
	return uint64(g.NumColors()) * uint64(g.RowsPerBank)
}

// Location identifies one column in the DRAM system.
type Location struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Column  int
}

// BankID flattens (channel, rank, bank) into a global bank index in
// [0, NumColors): the page color.
func (g Geometry) BankID(channel, rank, bank int) int {
	return (channel*g.RanksPerChannel+rank)*g.BanksPerRank + bank
}

// ColorOf returns the global bank index of a location.
func (g Geometry) ColorOf(loc Location) int {
	return g.BankID(loc.Channel, loc.Rank, loc.Bank)
}

// ColorParts splits a global color back into (channel, rank, bank).
func (g Geometry) ColorParts(color int) (channel, rank, bank int) {
	bank = color % g.BanksPerRank
	color /= g.BanksPerRank
	rank = color % g.RanksPerChannel
	channel = color / g.RanksPerChannel
	return channel, rank, bank
}

// Scheme selects the physical-address layout.
type Scheme int

// Address-mapping schemes.
const (
	// SchemePageInterleave is the page-coloring layout (default):
	// | row | bank | rank | channel | page offset |. Required by every
	// partitioning policy, since the OS controls placement per page.
	SchemePageInterleave Scheme = iota
	// SchemeLineInterleave spreads consecutive cache lines across channels:
	// | row | bank | rank | column | channel | line offset |. Maximum
	// single-stream bandwidth, but pages span channels, so OS page coloring
	// cannot steer placement — valid only without partitioning.
	SchemeLineInterleave
	// SchemeXORBank is page-interleaved with a permutation-based bank index
	// (Zhang et al., MICRO 2000): bank = rawBank XOR low row bits. It
	// spreads row-conflict hot spots while keeping placement a pure
	// function of the frame number, so page coloring still composes.
	SchemeXORBank
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case SchemePageInterleave:
		return "page-interleave"
	case SchemeLineInterleave:
		return "line-interleave"
	case SchemeXORBank:
		return "xor-bank"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// SupportsColoring reports whether OS page coloring can steer placement
// under this scheme (a partitioning prerequisite).
func (s Scheme) SupportsColoring() bool { return s != SchemeLineInterleave }

// Mapper translates physical addresses to DRAM locations and back.
type Mapper struct {
	g          Geometry
	scheme     Scheme
	lineShift  uint
	colMask    uint64
	pageShift  uint
	chanMask   uint64
	chanShift  uint
	rankMask   uint64
	rankShift  uint
	bankMask   uint64
	bankShift  uint
	rowShift   uint
	maxAddress uint64
}

// NewMapper builds a page-interleaved Mapper for the geometry. It panics if
// the geometry is invalid; callers construct geometries from validated
// configs.
func NewMapper(g Geometry) *Mapper {
	return NewMapperScheme(g, SchemePageInterleave)
}

// NewMapperScheme builds a Mapper with an explicit address-mapping scheme.
func NewMapperScheme(g Geometry, scheme Scheme) *Mapper {
	if err := g.Validate(); err != nil {
		panic(err)
	}
	m := &Mapper{g: g, scheme: scheme}
	m.lineShift = log2(uint64(g.LineBytes))
	m.colMask = uint64(g.ColumnsPerRow - 1)
	m.pageShift = m.lineShift + log2(uint64(g.ColumnsPerRow))
	m.chanShift = m.pageShift
	m.chanMask = uint64(g.Channels - 1)
	m.rankShift = m.chanShift + log2(uint64(g.Channels))
	m.rankMask = uint64(g.RanksPerChannel - 1)
	m.bankShift = m.rankShift + log2(uint64(g.RanksPerChannel))
	m.bankMask = uint64(g.BanksPerRank - 1)
	m.rowShift = m.bankShift + log2(uint64(g.BanksPerRank))
	m.maxAddress = g.TotalBytes()
	return m
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Geometry returns the geometry the mapper was built for.
func (m *Mapper) Geometry() Geometry { return m.g }

// Scheme returns the mapper's address-mapping scheme.
func (m *Mapper) Scheme() Scheme { return m.scheme }

// PageShift returns the number of page-offset bits.
func (m *Mapper) PageShift() uint { return m.pageShift }

// Decode splits a physical address into its DRAM location. Addresses wrap
// modulo the memory capacity so synthetic traces never fall off the end.
func (m *Mapper) Decode(phys uint64) Location {
	phys %= m.maxAddress
	switch m.scheme {
	case SchemeLineInterleave:
		// | row | bank | rank | column | channel | line offset |
		x := phys >> m.lineShift
		loc := Location{Channel: int(x & m.chanMask)}
		x >>= log2(uint64(m.g.Channels))
		loc.Column = int(x & m.colMask)
		x >>= log2(uint64(m.g.ColumnsPerRow))
		loc.Rank = int(x & m.rankMask)
		x >>= log2(uint64(m.g.RanksPerChannel))
		loc.Bank = int(x & m.bankMask)
		x >>= log2(uint64(m.g.BanksPerRank))
		loc.Row = int(x)
		return loc
	case SchemeXORBank:
		loc := m.decodePage(phys)
		loc.Bank ^= loc.Row & int(m.bankMask)
		return loc
	default:
		return m.decodePage(phys)
	}
}

func (m *Mapper) decodePage(phys uint64) Location {
	return Location{
		Column:  int((phys >> m.lineShift) & m.colMask),
		Channel: int((phys >> m.chanShift) & m.chanMask),
		Rank:    int((phys >> m.rankShift) & m.rankMask),
		Bank:    int((phys >> m.bankShift) & m.bankMask),
		Row:     int(phys >> m.rowShift),
	}
}

// Encode composes a physical address from a DRAM location (inverse of
// Decode for in-range locations).
func (m *Mapper) Encode(loc Location) uint64 {
	switch m.scheme {
	case SchemeLineInterleave:
		x := uint64(loc.Row)
		x = x<<log2(uint64(m.g.BanksPerRank)) | uint64(loc.Bank)
		x = x<<log2(uint64(m.g.RanksPerChannel)) | uint64(loc.Rank)
		x = x<<log2(uint64(m.g.ColumnsPerRow)) | uint64(loc.Column)
		x = x<<log2(uint64(m.g.Channels)) | uint64(loc.Channel)
		return x << m.lineShift
	case SchemeXORBank:
		l := loc
		l.Bank = loc.Bank ^ (loc.Row & int(m.bankMask))
		return m.encodePage(l)
	default:
		return m.encodePage(loc)
	}
}

func (m *Mapper) encodePage(loc Location) uint64 {
	return uint64(loc.Row)<<m.rowShift |
		uint64(loc.Bank)<<m.bankShift |
		uint64(loc.Rank)<<m.rankShift |
		uint64(loc.Channel)<<m.chanShift |
		uint64(loc.Column)<<m.lineShift
}

// FrameColor returns the page color (global bank index) of a physical frame
// number: the low bits of the PFN directly encode (channel, rank, bank).
func (m *Mapper) FrameColor(pfn uint64) int {
	phys := pfn << m.pageShift
	loc := m.Decode(phys)
	return m.g.ColorOf(loc)
}

// FrameOfColor composes the physical frame number of the idx-th frame with
// the given color. idx selects the row within the colored bank.
func (m *Mapper) FrameOfColor(color int, idx uint64) uint64 {
	ch, rk, bk := m.g.ColorParts(color)
	loc := Location{Channel: ch, Rank: rk, Bank: bk, Row: int(idx % uint64(m.g.RowsPerBank))}
	return m.Encode(loc) >> m.pageShift
}

// FramesPerColor returns how many frames exist of each color.
func (m *Mapper) FramesPerColor() uint64 { return uint64(m.g.RowsPerBank) }
