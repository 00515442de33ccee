// Package cache implements set-associative write-back, write-allocate
// caches with LRU replacement, used for the per-core private L1D and L2 in
// front of the DRAM system.
//
// The model is functional (hit/miss/writeback), not timed: access latencies
// are charged by the core model, and only misses and writebacks generate
// DRAM traffic.
package cache

import "fmt"

// Config describes one cache level.
type Config struct {
	// Name labels the cache in stats output (e.g. "L1D").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// LineBytes is the cache-line size.
	LineBytes int
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineBytes <= 0 {
		return fmt.Errorf("cache %s: all sizes must be positive (%+v)", c.Name, c)
	}
	if c.SizeBytes%(c.Ways*c.LineBytes) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by ways*line %d", c.Name, c.SizeBytes, c.Ways*c.LineBytes)
	}
	sets := c.SizeBytes / (c.Ways * c.LineBytes)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d must be a power of two", c.Name, sets)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d must be a power of two", c.Name, c.LineBytes)
	}
	return nil
}

// line is one cache line packed into two words: key is tag<<1|valid and
// stamp is used<<1|dirty, where used is the LRU timestamp. Every access
// stamps its line with a fresh clock value, so the valid lines of a set
// carry distinct used times and their stamps order exactly as those times
// do.
type line struct {
	key   uint64
	stamp uint64
}

func (l line) valid() bool  { return l.key&1 != 0 }
func (l line) dirty() bool  { return l.stamp&1 != 0 }
func (l line) tag() uint64  { return l.key >> 1 }
func (l line) used() uint64 { return l.stamp >> 1 }

func packLine(tag uint64, valid, dirty bool, used uint64) line {
	return line{key: tag<<1 | b2u(valid), stamp: used<<1 | b2u(dirty)}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Stats holds access counters for one cache.
type Stats struct {
	ReadHits    uint64
	ReadMisses  uint64
	WriteHits   uint64
	WriteMisses uint64
	Evictions   uint64
	Writebacks  uint64
}

// Accesses returns the total access count.
func (s Stats) Accesses() uint64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// Misses returns the total miss count.
func (s Stats) Misses() uint64 { return s.ReadMisses + s.WriteMisses }

// MissRate returns misses/accesses (0 when idle).
func (s Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses()) / float64(a)
}

// Result describes the outcome of one access.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// Writeback is true when a dirty victim was evicted; WritebackAddr is
	// the victim's line-aligned byte address.
	Writeback     bool
	WritebackAddr uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg       Config
	lines     []line // sets × ways, set-major
	ways      int
	setMask   uint64
	lineShift uint
	tagShift  uint // log2 of the set count
	clock     uint64
	stats     Stats
}

// New builds a cache from the config.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	c := &Cache{cfg: cfg, ways: cfg.Ways, setMask: uint64(numSets - 1)}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		c.lineShift++
	}
	for n := numSets; n > 1; n >>= 1 {
		c.tagShift++
	}
	c.lines = make([]line, numSets*cfg.Ways)
	return c, nil
}

// set returns the ways of set idx.
func (c *Cache) set(idx uint64) []line {
	i := int(idx) * c.ways
	return c.lines[i : i+c.ways : i+c.ways]
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Access looks up the line containing addr, allocating it on miss
// (write-allocate). isWrite marks the line dirty on hit or after allocation.
func (c *Cache) Access(addr uint64, isWrite bool) Result {
	c.clock++
	lineAddr := addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	set := c.set(setIdx)
	key := lineAddr>>c.tagShift<<1 | 1
	stamp := c.clock << 1

	for i := range set {
		if set[i].key == key {
			if isWrite {
				set[i].stamp = stamp | 1
				c.stats.WriteHits++
			} else {
				set[i].stamp = stamp | set[i].stamp&1
				c.stats.ReadHits++
			}
			return Result{Hit: true}
		}
	}

	if isWrite {
		c.stats.WriteMisses++
	} else {
		c.stats.ReadMisses++
	}

	// Choose a victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].valid() {
			victim = i
			break
		}
		if set[i].stamp < set[victim].stamp {
			victim = i
		}
	}

	var res Result
	if v := set[victim]; v.valid() {
		c.stats.Evictions++
		if v.dirty() {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = c.rebuildAddr(v.tag(), setIdx)
		}
	}
	set[victim] = line{key: key, stamp: stamp | b2u(isWrite)}
	return res
}

// Contains reports whether the line holding addr is present (no LRU update).
func (c *Cache) Contains(addr uint64) bool {
	lineAddr := addr >> c.lineShift
	key := lineAddr>>c.tagShift<<1 | 1
	for _, l := range c.set(lineAddr & c.setMask) {
		if l.key == key {
			return true
		}
	}
	return false
}

// rebuildAddr reconstructs a line-aligned byte address from tag and set.
func (c *Cache) rebuildAddr(tag, setIdx uint64) uint64 {
	return (tag<<c.tagShift | setIdx) << c.lineShift
}

// Hierarchy chains an L1 and L2; misses in L1 look up L2, L1 writebacks are
// installed into L2, and L2 misses/writebacks surface as memory traffic.
type Hierarchy struct {
	L1 *Cache
	L2 *Cache

	// ops is the scratch buffer Access and PrefetchL2 return slices of, so
	// the per-access hot path never allocates. One access yields at most a
	// handful of ops (demand fill + victim writebacks), so the buffer never
	// grows past its initial capacity in practice.
	ops []MemoryOp
}

// MemoryOp is a DRAM access produced by a hierarchy miss.
type MemoryOp struct {
	// Addr is the line-aligned byte address.
	Addr uint64
	// IsWrite is true for writebacks reaching memory.
	IsWrite bool
	// Demand is true for the miss fill itself (the op the core waits on);
	// false for writebacks.
	Demand bool
}

// NewHierarchy builds a two-level private hierarchy.
func NewHierarchy(l1, l2 Config) (*Hierarchy, error) {
	c1, err := New(l1)
	if err != nil {
		return nil, err
	}
	c2, err := New(l2)
	if err != nil {
		return nil, err
	}
	if l1.LineBytes != l2.LineBytes {
		return nil, fmt.Errorf("cache: L1 line %d != L2 line %d", l1.LineBytes, l2.LineBytes)
	}
	return &Hierarchy{L1: c1, L2: c2, ops: make([]MemoryOp, 0, 8)}, nil
}

// Access runs one data access through the hierarchy. It returns the memory
// operations that must reach DRAM: at most one demand fill and any
// writebacks, in issue order. hitLevel is 1, 2 or 3 (3 = memory).
//
// The returned slice aliases an internal scratch buffer: it is valid only
// until the next Access or PrefetchL2 call and must not be retained.
func (h *Hierarchy) Access(addr uint64, isWrite bool) (ops []MemoryOp, hitLevel int) {
	ops = h.ops[:0]
	r1 := h.L1.Access(addr, isWrite)
	if r1.Writeback {
		// Dirty L1 victim lands in L2 (write-allocate there too).
		r2 := h.L2.Access(r1.WritebackAddr, true)
		if r2.Writeback {
			ops = append(ops, MemoryOp{Addr: r2.WritebackAddr, IsWrite: true})
		}
		if !r2.Hit {
			// Allocating the victim line in L2 fetches it first.
			ops = append(ops, MemoryOp{Addr: r1.WritebackAddr, IsWrite: false})
		}
	}
	if r1.Hit {
		return ops, 1
	}
	r2 := h.L2.Access(addr, false) // fill is a read; dirtiness stays in L1
	if r2.Writeback {
		ops = append(ops, MemoryOp{Addr: r2.WritebackAddr, IsWrite: true})
	}
	if r2.Hit {
		return ops, 2
	}
	ops = append(ops, MemoryOp{Addr: addr &^ uint64(h.L1.cfg.LineBytes-1), IsWrite: false, Demand: true})
	return ops, 3
}

// PrefetchL2 brings the line holding addr into the L2 without touching the
// L1 (prefetches fill the larger level to limit pollution). It returns the
// memory operations the fill generates — at most one non-demand read plus a
// victim writeback — and filled=false when the line was already cached.
// The returned slice aliases the same scratch buffer as Access and is valid
// only until the next Access or PrefetchL2 call.
func (h *Hierarchy) PrefetchL2(addr uint64) (ops []MemoryOp, filled bool) {
	if h.L1.Contains(addr) || h.L2.Contains(addr) {
		return nil, false
	}
	ops = h.ops[:0]
	r := h.L2.Access(addr, false)
	if r.Writeback {
		ops = append(ops, MemoryOp{Addr: r.WritebackAddr, IsWrite: true})
	}
	ops = append(ops, MemoryOp{Addr: addr &^ uint64(h.L1.cfg.LineBytes-1), IsWrite: false})
	return ops, true
}
