package cache

import "fmt"

// Shared is a thread-aware shared last-level cache with way partitioning:
// any thread may *hit* on any way, but a thread may only *allocate* into
// the ways its mask permits — the standard way-partitioning semantics used
// by utility-based cache partitioning (UCP, Qureshi & Patt, MICRO 2006).
//
// The LLC is an optional system component (sim.Config.L3): bank
// partitioning and cache partitioning are analogous mechanisms at
// different levels, and the llc experiment studies their composition.
type Shared struct {
	cfg       Config
	sets      [][]sline
	setMask   uint64
	lineShift uint
	tagShift  uint // log2 of the set count
	clock     uint64

	// wayMask[t] is a bitmask of ways thread t may allocate into.
	wayMask []uint64

	perThread []SharedStats
	umons     []*UMON
}

type sline struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64
	owner int
}

// SharedStats counts one thread's shared-cache behaviour.
type SharedStats struct {
	Hits   uint64
	Misses uint64
}

// NewShared builds a shared cache for `threads` threads; every thread may
// initially allocate anywhere. When umonSets > 0, a UMON utility monitor
// samples every umonSets-th set per thread.
func NewShared(cfg Config, threads, umonSets int) (*Shared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if threads <= 0 {
		return nil, fmt.Errorf("cache: shared cache needs positive threads, got %d", threads)
	}
	if cfg.Ways > 64 {
		return nil, fmt.Errorf("cache: way masks support at most 64 ways, got %d", cfg.Ways)
	}
	numSets := cfg.SizeBytes / (cfg.Ways * cfg.LineBytes)
	s := &Shared{
		cfg:       cfg,
		setMask:   uint64(numSets - 1),
		wayMask:   make([]uint64, threads),
		perThread: make([]SharedStats, threads),
	}
	for l := cfg.LineBytes; l > 1; l >>= 1 {
		s.lineShift++
	}
	for n := numSets; n > 1; n >>= 1 {
		s.tagShift++
	}
	s.sets = make([][]sline, numSets)
	backing := make([]sline, numSets*cfg.Ways)
	for i := range s.sets {
		s.sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	full := fullWayMask(cfg.Ways)
	for t := range s.wayMask {
		s.wayMask[t] = full
	}
	if umonSets > 0 {
		s.umons = make([]*UMON, threads)
		for t := range s.umons {
			s.umons[t] = NewUMON(cfg.Ways, numSets, umonSets)
		}
	}
	return s, nil
}

func fullWayMask(ways int) uint64 {
	if ways >= 64 {
		return ^uint64(0)
	}
	return (1 << uint(ways)) - 1
}

// Config returns the cache configuration.
func (s *Shared) Config() Config { return s.cfg }

// PerThread returns a copy of the per-thread hit/miss counters.
func (s *Shared) PerThread() []SharedStats {
	out := make([]SharedStats, len(s.perThread))
	copy(out, s.perThread)
	return out
}

// UMONOf returns thread t's utility monitor (nil when disabled).
func (s *Shared) UMONOf(t int) *UMON {
	if s.umons == nil || t < 0 || t >= len(s.umons) {
		return nil
	}
	return s.umons[t]
}

// SetWayAllocation installs a contiguous way partition: counts[t] ways per
// thread, assigned left to right. Each thread needs at least one way and
// the counts must not exceed the associativity.
func (s *Shared) SetWayAllocation(counts []int) error {
	if len(counts) != len(s.wayMask) {
		return fmt.Errorf("cache: %d way counts for %d threads", len(counts), len(s.wayMask))
	}
	total := 0
	for t, c := range counts {
		if c < 1 {
			return fmt.Errorf("cache: thread %d assigned %d ways", t, c)
		}
		total += c
	}
	if total > s.cfg.Ways {
		return fmt.Errorf("cache: %d ways assigned, only %d exist", total, s.cfg.Ways)
	}
	start := 0
	for t, c := range counts {
		var m uint64
		for w := start; w < start+c; w++ {
			m |= 1 << uint(w)
		}
		s.wayMask[t] = m
		start += c
	}
	return nil
}

// ClearPartition restores free-for-all allocation.
func (s *Shared) ClearPartition() {
	full := fullWayMask(s.cfg.Ways)
	for t := range s.wayMask {
		s.wayMask[t] = full
	}
}

// Access looks up the line for thread t, allocating on miss within the
// thread's way mask. The result reports hit/miss and any dirty victim.
func (s *Shared) Access(t int, addr uint64, isWrite bool) (Result, bool) {
	if t < 0 || t >= len(s.wayMask) {
		t = 0
	}
	s.clock++
	lineAddr := addr >> s.lineShift
	setIdx := lineAddr & s.setMask
	set := s.sets[setIdx]
	tag := lineAddr >> s.tagShift

	if u := s.umonOf(t); u != nil {
		u.Observe(setIdx, tag)
	}

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].used = s.clock
			if isWrite {
				set[i].dirty = true
			}
			s.perThread[t].Hits++
			return Result{Hit: true}, true
		}
	}
	s.perThread[t].Misses++

	mask := s.wayMask[t]
	victim := -1
	for i := range set {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if !set[i].valid {
			victim = i
			break
		}
		if victim < 0 || set[i].used < set[victim].used {
			victim = i
		}
	}
	if victim < 0 {
		// Degenerate mask (should be prevented by SetWayAllocation);
		// fall back to global LRU rather than corrupting state.
		victim = 0
		for i := range set {
			if !set[i].valid {
				victim = i
				break
			}
			if set[i].used < set[victim].used {
				victim = i
			}
		}
	}

	var res Result
	if set[victim].valid && set[victim].dirty {
		res.Writeback = true
		res.WritebackAddr = ((set[victim].tag << s.tagShift) | setIdx) << s.lineShift
	}
	set[victim] = sline{tag: tag, valid: true, dirty: isWrite, used: s.clock, owner: t}
	return res, false
}

// Contains reports presence without LRU update.
func (s *Shared) Contains(addr uint64) bool {
	lineAddr := addr >> s.lineShift
	set := s.sets[lineAddr&s.setMask]
	tag := lineAddr >> s.tagShift
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true
		}
	}
	return false
}

func (s *Shared) umonOf(t int) *UMON {
	if s.umons == nil {
		return nil
	}
	return s.umons[t]
}
