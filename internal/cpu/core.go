// Package cpu implements the trace-driven core model: a reorder-buffer
// window with bounded issue/retire width and MSHR-limited outstanding
// misses, so memory-level parallelism (and hence each thread's bank-level
// parallelism) emerges from the window exactly as in the paper's simulator.
package cpu

import (
	"fmt"

	"dbpsim/internal/cache"
	"dbpsim/internal/prefetch"
	"dbpsim/internal/trace"
)

// Translator maps virtual to physical addresses (implemented by
// paging.PageTable).
type Translator interface {
	Translate(vaddr uint64) (paddr uint64, allocated bool, err error)
}

// Memory accepts line requests from the core (implemented by the simulation
// kernel, which routes to the right channel controller).
type Memory interface {
	// Submit tries to enqueue a line request; it returns false when the
	// controller queue is full and the core must retry. tag is the core's
	// miss tag for demand reads (0 for posted traffic); it travels with the
	// request, and the memory system calls DemandDone(tag) on the issuing
	// core when the demand read's data transfer completes.
	Submit(thread int, paddr uint64, isWrite, demand bool, tag uint64) bool
}

// Config holds core parameters.
type Config struct {
	// ROBSize is the instruction window size.
	ROBSize int
	// Width is the per-cycle issue and retire width.
	Width int
	// MSHRs bounds outstanding demand misses.
	MSHRs int
	// L1Latency and L2Latency are load-to-use latencies in CPU cycles.
	L1Latency int
	// L2Latency is the L2 hit latency.
	L2Latency int
	// PrefetchDegree enables a stride prefetcher emitting this many
	// candidates per trained access (0 disables prefetching).
	PrefetchDegree int
	// PrefetchTableSize is the stride table size (power of two; defaulted
	// to 64 when PrefetchDegree > 0 and this is 0).
	PrefetchTableSize int
}

// DefaultConfig returns the paper-style core: 128-entry window, 4-wide,
// 16 MSHRs, 4/12-cycle caches.
func DefaultConfig() Config {
	return Config{ROBSize: 128, Width: 4, MSHRs: 16, L1Latency: 4, L2Latency: 12}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ROBSize <= 0 || c.Width <= 0 || c.MSHRs <= 0 {
		return fmt.Errorf("cpu: ROBSize/Width/MSHRs must be positive (%+v)", c)
	}
	if c.L1Latency <= 0 || c.L2Latency < c.L1Latency {
		return fmt.Errorf("cpu: need 0 < L1Latency ≤ L2Latency (%+v)", c)
	}
	if c.PrefetchDegree < 0 {
		return fmt.Errorf("cpu: PrefetchDegree must be non-negative, got %d", c.PrefetchDegree)
	}
	return nil
}

// robEntry keeps readyAt first so the entry packs into 16 bytes.
type robEntry struct {
	readyAt uint64
	done    bool
	isLoad  bool
}

// pendingOp is cache-generated memory traffic waiting for controller space.
type pendingOp struct {
	addr    uint64
	isWrite bool
}

// pendingOpsCap pre-sizes the spill buffer so steady-state bursts never
// allocate; larger transient bursts may grow it and are trimmed back.
const pendingOpsCap = 64

// Stats exposes the core's counters.
type Stats struct {
	// Retired is the number of retired instructions.
	Retired uint64
	// Cycles is the number of ticks executed.
	Cycles uint64
	// MemAccesses counts data accesses (loads + stores).
	MemAccesses uint64
	// DemandMisses counts load misses that reached DRAM.
	DemandMisses uint64
	// StallCycles counts cycles in which nothing retired.
	StallCycles uint64
	// SubmitRetries counts failed Submit attempts (backpressure).
	SubmitRetries uint64
	// PrefetchesIssued counts prefetch fills sent toward memory.
	PrefetchesIssued uint64
}

// IPC returns retired instructions per cycle.
func (s Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Retired) / float64(s.Cycles)
}

// Core is one trace-driven hardware thread.
type Core struct {
	id    int
	cfg   Config
	gen   trace.Generator
	xlate Translator
	hier  *cache.Hierarchy
	mem   Memory

	rob   []robEntry
	head  int
	tail  int
	count int

	// trace cursor
	haveItem bool
	item     trace.Item
	gapLeft  int
	// translated says the current item has been through Translate, so its
	// page is mapped and a retry's Translate is side-effect free. Derived
	// state: not serialised; Restore clears it (one redundant Translate).
	translated bool
	// genCalls counts Next() calls on the trace generator, so a restored
	// core can fast-forward a fresh, identically seeded generator to the
	// same position (generator PRNG state is not serialisable).
	genCalls uint64

	outstandingLoads int // loads currently in the window (for dependence chains)
	demandInFlight   int // MSHR occupancy

	// maxReadyAt is the largest readyAt ever inserted. Once now reaches it
	// (and no demand miss is in flight), every window entry is done and
	// ready, so retirement is purely throughput-limited — the condition the
	// streaming fast path needs. Derived state: not serialised; restore
	// recomputes it from the window.
	maxReadyAt uint64

	pendingOps []pendingOp
	pf         *prefetch.Stride

	// nextTag and missSlots track in-flight demand misses by tag rather
	// than by captured ROB slot, so completions survive snapshot/restore:
	// the memory system carries the tag and calls DemandDone with it.
	nextTag   uint64
	missSlots map[uint64]int

	llc        *cache.Shared
	llcLatency int

	stats Stats
	now   uint64
}

// New builds a core. All collaborators are required.
func New(id int, cfg Config, gen trace.Generator, xlate Translator, hier *cache.Hierarchy, mem Memory) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if gen == nil || xlate == nil || hier == nil || mem == nil {
		return nil, fmt.Errorf("cpu: nil collaborator for core %d", id)
	}
	core := &Core{
		id:         id,
		cfg:        cfg,
		gen:        gen,
		xlate:      xlate,
		hier:       hier,
		mem:        mem,
		rob:        make([]robEntry, cfg.ROBSize),
		pendingOps: make([]pendingOp, 0, pendingOpsCap),
		nextTag:    1,
		missSlots:  make(map[uint64]int),
	}
	if cfg.PrefetchDegree > 0 {
		size := cfg.PrefetchTableSize
		if size == 0 {
			size = 64
		}
		pf, err := prefetch.NewStride(size, cfg.PrefetchDegree)
		if err != nil {
			return nil, err
		}
		core.pf = pf
	}
	return core, nil
}

// ID returns the core's index.
func (c *Core) ID() int { return c.id }

// AttachLLC connects an optional shared last-level cache between the
// private hierarchy and memory; latency is the L3 hit latency in CPU
// cycles. Call before the first Tick.
func (c *Core) AttachLLC(llc *cache.Shared, latency int) {
	c.llc = llc
	c.llcLatency = latency
}

// Stats returns a copy of the counters.
func (c *Core) Stats() Stats { return c.stats }

// Hierarchy returns the core's private cache hierarchy.
func (c *Core) Hierarchy() *cache.Hierarchy { return c.hier }

// Retired returns the retired-instruction count (for quantum profiling).
func (c *Core) Retired() uint64 { return c.stats.Retired }

// DemandMisses returns the DRAM-level load miss count.
func (c *Core) DemandMisses() uint64 { return c.stats.DemandMisses }

// Tick advances the core by one CPU cycle. It returns an error only for
// unrecoverable conditions (page allocation failure).
func (c *Core) Tick() error {
	now := c.now
	c.now++
	c.stats.Cycles++
	width, size := c.cfg.Width, len(c.rob)

	// Retire in order, up to Width.
	head, count, retired := c.head, c.count, 0
	for retired < width && count > 0 {
		e := &c.rob[head]
		if !e.done || e.readyAt > now {
			break
		}
		if e.isLoad {
			c.outstandingLoads--
		}
		if head++; head == size {
			head = 0
		}
		count--
		retired++
	}
	c.head, c.count = head, count
	c.stats.Retired += uint64(retired)
	if retired == 0 {
		c.stats.StallCycles++
	}

	// Retry spilled cache traffic before generating more.
	if len(c.pendingOps) > 0 {
		c.flushPendingOps()
	}

	// Fill up to Width new instructions.
	for filled := 0; filled < width && c.count < size; {
		if !c.haveItem {
			c.item = c.gen.Next()
			c.genCalls++
			c.gapLeft = c.item.Gap
			c.haveItem = true
			c.translated = false
		}
		if c.gapLeft > 0 {
			// This cycle's share of the gap run, inserted in one go.
			n := min(c.gapLeft, width-filled, size-c.count)
			c.insertGaps(n, now+1)
			c.gapLeft -= n
			filled += n
			continue
		}
		// Backpressure: don't start new accesses while spilled traffic
		// waits, so cache-order reaches the controllers.
		if len(c.pendingOps) > 0 {
			break
		}
		if c.item.Dependent && c.outstandingLoads > 0 {
			break // serialised pointer chase
		}
		ok, err := c.issueMemAccess(now)
		if err != nil {
			return err
		}
		if !ok {
			break // MSHRs or controller full; retry next cycle
		}
		c.haveItem = false
		filled++
	}
	return nil
}

// insertGaps inserts n done non-memory entries that become ready at
// readyAt.
func (c *Core) insertGaps(n int, readyAt uint64) {
	if readyAt > c.maxReadyAt {
		c.maxReadyAt = readyAt
	}
	tail := c.tail
	for ; n > 0; n-- {
		c.rob[tail] = robEntry{done: true, readyAt: readyAt}
		if tail++; tail == len(c.rob) {
			tail = 0
		}
		c.count++
	}
	c.tail = tail
}

func (c *Core) insert(e robEntry) {
	if e.readyAt > c.maxReadyAt {
		c.maxReadyAt = e.readyAt
	}
	c.rob[c.tail] = e
	if c.tail++; c.tail == len(c.rob) {
		c.tail = 0
	}
	c.count++
}

func (c *Core) flushPendingOps() {
	sent := 0
	for sent < len(c.pendingOps) {
		op := c.pendingOps[sent]
		if !c.mem.Submit(c.id, op.addr, op.isWrite, false, 0) {
			c.stats.SubmitRetries++
			break
		}
		sent++
	}
	if sent > 0 {
		// Order-preserving compaction in place: the backing array (pre-sized
		// at construction) is reused instead of resliced away.
		n := copy(c.pendingOps, c.pendingOps[sent:])
		c.pendingOps = c.pendingOps[:n]
	}
	if len(c.pendingOps) == 0 && cap(c.pendingOps) > pendingOpsCap {
		// Don't let a burst pin a large backing array.
		c.pendingOps = make([]pendingOp, 0, pendingOpsCap)
	}
}

// issueMemAccess runs the current item through translation and the caches,
// submitting any DRAM traffic. It reports ok=false when the access must be
// retried next cycle.
func (c *Core) issueMemAccess(now uint64) (ok bool, err error) {
	it := c.item
	paddr, _, err := c.xlate.Translate(it.Addr)
	if err != nil {
		return false, fmt.Errorf("cpu: core %d translate %#x: %w", c.id, it.Addr, err)
	}
	c.translated = true
	// A load miss needs an MSHR before we commit the cache state change.
	// Peek: we can't know hit/miss without accessing, and the cache access
	// mutates state, so gate conservatively on MSHR availability for loads.
	if !it.IsWrite && c.demandInFlight >= c.cfg.MSHRs {
		return false, nil
	}

	ops, hitLevel := c.hier.Access(paddr, it.IsWrite)
	c.stats.MemAccesses++

	var entry robEntry
	switch {
	case it.IsWrite:
		// Stores retire from a store buffer: one cycle.
		entry = robEntry{done: true, readyAt: now + 1}
	case hitLevel == 1:
		entry = robEntry{done: true, readyAt: now + uint64(c.cfg.L1Latency), isLoad: true}
	case hitLevel == 2:
		entry = robEntry{done: true, readyAt: now + uint64(c.cfg.L2Latency), isLoad: true}
	default:
		entry = robEntry{isLoad: true}
	}

	for _, op := range ops {
		if op.Demand && !it.IsWrite {
			// The load's own fill. A shared LLC, when attached, may
			// satisfy it without DRAM.
			if c.llc != nil {
				wb, hit := c.llc.Access(c.id, op.Addr, false)
				if wb.Writeback {
					c.post(wb.WritebackAddr, true)
				}
				if hit {
					entry = robEntry{done: true, readyAt: now + uint64(c.llcLatency), isLoad: true}
					continue
				}
			}
			slot := c.tail // entry inserted below lands here
			tag := c.nextTag
			c.nextTag++
			c.missSlots[tag] = slot
			c.demandInFlight++
			c.stats.DemandMisses++
			// The memory system calls DemandDone(tag) on completion; no
			// per-miss closure is captured (the old per-miss func() was a
			// steady-state heap allocation).
			submitted := c.mem.Submit(c.id, op.Addr, false, true, tag)
			if !submitted {
				// Roll back the MSHR; the cache already allocated the
				// line, but re-access next cycle will simply hit — model
				// it as a retry with the line present (an L2 hit), which
				// slightly underestimates the miss penalty only under
				// extreme backpressure.
				delete(c.missSlots, tag)
				c.nextTag--
				c.demandInFlight--
				c.stats.DemandMisses--
				c.stats.SubmitRetries++
				return false, nil
			}
		} else {
			// Posted traffic: writebacks, store fills — routed through the
			// LLC when one is attached.
			c.routePosted(op.Addr, op.IsWrite)
		}
	}
	if entry.isLoad {
		c.outstandingLoads++
	}
	c.insert(entry)
	c.maybePrefetch(paddr, it.IsWrite)
	return true, nil
}

// NeverEvent marks a core that can only be woken externally (by a memory
// completion calling DemandDone).
const NeverEvent = ^uint64(0)

// streaming reports whether the core is in a deterministic compute-streaming
// state: every instruction it will touch for at least one full cycle is a
// gap (non-memory) instruction, nothing is in flight, and the window holds
// at least Width retirable entries. In this state Tick's behaviour is
// exactly linear — retire Width, insert Width done gap entries, no cache,
// trace-generator or memory interaction — so a whole stretch of cycles can
// be applied in bulk by Skip. The conditions mirror Tick:
//   - no spilled traffic to retry (flushPendingOps is a no-op);
//   - no demand miss in flight (demandInFlight == 0 means every window entry
//     is done — completed hit loads may still sit in the window) and every
//     entry is already ready (now >= maxReadyAt), so the retire loop is
//     purely throughput-limited at exactly Width per cycle;
//   - the fill loop inserts Width gap entries (haveItem, gapLeft >= Width)
//     without consulting the generator or the caches;
//   - count >= Width so the retire loop never drains the window dry.
func (c *Core) streaming() bool {
	return len(c.pendingOps) == 0 &&
		c.demandInFlight == 0 &&
		c.now >= c.maxReadyAt &&
		c.haveItem &&
		c.gapLeft >= c.cfg.Width &&
		c.count >= c.cfg.Width
}

// NextEvent returns the earliest CPU cycle >= now at which Tick would do
// something Skip cannot replicate, plus the core's deterministic retire
// rate over the window [now, event): 0 when the core is stalled (Retired
// frozen until event), Width when it is streaming pure compute at full
// width (Retired advances by Width each cycle). Returning the current cycle
// means "active: tick me every cycle". The event-driven skipping fast path
// in the simulation kernel uses it to jump over provably replayable cycles;
// the quiescence conditions below mirror Tick exactly — a stalled cycle is
// skippable only if the retire loop cannot retire (head not done or not
// ready), there is no spilled traffic to retry, and the fill loop would
// break before mutating anything (ROB full, serialised pointer chase, or
// the MSHR gate in issueMemAccess). The MSHR gate counts only once the
// current item has been translated: before that, the next Tick would still
// first-touch-allocate its page ahead of the gate, and allocation timing
// must not move across a repartition or another core's allocation.
func (c *Core) NextEvent() (event, retireRate uint64) {
	if c.streaming() {
		// Full-width compute until the current gap run can no longer feed a
		// whole cycle's worth of inserts.
		return c.now + uint64(c.gapLeft/c.cfg.Width), uint64(c.cfg.Width)
	}
	if len(c.pendingOps) > 0 || c.count == 0 {
		return c.now, 0
	}
	head := &c.rob[c.head]
	if head.done && head.readyAt <= c.now {
		return c.now, 0 // retirable this cycle
	}
	fillBlocked := c.count == len(c.rob) ||
		(c.haveItem && c.gapLeft == 0 &&
			((c.item.Dependent && c.outstandingLoads > 0) ||
				(c.translated && !c.item.IsWrite && c.demandInFlight >= c.cfg.MSHRs)))
	if !fillBlocked {
		return c.now, 0
	}
	if head.done {
		return head.readyAt, 0 // fixed-latency load completes then
	}
	return NeverEvent, 0 // waiting on DRAM; the controller's events bound this
}

// PendingTranslate returns the virtual address a next Tick that retires
// nothing would pass to Translate: ok when the trace cursor sits on a memory
// access and nothing ahead of issueMemAccess in the fill loop (a full ROB,
// spilled traffic, a serialised dependent load) stops it first.
func (c *Core) PendingTranslate() (vaddr uint64, ok bool) {
	ok = c.haveItem && c.gapLeft == 0 && c.count < len(c.rob) && len(c.pendingOps) == 0 &&
		!(c.item.Dependent && c.outstandingLoads > 0)
	return c.item.Addr, ok
}

// Skip advances the core by delta cycles in bulk: exactly what delta
// consecutive Ticks would do from the state NextEvent certified. For a
// stalled core that is delta no-op ticks (cycle and stall counters advance,
// nothing else changes). For a streaming core it retires and inserts
// delta*Width gap instructions, reconstructing the ROB ring — including
// each slot's readyAt — byte-for-byte as per-cycle execution would have
// left it, in O(ROBSize) instead of O(delta). Callers must keep delta
// within the window reported by NextEvent.
func (c *Core) Skip(delta uint64) {
	if c.streaming() {
		w := uint64(c.cfg.Width)
		n := delta * w
		size := uint64(len(c.rob))
		// The n retired entries are the first min(n, count) current window
		// entries plus freshly inserted gaps; completed loads among them give
		// up their outstanding slots exactly as Tick's retire loop would.
		if c.outstandingLoads > 0 {
			m := n
			if uint64(c.count) < m {
				m = uint64(c.count)
			}
			for j := uint64(0); j < m; j++ {
				if c.rob[(uint64(c.head)+j)%size].isLoad {
					c.outstandingLoads--
				}
			}
		}
		// Insertion j (0-based) happens in cycle now + j/w and lands at slot
		// (tail+j) mod size. Retired slots are never cleared, so each slot's
		// final content is the last insertion written to it — replaying the
		// last min(n, size) insertions reproduces every touched slot exactly,
		// including the stale bytes of entries retired within the window
		// (which snapshots serialise).
		start := uint64(0)
		if n > size {
			start = n - size
		}
		for j := start; j < n; j++ {
			c.rob[(uint64(c.tail)+j)%size] = robEntry{done: true, readyAt: c.now + j/w + 1}
		}
		// The last gap inserted carries readyAt now+delta, matching what
		// per-cycle inserts would have driven maxReadyAt to.
		if last := c.now + delta; last > c.maxReadyAt {
			c.maxReadyAt = last
		}
		c.head = int((uint64(c.head) + n) % size)
		c.tail = int((uint64(c.tail) + n) % size)
		c.gapLeft -= int(n)
		c.stats.Retired += n
		c.now += delta
		c.stats.Cycles += delta
		return
	}
	c.Stall(delta)
}

// Stall advances a stalled core by n cycles in bulk: exactly what n
// consecutive Ticks that retire and insert nothing would do. The kernel
// applies a sleeping core's cycles this way when it next touches the core.
func (c *Core) Stall(n uint64) {
	c.stats.StallCycles += n
	c.now += n
	c.stats.Cycles += n
}

// Now returns the core's own clock: the number of cycles it has been
// advanced by Tick, Skip and Stall.
func (c *Core) Now() uint64 { return c.now }

// DemandDone completes the demand miss identified by tag: the waiting ROB
// entry becomes retirable and the MSHR frees. The memory system invokes it
// on read completion (or directly after a snapshot restore); unknown tags
// are ignored.
func (c *Core) DemandDone(tag uint64) {
	slot, ok := c.missSlots[tag]
	if !ok {
		return
	}
	delete(c.missSlots, tag)
	c.rob[slot].done = true
	c.demandInFlight--
}

// post submits (or spills) one posted line transfer toward DRAM.
func (c *Core) post(addr uint64, isWrite bool) {
	if !c.mem.Submit(c.id, addr, isWrite, false, 0) {
		c.pendingOps = append(c.pendingOps, pendingOp{addr: addr, isWrite: isWrite})
		c.stats.SubmitRetries++
	}
}

// routePosted sends posted traffic through the shared LLC when attached:
// writebacks land in the LLC (their dirty victims go to DRAM); fills that
// hit the LLC generate no DRAM traffic at all.
func (c *Core) routePosted(addr uint64, isWrite bool) {
	if c.llc == nil {
		c.post(addr, isWrite)
		return
	}
	wb, hit := c.llc.Access(c.id, addr, isWrite)
	if wb.Writeback {
		c.post(wb.WritebackAddr, true)
	}
	if !hit && !isWrite {
		// A fill the LLC also missed: fetch the line from DRAM (posted).
		c.post(addr, false)
	}
}

// maybePrefetch trains the stride detector on the access and issues posted
// L2 fills for confident candidates. Prefetch traffic never takes MSHRs and
// is throttled when earlier posted traffic is still waiting.
func (c *Core) maybePrefetch(paddr uint64, isWrite bool) {
	if c.pf == nil || isWrite || len(c.pendingOps) > 0 {
		return
	}
	for _, cand := range c.pf.Observe(paddr) {
		ops, filled := c.hier.PrefetchL2(cand)
		if !filled {
			continue
		}
		c.stats.PrefetchesIssued++
		for _, op := range ops {
			c.routePosted(op.Addr, op.IsWrite)
		}
	}
}
