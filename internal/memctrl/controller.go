package memctrl

import (
	"fmt"

	"dbpsim/internal/addr"
	"dbpsim/internal/dram"
	"dbpsim/internal/obs"
)

// Config sets controller queue geometry and the write-drain policy.
type Config struct {
	// ReadQueueCap bounds the read queue (per channel).
	ReadQueueCap int
	// WriteQueueCap bounds the write queue (per channel).
	WriteQueueCap int
	// WriteHighWatermark starts a write drain when the write queue reaches
	// this depth.
	WriteHighWatermark int
	// WriteLowWatermark ends the drain when the queue falls to this depth.
	WriteLowWatermark int
	// StarvationThreshold force-prioritises any read older than this many
	// memory cycles (0 disables the guard).
	StarvationThreshold uint64
	// ClosedPage issues column commands with auto-precharge whenever no
	// other queued request hits the same open row (closed-page policy;
	// default false = open page).
	ClosedPage bool
	// RowTimeout closes a row that has been idle (no column command and no
	// queued hit) for this many memory cycles, spending an otherwise-idle
	// command slot (0 disables; open rows then persist until a conflict).
	RowTimeout uint64
}

// DefaultConfig returns the baseline controller configuration.
func DefaultConfig() Config {
	return Config{
		ReadQueueCap:        64,
		WriteQueueCap:       64,
		WriteHighWatermark:  48,
		WriteLowWatermark:   16,
		StarvationThreshold: 20000,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ReadQueueCap <= 0 || c.WriteQueueCap <= 0 {
		return fmt.Errorf("memctrl: queue capacities must be positive (%+v)", c)
	}
	if c.WriteHighWatermark <= 0 || c.WriteHighWatermark > c.WriteQueueCap {
		return fmt.Errorf("memctrl: bad write high watermark %d (cap %d)", c.WriteHighWatermark, c.WriteQueueCap)
	}
	if c.WriteLowWatermark < 0 || c.WriteLowWatermark >= c.WriteHighWatermark {
		return fmt.Errorf("memctrl: bad write low watermark %d (high %d)", c.WriteLowWatermark, c.WriteHighWatermark)
	}
	return nil
}

type inflight struct {
	dataEnd uint64
	req     *Request
}

// bankQueue is one request queue in arrival (and ID) order, plus a cached
// most-preferred request per bank so selection compares one candidate per
// bank instead of re-ranking the whole queue every cycle. head[b] is the
// less-minimum of bank b's queued requests unless stale[b] is set; a fresh
// nil head means the bank has nothing queued. The heads are unserialised
// scratch: anything that may change a bank's ranking marks it stale, and
// refresh recomputes every stale bank in one pass over the queue.
type bankQueue struct {
	q        []*Request
	head     []*Request
	stale    []bool
	anyStale bool
	banks    int // banks per rank, to flatten (rank, bank)
	less     func(a, b *Request) bool
}

func newBankQueue(capacity, ranks, banks int, less func(a, b *Request) bool) bankQueue {
	return bankQueue{
		q:     make([]*Request, 0, capacity),
		head:  make([]*Request, ranks*banks),
		stale: make([]bool, ranks*banks),
		banks: banks,
		less:  less,
	}
}

func (bq *bankQueue) bankOf(r *Request) int { return r.Loc.Rank*bq.banks + r.Loc.Bank }

// push appends r, offering it against its bank's fresh head with one less
// call (a stale bank picks it up at the next refresh).
func (bq *bankQueue) push(r *Request) {
	bq.q = append(bq.q, r)
	if b := bq.bankOf(r); !bq.stale[b] && (bq.head[b] == nil || bq.less(r, bq.head[b])) {
		bq.head[b] = r
	}
}

// remove deletes r from the queue, preserving order, and re-ranks its bank.
func (bq *bankQueue) remove(r *Request) {
	for i, o := range bq.q {
		if o == r {
			copy(bq.q[i:], bq.q[i+1:])
			bq.q[len(bq.q)-1] = nil // no stale alias in the backing array
			bq.q = bq.q[:len(bq.q)-1]
			break
		}
	}
	bq.invalidate(bq.bankOf(r))
}

// invalidate marks bank b's head for recomputation.
func (bq *bankQueue) invalidate(b int) {
	bq.head[b] = nil
	bq.stale[b] = true
	bq.anyStale = true
}

// invalidateAll marks every bank's head for recomputation.
func (bq *bankQueue) invalidateAll() {
	for b := range bq.head {
		bq.invalidate(b)
	}
}

// refresh recomputes every stale head in one pass over the queue.
func (bq *bankQueue) refresh() {
	if !bq.anyStale {
		return
	}
	for _, r := range bq.q {
		if b := bq.bankOf(r); bq.stale[b] && (bq.head[b] == nil || bq.less(r, bq.head[b])) {
			bq.head[b] = r
		}
	}
	for b := range bq.stale {
		bq.stale[b] = false
	}
	bq.anyStale = false
}

// Controller drives one DRAM channel.
type Controller struct {
	cfg       Config
	channelID int
	ch        *dram.Channel
	mapper    *addr.Mapper
	sched     Scheduler

	reads    bankQueue
	writes   bankQueue
	inflight []inflight
	nextID   uint64
	now      uint64
	draining bool
	// lastColCmd[rank*banks+bank] is when the bank last served a column
	// command, for the row-timeout policy.
	lastColCmd []uint64

	// readEpoch is the scheduler's PriorityEpoch the read heads were ranked
	// under.
	readEpoch uint64
	// readObs, when set, is told about every read joining and leaving the
	// outstanding set (see SetReadObserver).
	readObs ReadObserver

	// free is the request pool: pool-owned requests are recycled here after
	// service so the steady-state enqueue path allocates nothing.
	free []*Request

	perThread []ThreadStats
	// demandDone, when set, is called with (thread, tag) when a demand read
	// completes — the flattened completion path (no per-request closures).
	demandDone func(thread int, tag uint64)
	// completionHook, when set, receives (thread, latency in memory cycles)
	// for every completed read.
	completionHook func(thread int, latency uint64)
	// rec, when non-nil, receives request-lifecycle events (enqueue, row
	// activate, column access, completion). Every call site is guarded by
	// a nil check so the disabled path does no work at all.
	rec *obs.Recorder

	// BusyReadCycles counts cycles with at least one queued or in-flight
	// read (used for utilisation reporting).
	BusyReadCycles uint64
}

// NewController builds a controller for one channel.
func NewController(channelID int, ch *dram.Channel, m *addr.Mapper, sched Scheduler, cfg Config, numThreads int) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		return nil, fmt.Errorf("memctrl: nil scheduler")
	}
	if numThreads <= 0 {
		return nil, fmt.Errorf("memctrl: numThreads must be positive, got %d", numThreads)
	}
	ranks, banks := ch.NumRanks(), ch.NumBanksPerRank()
	c := &Controller{
		cfg:        cfg,
		channelID:  channelID,
		ch:         ch,
		mapper:     m,
		sched:      sched,
		inflight:   make([]inflight, 0, 16),
		perThread:  make([]ThreadStats, numThreads),
		lastColCmd: make([]uint64, ranks*banks),
	}
	// Both less-funcs are bound once here: a method value or closure built
	// per cycle would allocate on the hot path.
	c.reads = newBankQueue(cfg.ReadQueueCap, ranks, banks, func(a, b *Request) bool { return c.sched.Less(c, a, b) })
	c.writes = newBankQueue(cfg.WriteQueueCap, ranks, banks, c.writeLess)
	c.readEpoch = sched.PriorityEpoch()
	return c, nil
}

// ChannelID returns the controller's channel index.
func (c *Controller) ChannelID() int { return c.channelID }

// Scheduler returns the installed request scheduler.
func (c *Controller) Scheduler() Scheduler { return c.sched }

// Now implements SchedContext.
func (c *Controller) Now() uint64 { return c.now }

// RowHit implements SchedContext: does r target its bank's open row?
func (c *Controller) RowHit(r *Request) bool {
	row, open := c.ch.OpenRow(r.Loc.Rank, r.Loc.Bank)
	return open && row == r.Loc.Row
}

// QueuedReads returns the current read-queue depth.
func (c *Controller) QueuedReads() int { return len(c.reads.q) }

// QueuedWrites returns the current write-queue depth.
func (c *Controller) QueuedWrites() int { return len(c.writes.q) }

// PerThread returns a copy of the per-thread service counters.
func (c *Controller) PerThread() []ThreadStats {
	out := make([]ThreadStats, len(c.perThread))
	copy(out, c.perThread)
	return out
}

// ResetPerThread zeroes the per-thread counters (quantum boundaries).
func (c *Controller) ResetPerThread() {
	for i := range c.perThread {
		c.perThread[i] = ThreadStats{}
	}
}

// PerThreadCounters returns one thread's counters since the last reset; it
// implements the profiler's ControllerSource.
func (c *Controller) PerThreadCounters(thread int) (arrivals, reads, writes, rowHits, queueCycles uint64) {
	if thread < 0 || thread >= len(c.perThread) {
		return 0, 0, 0, 0, 0
	}
	ts := c.perThread[thread]
	return ts.Arrivals, ts.ReadsServed, ts.WritesServed, ts.RowHits, ts.QueueCycles
}

// ResetPerThreadCounters implements the profiler's ControllerSource.
func (c *Controller) ResetPerThreadCounters() { c.ResetPerThread() }

// DRAMStats returns the channel's command counters.
func (c *Controller) DRAMStats() dram.Stats { return c.ch.Stats() }

// SetCompletionHook installs a callback invoked with (thread, latency) for
// every completed read — used for latency-distribution reporting.
func (c *Controller) SetCompletionHook(fn func(thread int, latency uint64)) {
	c.completionHook = fn
}

// SetDemandCompleter installs the demand-read completion callback: fn is
// invoked with (thread, tag) when a demand read's data transfer finishes.
// One controller-level callback replaces a per-request closure, so the
// steady-state miss path allocates nothing and snapshot restore needs no
// relinking.
func (c *Controller) SetDemandCompleter(fn func(thread int, tag uint64)) {
	c.demandDone = fn
}

// HasOutstandingReads reports whether any read is queued or in flight (the
// profiler's cheap gate for BLP sampling).
func (c *Controller) HasOutstandingReads() bool {
	return len(c.reads.q) > 0 || len(c.inflight) > 0
}

// ReadObserver follows the set of outstanding reads (what
// ForEachOutstandingRead visits) incrementally: ReadArrived when Enqueue
// accepts a read, ReadDeparted when its data transfer completes, with the
// same (thread, globalBank, pageKey) the walk reports. Restore reports
// nothing; an observer rebuilds from ForEachOutstandingRead after one.
type ReadObserver interface {
	ReadArrived(thread, globalBank int, pageKey uint64)
	ReadDeparted(thread, globalBank int, pageKey uint64)
}

// SetReadObserver installs the outstanding-read observer (nil detaches).
func (c *Controller) SetReadObserver(o ReadObserver) { c.readObs = o }

// readKey is a read's (global bank, page) identity as ForEachOutstandingRead
// and the read observer report it.
func (c *Controller) readKey(r *Request) (globalBank int, pageKey uint64) {
	return c.globalBank(r), r.Addr >> c.mapper.PageShift()
}

// SetRecorder attaches (or, with nil, detaches) the observability recorder.
func (c *Controller) SetRecorder(r *obs.Recorder) { c.rec = r }

// globalBank flattens a request's (channel, rank, bank) into the global
// bank index the recorder keys occupancy on.
func (c *Controller) globalBank(r *Request) int {
	return c.mapper.Geometry().BankID(r.Loc.Channel, r.Loc.Rank, r.Loc.Bank)
}

// Submit accepts a request by value, backing it with a pooled object so the
// steady-state enqueue path never allocates. It returns false when the
// target queue is full (the caller must retry). The request's Loc, ID and
// Arrival are filled in on acceptance.
func (c *Controller) Submit(r Request) bool {
	var req *Request
	if n := len(c.free); n > 0 {
		req = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
	} else {
		req = new(Request)
	}
	*req = r
	req.pooled = true
	return c.Enqueue(req) // a full queue recycles req before returning false
}

// recycle returns a pool-owned request to the free list once nothing in the
// controller references it any more (read completion or write service).
func (c *Controller) recycle(r *Request) {
	if r.pooled {
		c.free = append(c.free, r)
	}
}

// Enqueue accepts a request into the controller, returning false when the
// target queue is full (the core must retry). The request's Loc, ID and
// Arrival are filled in here.
func (c *Controller) Enqueue(r *Request) bool {
	if r.IsWrite {
		if len(c.writes.q) >= c.cfg.WriteQueueCap {
			c.recycle(r)
			return false
		}
	} else if len(c.reads.q) >= c.cfg.ReadQueueCap {
		c.recycle(r)
		return false
	}
	r.Loc = c.mapper.Decode(r.Addr)
	r.ID = c.nextID
	c.nextID++
	r.Arrival = c.now
	if r.Thread >= 0 && r.Thread < len(c.perThread) {
		c.perThread[r.Thread].Arrivals++
	}
	if r.IsWrite {
		c.writes.push(r)
	} else {
		c.reads.push(r)
		if c.readObs != nil {
			bank, page := c.readKey(r)
			c.readObs.ReadArrived(r.Thread, bank, page)
		}
		c.sched.OnEnqueue(r)
	}
	if c.rec != nil {
		c.rec.OnEnqueue(r.Thread, r.IsWrite)
	}
	return true
}

// ForEachOutstandingRead calls fn for every queued or in-flight read; used
// by the BLP/MLP profiler. pageKey identifies the physical page (distinct
// pages in flight measure the thread's *potential* bank-level parallelism,
// independent of how many banks it currently owns).
func (c *Controller) ForEachOutstandingRead(fn func(thread, globalBank int, pageKey uint64)) {
	for _, r := range c.reads.q {
		bank, page := c.readKey(r)
		fn(r.Thread, bank, page)
	}
	for _, f := range c.inflight {
		bank, page := c.readKey(f.req)
		fn(f.req.Thread, bank, page)
	}
}

// Tick advances the controller by one memory cycle: completes finished
// transfers, manages refresh, and issues at most one DRAM command.
func (c *Controller) Tick() {
	c.completeTransfers()
	if len(c.reads.q) > 0 || len(c.inflight) > 0 {
		c.BusyReadCycles++
	}
	c.sched.OnTick(c.now)

	issued := c.serviceRefresh()
	if !issued {
		c.updateDrainMode()
		if c.draining || (len(c.reads.q) == 0 && len(c.writes.q) > 0) {
			issued = c.issueBestWrite()
			if !issued && !c.draining {
				issued = c.issueBestRead()
			}
		} else {
			issued = c.issueBestRead()
			if !issued && len(c.writes.q) > 0 && len(c.reads.q) == 0 {
				issued = c.issueBestWrite()
			}
		}
	}
	if !issued && c.cfg.RowTimeout > 0 {
		c.closeIdleRows()
	}
	c.now++
}

// closeIdleRows spends an idle command slot precharging one row that has
// seen no column traffic for RowTimeout cycles and has no queued hit —
// hiding the precharge latency of the next conflict.
func (c *Controller) closeIdleRows() {
	nb := c.ch.NumBanksPerRank()
	for rank := 0; rank < c.ch.NumRanks(); rank++ {
		for bank := 0; bank < nb; bank++ {
			row, open := c.ch.OpenRow(rank, bank)
			if !open || c.now-c.lastColCmd[rank*nb+bank] < c.cfg.RowTimeout {
				continue
			}
			if c.pendingSameRow(rank, bank, row, nil) {
				continue
			}
			if c.ch.CanIssue(dram.CmdPrecharge, rank, bank, 0, c.now) {
				c.ch.Issue(dram.CmdPrecharge, rank, bank, 0, c.now)
				c.bankChanged(rank, bank)
				return
			}
		}
	}
}

func (c *Controller) completeTransfers() {
	for i := 0; i < len(c.inflight); {
		f := c.inflight[i]
		if c.now >= f.dataEnd {
			r := f.req
			if r.Thread >= 0 && r.Thread < len(c.perThread) {
				ts := &c.perThread[r.Thread]
				ts.ReadsServed++
				if r.RowHit() {
					ts.RowHits++
				}
				ts.QueueCycles += c.now - r.Arrival
			}
			if c.completionHook != nil {
				c.completionHook(r.Thread, c.now-r.Arrival)
			}
			if c.rec != nil {
				c.rec.OnComplete(r.Thread, c.channelID, r.Arrival, c.now, r.RowHit())
			}
			if c.demandDone != nil && r.Demand && r.Tag != 0 {
				c.demandDone(r.Thread, r.Tag)
			}
			if r.OnComplete != nil {
				r.OnComplete()
			}
			last := len(c.inflight) - 1
			c.inflight[i] = c.inflight[last]
			c.inflight[last] = inflight{} // drop the stale alias
			c.inflight = c.inflight[:last]
			if c.readObs != nil {
				bank, page := c.readKey(r)
				c.readObs.ReadDeparted(r.Thread, bank, page)
			}
			c.recycle(r)
			continue
		}
		i++
	}
}

func (c *Controller) updateDrainMode() {
	if c.draining {
		if len(c.writes.q) <= c.cfg.WriteLowWatermark {
			c.draining = false
		}
	} else if len(c.writes.q) >= c.cfg.WriteHighWatermark {
		c.draining = true
	}
}

// serviceRefresh handles due refreshes; returns true if it used this
// cycle's command slot.
func (c *Controller) serviceRefresh() bool {
	for rank := 0; rank < c.ch.NumRanks(); rank++ {
		if !c.ch.RefreshDue(rank, c.now) || c.ch.Refreshing(rank, c.now) {
			continue
		}
		if c.ch.CanIssue(dram.CmdRefresh, rank, 0, 0, c.now) {
			c.ch.Issue(dram.CmdRefresh, rank, 0, 0, c.now)
			for bank := 0; bank < c.ch.NumBanksPerRank(); bank++ {
				c.bankChanged(rank, bank)
			}
			return true
		}
		// Close open banks so the refresh can proceed.
		for bank := 0; bank < c.ch.NumBanksPerRank(); bank++ {
			if _, open := c.ch.OpenRow(rank, bank); open &&
				c.ch.CanIssue(dram.CmdPrecharge, rank, bank, 0, c.now) {
				c.ch.Issue(dram.CmdPrecharge, rank, bank, 0, c.now)
				c.bankChanged(rank, bank)
				return true
			}
		}
		// Waiting on tRAS/tWR before the precharge can issue: hold the
		// command slot so forward progress toward refresh is not lost.
		return true
	}
	return false
}

// nextCommand returns the DRAM command this request needs next.
func (c *Controller) nextCommand(r *Request) dram.Command {
	row, open := c.ch.OpenRow(r.Loc.Rank, r.Loc.Bank)
	switch {
	case !open:
		return dram.CmdActivate
	case row != r.Loc.Row:
		return dram.CmdPrecharge
	case r.IsWrite:
		return dram.CmdWrite
	default:
		return dram.CmdRead
	}
}

// ready reports whether r's next DRAM command is legal this cycle.
func (c *Controller) ready(r *Request) bool {
	return c.ch.CanIssue(c.nextCommand(r), r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
}

// bankChanged re-ranks one bank in both queues after a command to it: the
// bank's open row is what Less reads through RowHit.
func (c *Controller) bankChanged(rank, bank int) {
	b := rank*c.ch.NumBanksPerRank() + bank
	c.reads.invalidate(b)
	c.writes.invalidate(b)
}

// issueFor advances the given request by one command; returns true if a
// command was issued, and served=true when the data command went out.
func (c *Controller) issueFor(r *Request) (issued, served bool) {
	cmd := c.nextCommand(r)
	if !c.ch.CanIssue(cmd, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now) {
		return false, false
	}
	c.bankChanged(r.Loc.Rank, r.Loc.Bank)
	switch cmd {
	case dram.CmdActivate:
		c.ch.Issue(cmd, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
		r.MarkActivated()
		if c.rec != nil {
			c.rec.OnActivate(r.Thread, c.globalBank(r))
		}
		return true, false
	case dram.CmdPrecharge:
		c.ch.Issue(cmd, r.Loc.Rank, r.Loc.Bank, 0, c.now)
		return true, false
	case dram.CmdRead:
		c.lastColCmd[r.Loc.Rank*c.ch.NumBanksPerRank()+r.Loc.Bank] = c.now
		if c.rec != nil {
			c.rec.OnColumn(r.Thread, c.globalBank(r), false)
		}
		var dataEnd uint64
		if c.cfg.ClosedPage && !c.pendingSameRow(r.Loc.Rank, r.Loc.Bank, r.Loc.Row, r) {
			dataEnd = c.ch.IssueAutoPrecharge(cmd, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
		} else {
			dataEnd = c.ch.Issue(cmd, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
		}
		c.inflight = append(c.inflight, inflight{dataEnd: dataEnd, req: r})
		return true, true
	case dram.CmdWrite:
		c.lastColCmd[r.Loc.Rank*c.ch.NumBanksPerRank()+r.Loc.Bank] = c.now
		if c.rec != nil {
			c.rec.OnColumn(r.Thread, c.globalBank(r), true)
		}
		if c.cfg.ClosedPage && !c.pendingSameRow(r.Loc.Rank, r.Loc.Bank, r.Loc.Row, r) {
			c.ch.IssueAutoPrecharge(cmd, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
		} else {
			c.ch.Issue(cmd, r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
		}
		if r.Thread >= 0 && r.Thread < len(c.perThread) {
			ts := &c.perThread[r.Thread]
			ts.WritesServed++
			if r.RowHit() {
				ts.RowHits++
			}
		}
		return true, true
	}
	return false, false
}

// pendingSameRow reports whether any queued request other than except
// targets (rank, bank, row) — if so, a closed-page controller keeps the row
// open for it.
func (c *Controller) pendingSameRow(rank, bank, row int, except *Request) bool {
	for _, q := range [2][]*Request{c.reads.q, c.writes.q} {
		for _, o := range q {
			if o != except && o.Loc.Rank == rank && o.Loc.Bank == bank && o.Loc.Row == row {
				return true
			}
		}
	}
	return false
}

// issueBestRead serves the read queue in scheduler order.
func (c *Controller) issueBestRead() bool {
	if len(c.reads.q) == 0 {
		return false
	}
	if e := c.sched.PriorityEpoch(); e != c.readEpoch {
		c.readEpoch = e
		c.reads.invalidateAll()
	}
	// Starvation guard: a too-old request pre-empts scheduler order. The
	// queue is in arrival order, so if any read is starved its front is the
	// oldest one.
	var starved *Request
	if t := c.cfg.StarvationThreshold; t > 0 && c.now-c.reads.q[0].Arrival >= t {
		starved = c.reads.q[0]
	}
	return c.selectAndIssue(&c.reads, starved)
}

// issueBestWrite drains the write queue FR-FCFS (row hit first, then age).
func (c *Controller) issueBestWrite() bool {
	if len(c.writes.q) == 0 {
		return false
	}
	return c.selectAndIssue(&c.writes, nil)
}

// writeLess is the write queue's FR-FCFS order.
func (c *Controller) writeLess(a, b *Request) bool {
	ha, hb := c.RowHit(a), c.RowHit(b)
	if ha != hb {
		return ha
	}
	return a.ID < b.ID
}

// selectAndIssue advances the most-preferred request whose next command is
// legal this cycle by one command, with per-bank priority blocking: only a
// bank's head (its most-preferred request) may issue, so when the head is
// timing-blocked, lower-priority requests may not sneak onto that bank —
// otherwise an endless stream of row hits would push the precharge point
// forever and starve a promoted conflict request. Because less is a strict
// total order, the winner is the least ready head, which is exactly the
// request a full re-ranking that blocks banks one by one would pick.
// preferred, if non-nil, is tried before all others and blocks its bank
// when it cannot issue.
func (c *Controller) selectAndIssue(bq *bankQueue, preferred *Request) bool {
	bq.refresh()
	blocked := -1
	if preferred != nil {
		if c.issueFrom(bq, preferred) {
			return true
		}
		blocked = bq.bankOf(preferred)
	}
	var best *Request
	for b, r := range bq.head {
		if r == nil || b == blocked || !c.ready(r) {
			continue
		}
		if best == nil || bq.less(r, best) {
			best = r
		}
	}
	return best != nil && c.issueFrom(bq, best)
}

// issueFrom advances r, a request queued in bq, by one command; when that
// command is its data command, r leaves the queue.
func (c *Controller) issueFrom(bq *bankQueue, r *Request) bool {
	issued, served := c.issueFor(r)
	if served {
		bq.remove(r)
		if r.IsWrite {
			c.recycle(r) // writes complete on issue
		} else {
			c.sched.OnService(r)
		}
	}
	return issued
}

// earliestIssue lower-bounds the memory cycle at which r's next DRAM command
// could legally issue, given the channel's current timing state.
func (c *Controller) earliestIssue(r *Request) uint64 {
	return c.ch.EarliestIssue(c.nextCommand(r), r.Loc.Rank, r.Loc.Bank, r.Loc.Row, c.now)
}

// NextEvent returns a conservative lower bound on the next memory cycle at
// which ticking this controller could do anything beyond the no-op
// bookkeeping that Skip replicates (cycle count, busy accounting, idempotent
// drain-mode check). Returning now means "active this cycle — do not skip".
// The bound only has to be a lower bound: waking early lands on ordinary
// no-op ticks, so early wake-ups cost time but never correctness.
func (c *Controller) NextEvent() uint64 {
	wake := c.sched.NextTickEvent(c.now)
	if wake <= c.now {
		return c.now
	}
	// In-flight read transfers complete (and unblock cores) at dataEnd.
	for _, f := range c.inflight {
		if f.dataEnd < wake {
			wake = f.dataEnd
		}
	}
	// Refresh machinery: a due refresh needs the command slot right now; a
	// rank mid-refresh frees its banks at RefreshBusyUntil; otherwise the
	// next deadline is the event.
	for rank := 0; rank < c.ch.NumRanks(); rank++ {
		due, enabled := c.ch.RefreshDeadline(rank)
		if !enabled {
			continue
		}
		if c.ch.RefreshDue(rank, c.now) {
			if !c.ch.Refreshing(rank, c.now) {
				return c.now
			}
			if t := c.ch.RefreshBusyUntil(rank); t < wake {
				wake = t
			}
		} else if due < wake {
			wake = due
		}
	}
	// Queued requests become serviceable once their next command's timing
	// constraints lapse. Scheduler order does not matter here: skipping is
	// only legal when no command at all can issue, and no request's command
	// can issue before its own earliest-issue time.
	for _, q := range [2][]*Request{c.reads.q, c.writes.q} {
		for _, r := range q {
			if t := c.earliestIssue(r); t <= c.now {
				return c.now // nothing later can undercut it
			} else if t < wake {
				wake = t
			}
		}
	}
	// Row-timeout policy: an idle open row is precharged once it has seen no
	// column traffic for RowTimeout cycles (closeIdleRows also requires no
	// queued same-row hit, but ignoring that only wakes us early).
	if c.cfg.RowTimeout > 0 {
		nb := c.ch.NumBanksPerRank()
		for rank := 0; rank < c.ch.NumRanks(); rank++ {
			for bank := 0; bank < nb; bank++ {
				if _, open := c.ch.OpenRow(rank, bank); !open {
					continue
				}
				t := c.lastColCmd[rank*nb+bank] + c.cfg.RowTimeout
				if e := c.ch.EarliestIssue(dram.CmdPrecharge, rank, bank, 0, c.now); e > t {
					t = e
				}
				if t < wake {
					wake = t
				}
			}
		}
	}
	if wake < c.now {
		wake = c.now
	}
	return wake
}

// Skip advances the controller by m memory cycles in one jump, replicating
// exactly what m consecutive no-op Ticks would have done. Callers must only
// invoke it after NextEvent reported no activity anywhere in the skipped
// range.
func (c *Controller) Skip(m uint64) {
	if len(c.reads.q) > 0 || len(c.inflight) > 0 {
		c.BusyReadCycles += m
	}
	// Every no-op tick runs the drain-mode check; it is idempotent while the
	// queues are untouched, so one call replicates all m of them.
	c.updateDrainMode()
	c.now += m
}
