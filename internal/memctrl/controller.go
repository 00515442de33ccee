package memctrl

import (
	"fmt"

	"dbpsim/internal/addr"
	"dbpsim/internal/dram"
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

// bankQueue is one request queue in arrival (and ID) order, plus per-bank
// request lists and a cached most-preferred request per bank, so selection
// compares one candidate per bank instead of re-ranking the whole queue
// every cycle. bank[b] holds bank b's requests in arrival order. head[b] is
// the less-minimum of bank[b] unless stale[b] is set; a fresh nil head means
// the bank has nothing queued. notBefore[b] is a memory cycle before which
// head[b]'s next command cannot issue (0 when unknown). The lists and heads
// are unserialised scratch: anything that may change a bank's ranking marks
// it stale, and refresh re-ranks each stale bank from its own list.
type bankQueue struct {
	q         []*Request
	bank      [][]*Request
	head      []*Request
	notBefore []uint64
	stale     []bool
	anyStale  bool
	banks     int // banks per rank, to flatten (rank, bank)
	less      func(a, b *Request) bool
}

func newBankQueue(capacity, ranks, banks int, less func(a, b *Request) bool) bankQueue {
	n := ranks * banks
	bq := bankQueue{
		q:         make([]*Request, 0, capacity),
		bank:      make([][]*Request, n),
		head:      make([]*Request, n),
		notBefore: make([]uint64, n),
		stale:     make([]bool, n),
		banks:     banks,
		less:      less,
	}
	// One backing array gives every bank room for a full queue, so the
	// lists never grow in a run.
	backing := make([]*Request, n*capacity)
	for b := range bq.bank {
		bq.bank[b] = backing[b*capacity : b*capacity : (b+1)*capacity]
	}
	return bq
}

func (bq *bankQueue) bankOf(r *Request) int { return r.Loc.Rank*bq.banks + r.Loc.Bank }

// push appends r, offering it against its bank's fresh head with one less
// call (a stale bank picks it up at the next refresh).
func (bq *bankQueue) push(r *Request) {
	bq.q = append(bq.q, r)
	b := bq.bankOf(r)
	bq.bank[b] = append(bq.bank[b], r)
	if !bq.stale[b] && (bq.head[b] == nil || bq.less(r, bq.head[b])) {
		bq.head[b] = r
		bq.notBefore[b] = 0
	}
}

// remove deletes r from the queue and its bank's list, preserving order,
// and re-ranks its bank.
func (bq *bankQueue) remove(r *Request) {
	bq.q = deleteRequest(bq.q, r)
	b := bq.bankOf(r)
	bq.bank[b] = deleteRequest(bq.bank[b], r)
	bq.invalidate(b)
}

// deleteRequest removes r from list in place, preserving order.
func deleteRequest(list []*Request, r *Request) []*Request {
	for i, o := range list {
		if o == r {
			copy(list[i:], list[i+1:])
			list[len(list)-1] = nil // no stale alias in the backing array
			return list[:len(list)-1]
		}
	}
	return list
}

// rebuild refills the per-bank lists from q (after a restore).
func (bq *bankQueue) rebuild() {
	for b := range bq.bank {
		clear(bq.bank[b])
		bq.bank[b] = bq.bank[b][:0]
	}
	for _, r := range bq.q {
		b := bq.bankOf(r)
		bq.bank[b] = append(bq.bank[b], r)
	}
	bq.invalidateAll()
}

// invalidate marks bank b's head for recomputation.
func (bq *bankQueue) invalidate(b int) {
	bq.head[b] = nil
	bq.notBefore[b] = 0
	bq.stale[b] = true
	bq.anyStale = true
}

// invalidateAll marks every bank's head for recomputation.
func (bq *bankQueue) invalidateAll() {
	for b := range bq.head {
		bq.invalidate(b)
	}
}

// refresh re-ranks every stale bank from its own list.
func (bq *bankQueue) refresh() {
	if !bq.anyStale {
		return
	}
	for b, stale := range bq.stale {
		if !stale {
			continue
		}
		bq.stale[b] = false
		var h *Request
		for _, r := range bq.bank[b] {
			if h == nil || bq.less(r, h) {
				h = r
			}
		}
		bq.head[b] = h
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

	reads  bankQueue
	writes bankQueue
	// nextEv memoises NextEvent's controller-and-channel part (its value
	// before the scheduler's NextTickEvent is folded in) while nextEvOK is
	// set; Tick, an accepted Enqueue and Restore clear it. Unserialised.
	nextEv   uint64
	nextEvOK bool
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
	// events, when non-nil, receives every enqueue, DRAM command and read
	// completion (see Events). Every call site is nil-checked, so a
	// controller without a sink does no observer work at all.
	events Events

	// free is the request pool: pool-owned requests are recycled here after
	// service so the steady-state enqueue path allocates nothing.
	free []*Request

	perThread []ThreadStats
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

// PerThreadCounters returns one thread's counters since the last reset; it
// implements the profiler's ControllerSource.
func (c *Controller) PerThreadCounters(thread int) (arrivals, reads, writes, rowHits, queueCycles uint64) {
	if thread < 0 || thread >= len(c.perThread) {
		return 0, 0, 0, 0, 0
	}
	ts := c.perThread[thread]
	return ts.Arrivals, ts.ReadsServed, ts.WritesServed, ts.RowHits, ts.QueueCycles
}

// ResetPerThreadCounters zeroes the per-thread counters at a quantum
// boundary; it implements the profiler's ControllerSource.
func (c *Controller) ResetPerThreadCounters() {
	for i := range c.perThread {
		c.perThread[i] = ThreadStats{}
	}
}

// DRAMStats returns the channel's command counters.
func (c *Controller) DRAMStats() dram.Stats { return c.ch.Stats() }

// HasOutstandingReads reports whether any read is queued or in flight (the
// profiler's cheap gate for BLP sampling).
func (c *Controller) HasOutstandingReads() bool {
	return len(c.reads.q) > 0 || len(c.inflight) > 0
}

// Events is the controller's one observer contract: everything it does
// that anyone outside may follow leaves through these three calls, in the
// order it happens. The requests passed in stay the controller's, and
// pooled ones are reused once served: read them during the call, never
// keep them.
type Events interface {
	// Enqueued reports a request accepted into a queue, with its Loc, ID
	// and Arrival filled in.
	Enqueued(r *Request)
	// Command reports one DRAM command issued to the channel at memory
	// cycle now. r is the request the command advances; it is nil for REF,
	// for the precharges that clear a rank for refresh, and for the
	// row-timeout precharges of idle rows. row is the row an ACT opens or
	// a RD/WR accesses (0 for PRE and REF). autoPrecharge marks a RD/WR
	// that closes its row itself (RDA/WRA), which the channel counts as a
	// precharge too.
	Command(cmd dram.Command, rank, bank, row int, r *Request, autoPrecharge bool, now uint64)
	// Completed reports a read whose data transfer finished at memory
	// cycle now; it has left the outstanding set. Writes complete on issue
	// and are not reported here.
	Completed(r *Request, now uint64)
}

// SetEvents installs the controller's event sink (nil detaches).
func (c *Controller) SetEvents(e Events) { c.events = e }

// ReadKey is a request's (global bank, page) identity: the one
// ForEachOutstandingRead reports, and the one an event sink must derive to
// follow the outstanding set incrementally.
func ReadKey(m *addr.Mapper, r *Request) (globalBank int, pageKey uint64) {
	return m.Geometry().BankID(r.Loc.Channel, r.Loc.Rank, r.Loc.Bank), r.Addr >> m.PageShift()
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
	c.nextEvOK = false
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
		c.sched.OnEnqueue(r)
	}
	if c.events != nil {
		c.events.Enqueued(r)
	}
	return true
}

// ForEachOutstandingRead calls fn for every queued or in-flight read; used
// by the BLP/MLP profiler. pageKey identifies the physical page (distinct
// pages in flight measure the thread's *potential* bank-level parallelism,
// independent of how many banks it currently owns).
func (c *Controller) ForEachOutstandingRead(fn func(thread, globalBank int, pageKey uint64)) {
	for _, r := range c.reads.q {
		bank, page := ReadKey(c.mapper, r)
		fn(r.Thread, bank, page)
	}
	for _, f := range c.inflight {
		bank, page := ReadKey(c.mapper, f.req)
		fn(f.req.Thread, bank, page)
	}
}

// Tick advances the controller by one memory cycle: completes finished
// transfers, manages refresh, and issues at most one DRAM command.
func (c *Controller) Tick() {
	c.nextEvOK = false
	c.completeTransfers()
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
				c.issue(dram.CmdPrecharge, rank, bank, 0, nil, false)
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
			last := len(c.inflight) - 1
			c.inflight[i] = c.inflight[last]
			c.inflight[last] = inflight{} // drop the stale alias
			c.inflight = c.inflight[:last]
			if c.events != nil {
				c.events.Completed(r, c.now)
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
			c.issue(dram.CmdRefresh, rank, 0, 0, nil, false)
			for bank := 0; bank < c.ch.NumBanksPerRank(); bank++ {
				c.bankChanged(rank, bank)
			}
			return true
		}
		// Close open banks so the refresh can proceed.
		for bank := 0; bank < c.ch.NumBanksPerRank(); bank++ {
			if _, open := c.ch.OpenRow(rank, bank); open &&
				c.ch.CanIssue(dram.CmdPrecharge, rank, bank, 0, c.now) {
				c.issue(dram.CmdPrecharge, rank, bank, 0, nil, false)
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

// issue performs one command on the channel at the current cycle and
// reports it to the event sink: the one place the controller issues DRAM
// commands. r is the request the command advances (nil for refresh work
// and idle-row precharges).
func (c *Controller) issue(cmd dram.Command, rank, bank, row int, r *Request, autoPrecharge bool) (dataEnd uint64) {
	if autoPrecharge {
		dataEnd = c.ch.IssueAutoPrecharge(cmd, rank, bank, row, c.now)
	} else {
		dataEnd = c.ch.Issue(cmd, rank, bank, row, c.now)
	}
	if c.events != nil {
		c.events.Command(cmd, rank, bank, row, r, autoPrecharge, c.now)
	}
	return dataEnd
}

// issueFor advances the given request by one command; returns true if a
// command was issued, and served=true when the data command went out.
func (c *Controller) issueFor(r *Request) (issued, served bool) {
	cmd := c.nextCommand(r)
	rank, bank, row := r.Loc.Rank, r.Loc.Bank, r.Loc.Row
	if !c.ch.CanIssue(cmd, rank, bank, row, c.now) {
		return false, false
	}
	c.bankChanged(rank, bank)
	switch cmd {
	case dram.CmdActivate:
		r.MarkActivated()
		c.issue(cmd, rank, bank, row, r, false)
		return true, false
	case dram.CmdPrecharge:
		c.issue(cmd, rank, bank, 0, r, false)
		return true, false
	}
	// A data command: closed-page issues it with auto-precharge unless
	// another queued request still wants the row.
	c.lastColCmd[rank*c.ch.NumBanksPerRank()+bank] = c.now
	auto := c.cfg.ClosedPage && !c.pendingSameRow(rank, bank, row, r)
	dataEnd := c.issue(cmd, rank, bank, row, r, auto)
	if !r.IsWrite {
		c.inflight = append(c.inflight, inflight{dataEnd: dataEnd, req: r})
	} else if r.Thread >= 0 && r.Thread < len(c.perThread) {
		ts := &c.perThread[r.Thread]
		ts.WritesServed++
		if r.RowHit() {
			ts.RowHits++
		}
	}
	return true, true
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
		if r == nil || b == blocked || c.now < bq.notBefore[b] {
			continue
		}
		if !c.ready(r) {
			// Commands to other banks only add constraints, and a command
			// to this bank invalidates the bound with the head.
			bq.notBefore[b] = c.earliestIssue(r)
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
// bookkeeping that Skip replicates (cycle count, idempotent drain-mode
// check). Returning now means "active this cycle — do not skip".
// The bound only has to be a lower bound: waking early lands on ordinary
// no-op ticks, so early wake-ups cost time but never correctness.
func (c *Controller) NextEvent() uint64 {
	wake := c.sched.NextTickEvent(c.now)
	if wake <= c.now {
		return c.now
	}
	if !c.nextEvOK {
		c.nextEv, c.nextEvOK = c.nextOwnEvent(), true
	}
	return max(min(wake, c.nextEv), c.now)
}

// nextOwnEvent is NextEvent without the scheduler: the earliest memory
// cycle at which the queues, the in-flight transfers, refresh or the
// row-timeout policy need a real Tick. Its inputs change only in Tick,
// Enqueue and Restore; Skip only moves the clock up to at most the result,
// so the value stays a valid bound until one of those runs.
func (c *Controller) nextOwnEvent() uint64 {
	wake := NeverEvent
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
	return wake
}

// Skip advances the controller by m memory cycles in one jump, replicating
// exactly what m consecutive no-op Ticks would have done. Callers must only
// invoke it after NextEvent reported no activity anywhere in the skipped
// range.
func (c *Controller) Skip(m uint64) {
	// Every no-op tick runs the drain-mode check; it is idempotent while the
	// queues are untouched, so one call replicates all m of them.
	c.updateDrainMode()
	c.now += m
}
