// Package memctrl implements the per-channel memory controller: read/write
// queues, open-page command generation on top of the dram timing model, a
// pluggable request scheduler, and the per-thread profiling hooks (served
// requests, row hits, outstanding-bank sampling) that Dynamic Bank
// Partitioning and TCM consume.
package memctrl

import (
	"dbpsim/internal/addr"
)

// Request is one DRAM request (a cache-line read or write).
type Request struct {
	// ID is a controller-unique, monotonically increasing identifier; it
	// doubles as the age tiebreak (smaller = older).
	ID uint64
	// Thread identifies the requesting hardware thread/core.
	Thread int
	// Addr is the physical byte address (line-aligned).
	Addr uint64
	// Loc is the decoded DRAM location.
	Loc addr.Location
	// IsWrite marks writebacks and store fills drained through the write
	// queue.
	IsWrite bool
	// Demand is true when a core is stalled waiting for this request.
	Demand bool
	// Arrival is the memory-cycle the request entered the controller.
	Arrival uint64
	// OnComplete, if non-nil, fires when the request's data transfer
	// completes (reads only; writes complete on issue). The simulation
	// kernel routes demand completions through the controller-level
	// demand completer instead (see SetDemandCompleter); this per-request
	// hook remains for tests and external callers.
	OnComplete func()
	// Tag is an opaque requester-assigned identifier. Demand reads carry
	// the issuing core's miss tag; the controller's demand completer hands
	// it back on completion, which also survives snapshot restore without
	// any relinking.
	Tag uint64

	// activated records that the controller opened a row specifically for
	// this request, i.e. it was not a row-buffer hit.
	activated bool
	// pooled marks requests owned by the controller's internal pool; only
	// those are recycled after service (caller-allocated requests passed to
	// Enqueue are never reused behind the caller's back).
	pooled bool
}

// RowHit reports whether the request was serviced from an already-open row.
// Valid once the request has been issued.
func (r *Request) RowHit() bool { return !r.activated }

// MarkActivated records that a row was opened specifically for this request
// (set by the controller on ACT; exported so scheduler tests can construct
// served-conflict requests).
func (r *Request) MarkActivated() { r.activated = true }

// SchedContext exposes controller state to schedulers during selection.
type SchedContext interface {
	// RowHit reports whether the request targets the currently open row of
	// its bank.
	RowHit(r *Request) bool
	// Now returns the current memory cycle.
	Now() uint64
}

// Scheduler orders the read queue. The controller serves the most-preferred
// request whose next DRAM command is legal this cycle.
//
// The controller caches each bank's most-preferred request across cycles
// and re-ranks a bank only when something Less may read has changed. Less
// must therefore be a strict total order whose last criterion is the ID
// tiebreak (so no two queued requests compare equal), and it may depend
// only on the requests themselves, on ctx.RowHit (the open row of the
// request's own bank), and on scheduler state whose every change bumps
// PriorityEpoch. A scheduler that does not implement PriorityEpocher is
// re-ranked every cycle.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Less reports whether a should be served before b (see the contract
	// above).
	Less(ctx SchedContext, a, b *Request) bool
	// OnTick is called once per memory cycle before scheduling.
	OnTick(now uint64)
}

// NeverEvent marks "no self-scheduled future event": a component returning
// it changes state only in reaction to others.
const NeverEvent = ^uint64(0)

// TickEventer is an optional Scheduler extension enabling event-driven cycle
// skipping. NextTickEvent returns the earliest memory cycle >= now at which
// the scheduler's OnTick would mutate its state, assuming the queue contents
// do not change in between; NeverEvent means "no such cycle". Returning now
// (or less) marks the scheduler active this cycle and suppresses skipping.
// A scheduler that does not implement TickEventer is never skipped over —
// the conservative default for third-party schedulers with stateful OnTick.
type TickEventer interface {
	NextTickEvent(now uint64) uint64
}

// PriorityEpocher is an optional Scheduler extension that lets the
// controller keep its per-bank ranking across cycles. PriorityEpoch must
// return a different value after any change to scheduler state that Less
// reads (ranks, batches, blacklists, streaks, restored snapshots); between
// changes it returns the same value. The epoch is unserialised scratch: it
// need not survive a snapshot, only change across Restore.
type PriorityEpocher interface {
	PriorityEpoch() uint64
}

// QueueObserver is an optional Scheduler extension: schedulers that need to
// track queue contents (batch formation in PAR-BS) implement it, and the
// controller reports read-request lifecycle events.
type QueueObserver interface {
	// OnEnqueue fires when a read request enters the queue.
	OnEnqueue(r *Request)
	// OnService fires when a read request's data command has issued (it
	// leaves the queue).
	OnService(r *Request)
}

// ThreadStats accumulates per-thread service counters inside one controller.
type ThreadStats struct {
	// ReadsServed counts completed read requests.
	ReadsServed uint64
	// WritesServed counts writes drained to DRAM.
	WritesServed uint64
	// RowHits counts serviced requests that hit an open row.
	RowHits uint64
	// Arrivals counts requests accepted into the queues.
	Arrivals uint64
	// QueueCycles accumulates read queueing delay (arrival to data).
	QueueCycles uint64
}
