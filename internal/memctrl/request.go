// Package memctrl implements the per-channel memory controller: read/write
// queues, open-page command generation on top of the dram timing model, a
// pluggable request scheduler, the per-thread profiling counters (served
// requests, row hits, outstanding-bank sampling) that Dynamic Bank
// Partitioning and TCM consume, and one event sink (Events) that sees every
// enqueue, DRAM command and read completion.
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
	// Tag is an opaque requester-assigned identifier. Demand reads carry
	// the issuing core's miss tag, which the event sink's Completed hands
	// back to the core; being plain data, it survives snapshot restore
	// without any relinking.
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

// Scheduler orders the read queue and is the controller's whole contract
// with it: the controller calls every method below directly, so a wrapper
// (such as a priority layer) must forward all of them.
//
// The controller caches each bank's most-preferred request across cycles
// and re-ranks a bank only when something Less may read has changed. Less
// must therefore be a strict total order whose last criterion is the ID
// tiebreak (so no two queued requests compare equal), and it may depend
// only on the requests themselves, on ctx.RowHit (the open row of the
// request's own bank), and on scheduler state whose every change bumps
// PriorityEpoch.
type Scheduler interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Less reports whether a should be served before b (see the contract
	// above).
	Less(ctx SchedContext, a, b *Request) bool
	// OnTick is called once per memory cycle before scheduling.
	OnTick(now uint64)
	// NextTickEvent returns the earliest memory cycle >= now at which
	// OnTick would mutate state, assuming the queue contents do not change
	// in between; NeverEvent means "no such cycle". Returning now (or
	// less) marks the scheduler active this cycle and suppresses cycle
	// skipping.
	NextTickEvent(now uint64) uint64
	// PriorityEpoch must return a different value after any change to
	// state that Less reads (ranks, batches, blacklists, streaks, restored
	// snapshots); between changes it returns the same value. The epoch is
	// unserialised scratch: it need not survive a snapshot, only change
	// across Restore.
	PriorityEpoch() uint64
	// OnEnqueue fires when a read request enters the queue.
	OnEnqueue(r *Request)
	// OnService fires when a read request's data command has issued (it
	// leaves the queue).
	OnService(r *Request)
	// Snapshot encodes the scheduler's own mutable state, a wrapper's
	// including its inner scheduler's; a stateless scheduler returns none.
	Snapshot() ([]byte, error)
	// Restore installs Snapshot's bytes into an identically configured
	// scheduler. It needs nothing from the controller: requests are
	// named by (Loc.Channel, ID), which a controller restore preserves.
	Restore([]byte) error
}

// NeverEvent marks "no self-scheduled future event": a component returning
// it changes state only in reaction to others.
const NeverEvent = ^uint64(0)

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
