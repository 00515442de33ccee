package tenant

import (
	"errors"
	"sync"
)

// FairQueue is a bounded weighted-fair queue: the service's replacement for
// its old single FIFO channel. Items are grouped into flows — one per
// (tenant, lane) — and dequeued by virtual finish time (start-time fair
// queueing): each item's finish time is
//
//	vft = max(globalVirtualTime, flow.lastVFT) + cost/effectiveWeight
//
// with effectiveWeight = tenantWeight × laneBoost. Pop always returns the
// globally minimal (vft, seq) item, so:
//
//   - Work conservation: Pop never blocks while anything is queued.
//   - Starvation-freedom: a backlogged heavy flow advances its own virtual
//     time with every item, so a light flow's next item always overtakes
//     the heavy flow's tail after a bounded number of dequeues.
//   - Determinism: ties (equal weights, equal costs) break on seq — global
//     FIFO order — so equal-weight tenants interleave reproducibly.
//
// Close matches channel-close semantics: producers get ErrClosed, consumers
// drain what is queued and then Pop returns false.
type FairQueue[T any] struct {
	mu     sync.Mutex
	cond   *sync.Cond
	cap    int
	size   int
	closed bool
	vtime  float64
	seq    uint64
	flows  map[flowKey]*flow[T]
}

type flowKey struct {
	Tenant string
	Lane   string
}

type fqItem[T any] struct {
	v   T
	vft float64
	seq uint64
}

// flow is one (tenant, lane)'s FIFO of queued items. Within a flow vft is
// monotone (cost is always positive), so the head is always the flow's
// minimum.
type flow[T any] struct {
	items   []fqItem[T]
	lastVFT float64
}

// LaneDepth is one flow's queue depth, for metrics and health reporting.
type LaneDepth struct {
	Tenant string
	Lane   string
	Depth  int
}

// ErrQueueFull rejects a Push into a queue at capacity (the caller's 429).
var ErrQueueFull = errors.New("tenant: queue full")

// ErrQueueClosed rejects a Push after Close (the caller's 503).
var ErrQueueClosed = errors.New("tenant: queue closed")

// NewFairQueue returns an empty queue bounded at capacity items.
func NewFairQueue[T any](capacity int) *FairQueue[T] {
	q := &FairQueue[T]{cap: capacity, flows: map[flowKey]*flow[T]{}}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// laneBoost folds the priority lane into the effective weight.
func laneBoost(lane string) float64 {
	if lane == LaneInteractive {
		return InteractiveBoost
	}
	return 1
}

// Push enqueues v on the (tenantName, lane) flow. weight is the tenant's
// fair share (clamped to a small positive floor) and cost the item's
// service demand in any consistent unit — simcycles here; only ratios
// matter.
func (q *FairQueue[T]) Push(v T, tenantName, lane string, weight, cost float64) error {
	if weight <= 0 {
		weight = 1
	}
	if cost <= 0 {
		cost = 1e-6
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrQueueClosed
	}
	if q.size >= q.cap {
		return ErrQueueFull
	}
	key := flowKey{Tenant: tenantName, Lane: lane}
	f := q.flows[key]
	if f == nil {
		f = &flow[T]{}
		q.flows[key] = f
	}
	start := q.vtime
	if f.lastVFT > start {
		start = f.lastVFT
	}
	vft := start + cost/(weight*laneBoost(lane))
	f.lastVFT = vft
	q.seq++
	f.items = append(f.items, fqItem[T]{v: v, vft: vft, seq: q.seq})
	q.size++
	q.cond.Signal()
	return nil
}

// Pop blocks until an item is available and returns the minimum-(vft, seq)
// head across all flows. After Close it keeps draining queued items; once
// empty it returns the zero value and false — the worker pool's exit
// signal, same as ranging over a closed channel.
func (q *FairQueue[T]) Pop() (T, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.size == 0 {
		var zero T
		return zero, false
	}
	var bestKey flowKey
	var bestFlow *flow[T]
	for key, f := range q.flows {
		if len(f.items) == 0 {
			continue
		}
		head := f.items[0]
		if bestFlow == nil || head.vft < bestFlow.items[0].vft ||
			(head.vft == bestFlow.items[0].vft && head.seq < bestFlow.items[0].seq) {
			bestKey, bestFlow = key, f
		}
	}
	it := bestFlow.items[0]
	// Shift rather than re-slice so the backing array does not pin popped
	// items alive.
	copy(bestFlow.items, bestFlow.items[1:])
	bestFlow.items[len(bestFlow.items)-1] = fqItem[T]{}
	bestFlow.items = bestFlow.items[:len(bestFlow.items)-1]
	if len(bestFlow.items) == 0 {
		delete(q.flows, bestKey)
	}
	if it.vft > q.vtime {
		q.vtime = it.vft
	}
	q.size--
	return it.v, true
}

// Close stops admission and wakes every blocked Pop. Idempotent.
func (q *FairQueue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Len reports the number of queued items.
func (q *FairQueue[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// Cap reports the queue bound.
func (q *FairQueue[T]) Cap() int { return q.cap }

// Depths snapshots per-(tenant, lane) queue depths for the metrics page.
func (q *FairQueue[T]) Depths() []LaneDepth {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]LaneDepth, 0, len(q.flows))
	for key, f := range q.flows {
		if len(f.items) == 0 {
			continue
		}
		out = append(out, LaneDepth{Tenant: key.Tenant, Lane: key.Lane, Depth: len(f.items)})
	}
	return out
}
